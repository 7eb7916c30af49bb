package machine_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// preemptRun prepares kernel k as fanRun does, on the machine cfg builds,
// and drives it to completion. With preempt set, every Run call is asked to
// yield before it starts, so the run pauses at every instruction boundary
// and resumes in place. It returns the finished state and how many Run
// calls started paused mid-round; each of those must have executed exactly
// one body instruction before it yielded again.
func preemptRun(t *testing.T, k *workloads.Kernel, cfg machine.Config, rc workloads.RunConfig, preempt bool) (fanState, int) {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.PrepareOn(m, k, rc); err != nil {
		t.Fatal(err)
	}
	mids := 0
	for calls := 0; ; calls++ {
		if calls > 1<<20 {
			t.Fatal("preemption loop made no progress")
		}
		mid, before := m.PausedMidRound(), m.BodyInstructions()
		if preempt {
			m.Preempt()
		}
		st, err := m.Run()
		if err == nil {
			return fanCollect(t, m, k, rc.MaxSimVRFs, st), mids
		}
		if !errors.Is(err, machine.ErrPreempted) {
			t.Fatalf("run %d: %v", calls, err)
		}
		if mid {
			mids++
			if n := m.BodyInstructions() - before; n != 1 {
				t.Fatalf("run %d resumed a paused round and executed %d body instructions before yielding, want 1", calls, n)
			}
		}
	}
}

// TestPreemptEveryInstruction pauses every kernel whose rounds are
// interpreted at every instruction boundary, on one goroutine and on two
// with the chunk floor at 1 (so rounds are fanned out when the yield
// lands), and resumes each pause in place: the data-dependent kernels on the
// engine and on a logging machine, and every kernel on NoTrace machines,
// which interpret every round. Stats JSON, every register, the final
// snapshot and the execution log must equal an uninterrupted run's.
func TestPreemptEveryInstruction(t *testing.T) {
	fanOutAll(t)
	specs := []*backends.Spec{backends.RACER(), backends.MIMDRAM(), backends.DualityCache()}
	dynamic := []string{"gcd", "crc32", "ibert-sqrt", "euclidean"}
	var every []string
	for _, k := range workloads.All() {
		every = append(every, k.Name)
	}
	variants := []struct {
		name    string
		workers int
		noTrace bool
		log     bool
		kernels []string
	}{
		{"engine/w1", 1, false, false, dynamic},
		{"engine/w2", 2, false, false, dynamic},
		{"notrace/w1", 1, true, false, every},
		{"notrace/w2", 2, true, false, every},
		{"log", 1, false, true, dynamic},
	}
	for _, spec := range specs {
		for _, mode := range []machine.Mode{machine.ModeMPU, machine.ModeBaseline} {
			for _, v := range variants {
				for _, kn := range v.kernels {
					k := workloads.ByName(kn)
					name := fmt.Sprintf("%s/%s/%s/%s", kn, spec.Name, mode, v.name)
					rc := fanConfig(k, spec, mode, v.workers, fanVRFs)
					var logs [2]bytes.Buffer
					run := func(preempt bool, log *bytes.Buffer) (fanState, int) {
						cfg := workloads.MachineConfigFor(rc)
						cfg.NoTrace = v.noTrace
						if v.log {
							cfg.Trace = log
						}
						return preemptRun(t, k, cfg, rc, preempt)
					}
					ref, _ := run(false, &logs[0])
					got, mids := run(true, &logs[1])
					if mids == 0 {
						t.Errorf("%s: no Run call started inside a paused round", name)
					}
					if !bytes.Equal(ref.stats, got.stats) {
						t.Errorf("%s: stats diverge from the uninterrupted run:\nref: %s\ngot: %s", name, ref.stats, got.stats)
					}
					if !slices.EqualFunc(ref.regs, got.regs, slices.Equal[[]uint64]) {
						t.Errorf("%s: registers diverge from the uninterrupted run", name)
					}
					if !bytes.Equal(ref.snap, got.snap) {
						t.Errorf("%s: final snapshot diverges from the uninterrupted run", name)
					}
					if !bytes.Equal(logs[0].Bytes(), logs[1].Bytes()) {
						t.Errorf("%s: execution log diverges from the uninterrupted run (%d vs %d bytes)", name, logs[1].Len(), logs[0].Len())
					}
				}
			}
		}
	}
}

package machine_test

// Round fan-out tests: splitting a thermal round's VRFs across a Run's
// helper goroutines must be invisible in every reported number and every
// byte of state, and the helpers must not outlive the Run that started them.
// Both lower the chunk floor to 1, so every round of two or more full groups,
// and every smaller one of three or more VRFs, fans out, not only the ones
// heavy enough in production.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

const (
	fanVRFs   = 16 // two rounds of 8 at one active VRF per RFH: one recorded, one replayed
	fanActive = 1
)

// fanSmallVRFs are the VRF counts whose second round is smaller than two
// RACER groups: every back end has eight RFHs, so at one active VRF per RFH
// 8+n VRFs form a round of 8, which records, then a round of n, which
// replays (both interpret for a dynamic body): rounds of 3, 5 and 7.
var fanSmallVRFs = []int{8 + 3, 8 + 5, 8 + 7}

// fanSmallKernels run at fanSmallVRFs: straight-line bodies whose small
// round replays — MUL-heavy, masked by a branch, a stencil — and dynamic
// ones whose every round is interpreted, gcd's divisions being
// sim-dynamic's. Every kernel runs at rounds of 8; the subset keeps the
// race detector's run of the test within its CI budget.
var fanSmallKernels = []string{"vecmul", "relu", "conv2d3x3", "gcd", "ibert-sqrt"}

// fanConfig is the run every fan-out test makes of kernel k: one MPU whose
// first rounds hold two RACER groups or eight one-VRF ones, over vrfs VRFs.
func fanConfig(k *workloads.Kernel, spec *backends.Spec, mode machine.Mode, workers, vrfs int) workloads.RunConfig {
	return workloads.RunConfig{
		Spec: spec, Mode: mode, Seed: 1,
		TotalElements: spec.BaselineUnits * spec.Lanes * vrfs,
		MaxSimVRFs:    vrfs, ActiveVRFsOverride: fanActive, Workers: workers,
	}
}

// fanOutAll lowers the chunk floor to 1 and makes sure two goroutines can
// run at once, undoing both when the test ends.
func fanOutAll(t *testing.T) {
	t.Cleanup(machine.SetChunkFloor(1))
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// fanState is everything a run leaves to compare: its Stats JSON, every
// register of every VRF the kernel activates, and the snapshot bytes.
type fanState struct {
	stats, snap []byte
	regs        [][]uint64
}

func fanRun(t *testing.T, k *workloads.Kernel, spec *backends.Spec, mode machine.Mode, workers, vrfs int) fanState {
	t.Helper()
	cfg := fanConfig(k, spec, mode, workers, vrfs)
	m, err := machine.New(workloads.MachineConfigFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := workloads.RunOn(m, k, cfg)
	if err != nil {
		t.Fatalf("%s on %s/%s (workers %d): %v", k.Name, spec.Name, mode, workers, err)
	}
	return fanCollect(t, m, k, vrfs, res.Stats)
}

// fanCollect reads what a finished fan-out run of kernel k over vrfs VRFs on
// m leaves to compare.
func fanCollect(t *testing.T, m *machine.Machine, k *workloads.Kernel, vrfs int, st *machine.Stats) fanState {
	t.Helper()
	var s fanState
	var err error
	if s.stats, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	s.snap = m.Snapshot()
	_, addrs, err := workloads.BuildProgram(k, m.Spec(), vrfs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		for r := 0; r < isa.NumRegs; r++ {
			v, err := m.ReadVector(0, a, r)
			if err != nil {
				t.Fatal(err)
			}
			s.regs = append(s.regs, v)
		}
	}
	return s
}

// TestRoundFanOutParity runs every shipped kernel on each back end in both
// modes on one goroutine and on two, over rounds of 8, and fanSmallKernels
// over rounds of 3, 5 and 7 VRFs, and requires the same Stats JSON,
// registers and snapshot bytes.
func TestRoundFanOutParity(t *testing.T) {
	fanOutAll(t)
	specs := []*backends.Spec{backends.RACER(), backends.MIMDRAM(), backends.DualityCache(), backends.SIMDRAM()}
	var small []*workloads.Kernel
	for _, name := range fanSmallKernels {
		small = append(small, workloads.ByName(name))
	}
	for _, vrfs := range append([]int{fanVRFs}, fanSmallVRFs...) {
		kernels := small
		if vrfs == fanVRFs {
			kernels = workloads.All()
		}
		for _, spec := range specs {
			for _, mode := range []machine.Mode{machine.ModeMPU, machine.ModeBaseline} {
				for _, k := range kernels {
					name := fmt.Sprintf("%s/%s/%s/%dvrf", k.Name, spec.Name, mode, vrfs)
					seq := fanRun(t, k, spec, mode, 1, vrfs)
					par := fanRun(t, k, spec, mode, 2, vrfs)
					if !bytes.Equal(seq.stats, par.stats) {
						t.Errorf("%s: stats diverge between one goroutine and two:\nseq: %s\npar: %s", name, seq.stats, par.stats)
					}
					if !slices.EqualFunc(seq.regs, par.regs, slices.Equal[[]uint64]) {
						t.Errorf("%s: registers diverge between one goroutine and two", name)
					}
					if !bytes.Equal(seq.snap, par.snap) {
						t.Errorf("%s: snapshots diverge between one goroutine and two", name)
					}
				}
			}
		}
	}
}

// settled fails the test unless the goroutine count returns to base: the
// helpers have all returned by the time Run does, so this only waits out
// their last instructions.
func settled(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after Run, %d before", what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestFanOutHelperLifetime ends a fanned-out Run in each way a Run ends —
// finished, preempted between rounds, preempted between two body
// instructions, and failed — and requires the goroutine count to fall back
// to its value before the Run. With no spin, every helper parks whenever it
// finds no round on offer, so each of those Runs ends with helpers parked
// between rounds. The preempted run is also snapshotted, restored and
// resumed at every instruction boundary and must finish byte-identical to
// an undisturbed one.
func TestFanOutHelperLifetime(t *testing.T) {
	fanOutAll(t)
	t.Cleanup(machine.SetHelperSpins(0))
	spec := backends.RACER()
	k := workloads.ByName("vecmul")
	rc := fanConfig(k, spec, machine.ModeMPU, 2, fanVRFs)
	cfg := workloads.MachineConfigFor(rc)
	prepared := func() *machine.Machine {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workloads.PrepareOn(m, k, rc); err != nil {
			t.Fatal(err)
		}
		return m
	}

	base := runtime.NumGoroutine()
	ref := prepared()
	refStats, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	settled(t, "finished run", base)

	m := prepared()
	m.Preempt()
	if _, err := m.Run(); !errors.Is(err, machine.ErrPreempted) {
		t.Fatalf("preempted run: %v, want ErrPreempted", err)
	}
	settled(t, "preempted run", base)
	got, gotM := resumePreempted(t, "vecmul", m, cfg)
	settled(t, "resumed runs", base)
	requireSnapshotParity(t, "vecmul", refStats, got, ref, gotM)

	// gcd's rounds are interpreted: preempted once a helper has parked, the
	// run yields between two body instructions, or now and then at a round
	// boundary, which is resumed until a pause lands mid-round.
	g := workloads.ByName("gcd")
	grc := fanConfig(g, spec, machine.ModeMPU, 2, fanVRFs)
	gm, err := machine.New(workloads.MachineConfigFor(grc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.PrepareOn(gm, g, grc); err != nil {
		t.Fatal(err)
	}
	for tries := 0; !gm.PausedMidRound(); tries++ {
		if tries == 100 {
			t.Fatal("no preemption landed inside a round")
		}
		stop := make(chan struct{})
		go func() {
			for gm.ParkedHelpers() == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			gm.Preempt()
		}()
		_, err := gm.Run()
		close(stop)
		if !errors.Is(err, machine.ErrPreempted) {
			t.Fatalf("gcd run preempted once a helper parked: %v, want ErrPreempted", err)
		}
		settled(t, "run preempted with parked helpers", base)
	}
	if _, err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	settled(t, "finished run with parked helpers", base)

	// A body that multiplies on every VRF of the round, then returns with
	// no call pending: the round fans out, then faults.
	fault, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{}
	for rfh := 0; rfh < spec.RFHsPerMPU; rfh++ {
		prog = append(prog, isa.Instr{Op: isa.COMPUTE, A: uint8(rfh)})
	}
	prog = append(prog, isa.Mul(0, 1, 2), isa.Instr{Op: isa.RETURN}, isa.Instr{Op: isa.COMPUTEDONE})
	if err := fault.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Run(); !errors.Is(err, machine.ErrEnsembleFault) {
		t.Fatalf("faulting run: %v, want an ensemble fault", err)
	}
	settled(t, "failed run", base)
}

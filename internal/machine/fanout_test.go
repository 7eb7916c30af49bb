package machine_test

// Round fan-out's helpers must not outlive the Run that started them (that
// the split is invisible in every number and every byte of state is the
// matrix's workers2 row).

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

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
	racer := []*backends.Spec{spec}
	c := cells(racer, []int{matrixVRFs}, []string{"vecmul"})[0] // MPU mode
	a := arm{workers: 2}

	base := runtime.NumGoroutine()
	c.run(t, a)
	settled(t, "finished run", base)

	m, _ := c.prepare(t, a)
	m.Preempt()
	if _, err := m.Run(); !errors.Is(err, machine.ErrPreempted) {
		t.Fatalf("preempted run: %v, want ErrPreempted", err)
	}
	settled(t, "preempted run", base)
	got, gotM := resumePreempted(t, "vecmul", m, c.config(a))
	settled(t, "resumed runs", base)
	requireSame(t, "vecmul", c.ref(t, refEngine), c.collect(t, gotM, got, nil))

	// gcd's rounds are interpreted: preempted once a helper has parked, the
	// run yields between two body instructions, or now and then at a round
	// boundary, which is resumed until a pause lands mid-round.
	gm, _ := cells(racer, []int{matrixVRFs}, []string{"gcd"})[0].prepare(t, a)
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
	fault, err := machine.New(c.config(a))
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

package machine

// Expansion kernels are process-wide: one compiled kernel per (capability
// set, instruction, lane count), however many machines decode the
// instruction and however they race to.

import (
	"testing"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/vrf"
)

// decodeOn loads a one-instruction ensemble on a fresh machine, runs it, and
// returns the entry the core's decode cache holds for the instruction.
func decodeOn(t *testing.T, spec *backends.Spec, in isa.Instr) *expandEntry {
	t.Helper()
	m := newMachine(t, spec, ModeMPU, 1)
	if err := m.LoadAll(isa.Program{isa.Compute(0, 0), in, isa.ComputeDone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	e := m.mpus[0].decode[1]
	if e == nil || e.kern == nil {
		t.Fatalf("%s: run left no decoded kernel for %s", spec.Name, in.Op)
	}
	return e
}

func TestExpansionKernelSharedAcrossMachines(t *testing.T) {
	in := isa.Mul(41, 42, 43)
	a, b := decodeOn(t, backends.RACER(), in), decodeOn(t, backends.RACER(), in)
	if a.kern != b.kern {
		t.Errorf("two fresh machines hold different kernels for one instruction: %p and %p", a.kern, b.kern)
	}
	// A kernel is bound to its lane geometry and its recipe: same capability
	// set at another lane count, or same lane count under another set, is
	// another kernel.
	short := backends.RACER()
	short.Lanes = 48
	for _, spec := range []*backends.Spec{short, backends.MIMDRAM(), backends.SIMDRAM()} {
		if o := decodeOn(t, spec, in); o.kern == a.kern {
			t.Errorf("%s (%d lanes) shares RACER's 64-lane kernel", spec.Name, spec.Lanes)
		}
	}
	// The reference interpreter executes rops and compiles nothing.
	ref, err := New(Config{Spec: backends.RACER(), Mode: ModeMPU, NumMPUs: 1, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if e, err := ref.expand(in); err != nil || e.kern != nil || len(e.rops) == 0 {
		t.Errorf("NoTrace expand: entry %+v, err %v; want a stream and no kernel", e, err)
	}
}

// Eight machines decode one never-seen instruction at once; whichever
// publishes first, all must leave with its pointer. race-short runs this
// under the detector.
func TestExpandConcurrentOnePointer(t *testing.T) {
	const workers = 8
	in := isa.Mul(44, 45, 46)
	ms := make([]*Machine, workers)
	for i := range ms {
		ms[i] = newMachine(t, backends.RACER(), ModeMPU, 1)
	}
	start := make(chan struct{})
	got := make(chan *vrf.CompiledExec, workers) // one send per worker
	for _, m := range ms {
		m := m
		go func() {
			<-start
			e, err := m.expand(in)
			if err != nil {
				t.Error(err)
				got <- nil
				return
			}
			got <- e.kern
		}()
	}
	close(start)
	first := <-got
	for i := 1; i < workers; i++ {
		if k := <-got; k != first {
			t.Errorf("concurrent expands diverged: kernels %p and %p", first, k)
		}
	}
	if first == nil {
		t.Fatal("expand returned no kernel")
	}
}

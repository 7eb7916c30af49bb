package machine

// Decoded instructions are process-wide: one decode-table entry, and one
// kernel, per (capability set, lane count, instruction), however many
// machines decode the instruction and however they race to. A recorded trace
// holds those same kernels, so a replayed round runs what an interpreted one
// does.

import (
	"sync"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/recipe"
	"mpu/internal/trace"
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
	// The reference interpreter executes rops and compiles nothing: an
	// instruction only it has decoded has an entry with no kernel.
	ref, err := New(Config{Spec: backends.RACER(), Mode: ModeMPU, NumMPUs: 1, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadAll(isa.Program{isa.Compute(0, 0), isa.Mul(57, 58, 59), isa.ComputeDone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if e := ref.mpus[0].decode[1]; e == nil || e.kern != nil || len(e.rops) == 0 {
		t.Errorf("NoTrace run: entry %+v; want a stream and no kernel", e)
	}
}

// Eight machines decode one never-seen instruction at once; whichever
// publishes first, all must leave with its entry and its one kernel.
// race-short runs this under the detector.
func TestExpandConcurrentOnePointer(t *testing.T) {
	const workers = 8
	in := isa.Mul(44, 45, 46)
	ms := make([]*Machine, workers)
	for i := range ms {
		ms[i] = newMachine(t, backends.RACER(), ModeMPU, 1)
	}
	start := make(chan struct{})
	got := make(chan *expandEntry, workers) // one send per worker
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
			e.kernel()
			got <- e
		}()
	}
	close(start)
	first := <-got
	for i := 1; i < workers; i++ {
		if e := <-got; e != first {
			t.Errorf("concurrent expands diverged: entries %p and %p", first, e)
		}
	}
	if first == nil || first.kern == nil {
		t.Fatal("expand returned no kernel")
	}
}

// Eight goroutines decode, compile and look up one small instruction set on
// two back ends through a table that holds a few entries at a time, so
// inserts, lookups and flushes interleave. Every entry must be the stream
// and kernel its key names, whichever generation it came from. race-short
// runs this under the detector.
func TestDecodeTableHammer(t *testing.T) {
	defer SetDecodeBudgets(4<<10, 4<<10)()
	specs := []*backends.Spec{backends.RACER(), backends.DualityCache()}
	var ins []isa.Instr
	for r := 0; r < 8; r++ {
		ins = append(ins, isa.Inv(r, r+8), isa.LShift(r, r+16))
	}
	type key struct {
		spec string
		in   isa.Instr
	}
	want := map[key]int{} // resolved stream length
	for _, spec := range specs {
		for _, in := range ins {
			_, rops, err := recipe.ExpandResolved(spec.Caps, in)
			if err != nil {
				t.Fatal(err)
			}
			want[key{spec.Name, in}] = len(rops)
		}
	}
	before := DecodeTableStats().Flushes
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		ms := []*Machine{newMachine(t, specs[0], ModeMPU, 1), newMachine(t, specs[1], ModeMPU, 1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m, in := ms[(i+w)%2], ins[(i*7+w)%len(ins)]
				e, err := m.expand(in)
				if err != nil {
					t.Error(err)
					return
				}
				n := want[key{m.cfg.Spec.Name, in}]
				if len(e.rops) != n || (i%3 == 0 && e.kernel().Ops() != uint64(n)) {
					t.Errorf("%s on %s: entry of %d ops, want %d", in.Op, m.cfg.Spec.Name, len(e.rops), n)
					return
				}
				DecodeTableStats()
			}
		}()
	}
	wg.Wait()
	if st := DecodeTableStats(); st.Flushes == before || st.Bytes > 4<<10 {
		t.Errorf("table after the hammer: %+v (flushes before %d); want flushes and at most 4 KiB", st, before)
	}
}

// An SPMD body recorded on two cores of one machine at Workers 2, and on a
// second such machine, holds in every exec step the kernel pointer the
// instruction's decode entry holds: one kernel per instruction, process-wide,
// and no per-trace compilation. race-short runs this under the detector.
func TestTraceRunsInstructionKernels(t *testing.T) {
	src := `
		COMPUTE rfh0 vrf0
		COMPUTE rfh0 vrf1
		ADD r0 r1 r2
		XOR r2 r1 r3
		CMPGT r3 r0
		SETMASK cond
		SUB r3 r0 r4
		UNMASK
		COMPUTE_DONE
	`
	held := map[int]*vrf.CompiledExec{} // pc -> the first kernel seen there
	for mi := 0; mi < 2; mi++ {
		m, err := New(Config{Spec: backends.RACER(), Mode: ModeMPU, NumMPUs: 2, Workers: 2, ActiveVRFsOverride: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(mustAssemble(t, src)); err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.TraceMisses != 2 || st.TraceHits != 2 {
			t.Fatalf("machine %d: trace misses/hits = %d/%d, want 2/2 (one recorded and one replayed round per core)", mi, st.TraceMisses, st.TraceHits)
		}
		for ci, c := range m.mpus {
			var execs int
			for _, e := range c.traces.SnapshotEntries() {
				if e.Tr == nil {
					continue
				}
				for _, s := range e.Tr.Steps {
					if s.Kind != trace.StepExec {
						continue
					}
					execs++
					d := c.decode[s.PC]
					if d == nil || s.Kern == nil || s.Kern != d.kern {
						t.Fatalf("machine %d core %d pc %d: step kernel %p, decode entry %+v", mi, ci, s.PC, s.Kern, d)
					}
					if k, ok := held[s.PC]; ok && k != s.Kern {
						t.Errorf("machine %d core %d pc %d: kernel %p, another core holds %p", mi, ci, s.PC, s.Kern, k)
					}
					held[s.PC] = s.Kern
				}
			}
			if execs != 4 {
				t.Errorf("machine %d core %d: %d exec steps, want one per datapath instruction (4)", mi, ci, execs)
			}
		}
	}
}

package vrf

import (
	"fmt"
	"math/rand"
	"testing"

	"mpu/internal/micro"
)

// randResolved builds a random but well-formed resolved stream: every kind,
// destinations never a constant or the mask plane, FADD outputs distinct.
func randResolved(n int, rng *rand.Rand) []micro.ResolvedOp {
	kinds := []micro.Kind{
		micro.NOR, micro.AND, micro.OR, micro.XOR, micro.NOT, micro.COPY,
		micro.MAJ, micro.MUX, micro.FADD, micro.SET0, micro.SET1,
		micro.CONDWR, micro.MASKRD,
	}
	// Writable slots: register bits, scratch bits, temps, cond.
	writable := func() micro.Slot {
		return micro.Slot(rng.Intn(int(micro.SlotCond) + 1))
	}
	// Readable slots additionally include the constant planes.
	readable := func() micro.Slot {
		s := micro.Slot(rng.Intn(int(micro.SlotOne) + 1))
		return s
	}
	out := make([]micro.ResolvedOp, n)
	for i := range out {
		r := micro.ResolvedOp{
			Kind: kinds[rng.Intn(len(kinds))],
			Dst:  writable(), A: readable(), B: readable(), C: readable(),
		}
		if r.Kind == micro.FADD {
			r.Dst2 = writable()
			for r.Dst2 == r.Dst {
				r.Dst2 = writable()
			}
		}
		out[i] = r
	}
	return out
}

// maskMode selects the lane mask a parity case runs under.
type maskMode int

const (
	maskAll maskMode = iota
	maskPartial
	maskEmpty
)

func (m maskMode) String() string { return [...]string{"all", "partial", "empty"}[m] }

// tailOf is the valid-bit mask of a plane's last word.
func tailOf(lanes int) uint64 {
	if n := lanes % 64; n != 0 {
		return uint64(1)<<uint(n) - 1
	}
	return ^uint64(0)
}

// randomize fills every plane of the directory with random lane bits (tail
// bits zero, as every writer leaves them) and restores the constant planes
// and the chosen mask.
func randomize(v *VRF, rng *rand.Rand, mode maskMode) {
	tail := tailOf(v.lanes)
	for i := range v.words {
		v.words[i] = rng.Uint64()
		if i%v.wpl == v.wpl-1 {
			v.words[i] &= tail
		}
	}
	v.zero.Fill(false)
	v.one.Fill(true)
	switch mode {
	case maskAll:
		v.mask.Fill(true)
	case maskEmpty:
		v.mask.Fill(false)
	}
}

// requireZeroTails asserts the directory invariant every word kernel relies
// on: no plane holds a bit at or beyond the lane count.
func requireZeroTails(t *testing.T, name string, v *VRF) {
	t.Helper()
	tail := tailOf(v.lanes)
	for s := 0; s < micro.NumSlots; s++ {
		if w := v.words[(s+1)*v.wpl-1]; w&^tail != 0 {
			t.Fatalf("%s: slot %d has tail bits set: %#x", name, s, w)
		}
	}
}

// One storage, one result: at every lane geometry — a single lane, ragged
// below, at and above one word, and SIMDRAM's four words — random streams
// over all 13 micro-op kinds must leave the resolved executor and the
// compiled replay kernel bit-identical to the plane reference executor
// (Exec over bitvec.Plane), under all-ones, partial and empty masks, with
// identical MicroOps and every tail bit still zero.
func TestCompiledExecMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, lanes := range []int{1, 48, 63, 64, 65, 100, 256} {
		for _, mode := range []maskMode{maskAll, maskPartial, maskEmpty} {
			name := fmt.Sprintf("lanes%d/%s", lanes, mode)
			seen := map[micro.Kind]bool{}
			for trial := 0; trial < 20; trial++ {
				rs := randResolved(1+rng.Intn(60), rng)
				ops := make([]micro.Op, len(rs))
				for i, r := range rs {
					ops[i] = r.Op()
					seen[r.Kind] = true
				}
				c := CompileResolved(rs, lanes)
				if c == nil {
					t.Fatalf("%s: CompileResolved declined a well-formed stream", name)
				}
				if c.Ops() != uint64(len(rs)) {
					t.Fatalf("%s: Ops() = %d, want %d", name, c.Ops(), len(rs))
				}
				ref, interp, compiled := New(lanes), New(lanes), New(lanes)
				seed := rng.Int63()
				for _, v := range []*VRF{ref, interp, compiled} {
					randomize(v, rand.New(rand.NewSource(seed)), mode)
				}

				ref.ExecAll(ops)
				interp.ExecAllResolved(rs)
				compiled.RunCompiled(c)

				for _, got := range []struct {
					engine string
					v      *VRF
				}{{"resolved", interp}, {"compiled", compiled}} {
					if got.v.MicroOps != ref.MicroOps {
						t.Fatalf("%s: %s MicroOps %d, reference %d", name, got.engine, got.v.MicroOps, ref.MicroOps)
					}
					for w := range ref.words {
						if ref.words[w] != got.v.words[w] {
							t.Fatalf("%s trial %d: word %d (slot %d): reference=%#x %s=%#x",
								name, trial, w, w/ref.wpl, ref.words[w], got.engine, got.v.words[w])
						}
					}
					requireZeroTails(t, name+"/"+got.engine, got.v)
				}
			}
			if len(seen) != micro.NumKinds {
				t.Fatalf("%s: streams covered %d of %d micro-op kinds", name, len(seen), micro.NumKinds)
			}
		}
	}
}

// An unknown micro-op kind is the only thing the compiler declines.
func TestCompileResolvedUnknownKind(t *testing.T) {
	rs := []micro.ResolvedOp{{Kind: micro.Kind(micro.NumKinds)}}
	for _, lanes := range []int{48, 64, 256} {
		if CompileResolved(rs, lanes) != nil {
			t.Errorf("lanes=%d: compiled a stream with an unknown micro-op kind", lanes)
		}
	}
}

// A compiled stream must never allocate during execution — the replay hot
// loop runs millions of times per simulation.
func TestRunCompiledDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lanes := range []int{48, 64, 256} {
		rs := randResolved(64, rng)
		c := CompileResolved(rs, lanes)
		v := New(lanes)
		randomize(v, rng, maskPartial)
		if n := testing.AllocsPerRun(100, func() { v.RunCompiled(c) }); n != 0 {
			t.Errorf("lanes=%d: RunCompiled allocates %v times per run", lanes, n)
		}
	}
}

func TestRunCompiledLaneMismatchPanics(t *testing.T) {
	c := CompileResolved(randResolved(2, rand.New(rand.NewSource(9))), 64)
	v := New(128)
	defer func() {
		if recover() == nil {
			t.Error("no panic executing a 64-lane stream on a 128-lane VRF")
		}
	}()
	v.RunCompiled(c)
}

package vrf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpu/internal/micro"
)

// allKinds is every micro-op kind; racerKindSet is the subset RACER's
// recipes emit, the streams that take the group bodies.
var (
	allKinds = []micro.Kind{
		micro.NOR, micro.AND, micro.OR, micro.XOR, micro.NOT, micro.COPY,
		micro.MAJ, micro.MUX, micro.FADD, micro.SET0, micro.SET1,
		micro.CONDWR, micro.MASKRD,
	}
	racerKindSet = []micro.Kind{micro.NOR, micro.COPY, micro.SET0, micro.SET1, micro.CONDWR}
)

// randResolved builds a random but well-formed resolved stream over every
// kind.
func randResolved(n int, rng *rand.Rand) []micro.ResolvedOp {
	return randStream(n, allKinds, rng)
}

// randStream builds a random but well-formed resolved stream over the given
// kinds: destinations never a constant or the mask plane, FADD outputs
// distinct.
func randStream(n int, kinds []micro.Kind, rng *rand.Rand) []micro.ResolvedOp {
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
// must leave the resolved executor and the compiled kernels bit-identical to
// the plane reference executor (Exec over bitvec.Plane) run on each VRF
// alone, with identical MicroOps and every tail bit still zero. The compiled
// side runs a whole round through RunCompiledGroups: RACER-kind streams in
// groups of min(4, remaining) while two VRFs remain — rounds of 1 to 9 run a
// 2- and a 3-wide group alone and behind a group of four (6 = 4+2, 7 =
// 4+3), and a lone last VRF (5, 9) — all-kind streams one VRF at a time.
// Every VRF has its own state; even trials run every VRF under an all-ones
// mask (the group bodies' unmasked loops), odd trials cycle all-ones,
// partial and empty masks across the VRFs of one group. A second, fresh
// round runs the same stream under the same masks and must Recycle to what
// New leaves.
func TestCompiledExecMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, lanes := range []int{1, 48, 63, 64, 65, 100, 256} {
		want := New(lanes)
		for _, kinds := range [][]micro.Kind{allKinds, racerKindSet} {
			for n := 1; n <= 9; n++ {
				name := fmt.Sprintf("lanes%d/kinds%d/vrfs%d", lanes, len(kinds), n)
				seen := map[micro.Kind]bool{}
				for trial := 0; trial < 12; trial++ {
					rs := randStream(1+rng.Intn(60), kinds, rng)
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
					refs, interps, compiled, fresh := make([]*VRF, n), make([]*VRF, n), make([]*VRF, n), make([]*VRF, n)
					for i := range refs {
						mode := maskAll
						if trial%2 == 1 {
							mode = maskMode((i + trial) % 3)
						}
						refs[i], interps[i], compiled[i], fresh[i] = New(lanes), New(lanes), New(lanes), New(lanes)
						seed := rng.Int63()
						for _, v := range []*VRF{refs[i], interps[i], compiled[i]} {
							randomize(v, rand.New(rand.NewSource(seed)), mode)
						}
						copy(fresh[i].span(micro.SlotMask), refs[i].span(micro.SlotMask))
						refs[i].ExecAll(ops)
						interps[i].ExecAllResolved(rs)
					}
					RunCompiledGroups(c, compiled)
					RunCompiledGroups(c, fresh)

					for i, ref := range refs {
						for _, got := range []struct {
							engine string
							v      *VRF
						}{{"resolved", interps[i]}, {"compiled", compiled[i]}} {
							if got.v.MicroOps != ref.MicroOps {
								t.Fatalf("%s vrf %d: %s MicroOps %d, reference %d", name, i, got.engine, got.v.MicroOps, ref.MicroOps)
							}
							for w := range ref.words {
								if ref.words[w] != got.v.words[w] {
									t.Fatalf("%s trial %d vrf %d: word %d (slot %d): reference=%#x %s=%#x",
										name, trial, i, w, w/ref.wpl, ref.words[w], got.engine, got.v.words[w])
								}
							}
							requireZeroTails(t, name+"/"+got.engine, got.v)
						}
						f := fresh[i]
						if f.MicroOps != ref.MicroOps {
							t.Fatalf("%s vrf %d: fresh round MicroOps %d, reference %d", name, i, f.MicroOps, ref.MicroOps)
						}
						f.Recycle()
						if !slices.Equal(f.words, want.words) || f.dirty != 0 || f.MicroOps != 0 {
							t.Fatalf("%s trial %d vrf %d: recycled VRF differs from New (touched %v)", name, trial, i, f.TouchedRegs())
						}
					}
				}
				if len(seen) != len(kinds) {
					t.Fatalf("%s: streams covered %d of %d micro-op kinds", name, len(seen), len(kinds))
				}
			}
		}
	}
}

// Exactly the RACER-kind streams at one word per plane get group bodies.
func TestCompileResolvedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	racer, mixed := randStream(40, racerKindSet, rng), randResolved(40, rng)
	for _, tc := range []struct {
		rs      []micro.ResolvedOp
		lanes   int
		grouped bool
	}{{racer, 1, true}, {racer, 64, true}, {racer, 65, false}, {racer, 256, false}, {mixed, 64, false}, {nil, 64, false}} {
		if got := CompileResolved(tc.rs, tc.lanes).g64 != nil; got != tc.grouped {
			t.Errorf("%d ops at lanes %d: grouped = %v, want %v", len(tc.rs), tc.lanes, got, tc.grouped)
		}
	}
}

// Two rounds on one process-wide kernel at once: the group scratch lives on
// each caller's stack, so concurrent rounds (cores on scheduler goroutines,
// requests on server workers) neither race nor see each other's VRFs. Each
// round is seven VRFs, a group of four and one of three. Run under -race by
// make race-short.
func TestRunCompiledGroupsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := CompileResolved(randStream(200, racerKindSet, rng), 64)
	newSet := func(seed int64) []*VRF {
		vs := make([]*VRF, 7)
		for i := range vs {
			vs[i] = New(64)
			randomize(vs[i], rand.New(rand.NewSource(seed+int64(i))), maskMode(i%3))
		}
		return vs
	}
	const reps = 200
	var got, ref [2][]*VRF
	var wg sync.WaitGroup
	start := make(chan struct{}) // both rounds begin together, so they overlap
	for g := range got {
		got[g], ref[g] = newSet(int64(100*g)), newSet(int64(100*g))
		wg.Add(1)
		go func(vs []*VRF) {
			defer wg.Done()
			<-start
			for r := 0; r < reps; r++ {
				RunCompiledGroups(c, vs)
			}
		}(got[g])
	}
	close(start)
	wg.Wait()
	for g := range ref {
		for r := 0; r < reps; r++ {
			RunCompiledGroups(c, ref[g])
		}
		for i := range ref[g] {
			if !slices.Equal(got[g][i].words, ref[g][i].words) || got[g][i].MicroOps != ref[g][i].MicroOps {
				t.Fatalf("goroutine %d vrf %d: concurrent round differs from the serial one", g, i)
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
// loop runs millions of times per simulation — on one VRF or grouped over a
// round of two, three or eight.
func TestRunCompiledDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lanes := range []int{48, 64, 256} {
		for _, kinds := range [][]micro.Kind{allKinds, racerKindSet} {
			c := CompileResolved(randStream(64, kinds, rng), lanes)
			vs := make([]*VRF, 8)
			for i := range vs {
				vs[i] = New(lanes)
				randomize(vs[i], rng, maskMode(i%3))
			}
			if n := testing.AllocsPerRun(100, func() { vs[0].RunCompiled(c) }); n != 0 {
				t.Errorf("lanes=%d kinds=%d: RunCompiled allocates %v times per run", lanes, len(kinds), n)
			}
			for _, round := range []int{2, 3, 8} {
				if n := testing.AllocsPerRun(100, func() { RunCompiledGroups(c, vs[:round]) }); n != 0 {
					t.Errorf("lanes=%d kinds=%d: RunCompiledGroups allocates %v times per round of %d", lanes, len(kinds), n, round)
				}
			}
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

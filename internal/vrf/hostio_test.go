package vrf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mpu/internal/micro"
	"mpu/internal/snap"
)

// hostLanes are the geometries the host I/O paths are pinned at: one lane,
// a ragged single word, one full word, a ragged second word, a ragged
// fourth word and SIMDRAM's four full words.
var hostLanes = []int{1, 48, 64, 65, 200, 256}

func randVals(n int, rng *rand.Rand) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	return vals
}

func requireSameWords(t *testing.T, name string, ref, got *VRF) {
	t.Helper()
	for w := range ref.words {
		if ref.words[w] != got.words[w] {
			t.Fatalf("%s: word %d (slot %d): reference %#x, got %#x",
				name, w, w/ref.wpl, ref.words[w], got.words[w])
		}
	}
}

func encoded(v *VRF) []byte {
	w := snap.NewWriter()
	v.EncodeState(w)
	return w.Finish()
}

// WriteReg and ReadReg move a register a 64×64 tile at a time; WriteWord and
// ReadWord, one bit at a time through the plane views, are the reference.
// The register starts full of ones in every lane, so a short write must zero
// the lanes it does not cover, and the whole directory is compared, so a
// store outside the register or into a plane tail fails too. The encoded
// result must pass DecodeState's ghost-lane check.
func TestWriteReadRegMatchesWordPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, lanes := range hostLanes {
		for _, n := range []int{0, 1, lanes - 1, lanes} {
			for _, r := range []int{0, 31, 63} {
				name := fmt.Sprintf("lanes%d/len%d/r%d", lanes, n, r)
				vals := randVals(n, rng)
				ref, got := New(lanes), New(lanes)
				for l := 0; l < lanes; l++ {
					ref.WriteWord(r, l, ^uint64(0))
					got.WriteWord(r, l, ^uint64(0))
				}

				got.WriteReg(r, vals)
				for l := 0; l < lanes; l++ {
					var x uint64
					if l < n {
						x = vals[l]
					}
					ref.WriteWord(r, l, x)
				}
				requireSameWords(t, name, ref, got)
				requireZeroTails(t, name, got)

				read := got.ReadReg(r)
				if len(read) != lanes {
					t.Fatalf("%s: ReadReg returned %d lanes", name, len(read))
				}
				for l, x := range read {
					if want := ref.ReadWord(r, l); x != want {
						t.Fatalf("%s: ReadReg lane %d = %#x, ReadWord %#x", name, l, x, want)
					}
				}

				rd, err := snap.NewReader(encoded(got))
				if err != nil {
					t.Fatal(err)
				}
				if err := New(lanes).DecodeState(rd); err != nil {
					t.Fatalf("%s: DecodeState refused a WriteReg result: %v", name, err)
				}
			}
		}
	}
}

// CopyRegister is one copy of the register's span; 64 plane copies are the
// reference. The destination VRF is random beforehand and compared whole.
func TestCopyRegisterMatchesPlanePath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, lanes := range []int{1, 48, 64, 65, 256} {
		for _, rr := range [][2]int{{0, 0}, {2, 9}, {63, 1}} {
			src, dst := rr[0], rr[1]
			name := fmt.Sprintf("lanes%d/r%d->r%d", lanes, src, dst)
			from, ref, got := New(lanes), New(lanes), New(lanes)
			randomize(from, rng, maskPartial)
			seed := rng.Int63()
			randomize(ref, rand.New(rand.NewSource(seed)), maskPartial)
			randomize(got, rand.New(rand.NewSource(seed)), maskPartial)

			fp, tp := from.regPlanes(src), ref.regPlanes(dst)
			for b := range tp {
				tp[b].CopyFrom(fp[b])
			}
			CopyRegister(from, src, got, dst)

			requireSameWords(t, name, ref, got)
			if got.dirty&(1<<uint(dst)) == 0 {
				t.Fatalf("%s: destination not marked dirty", name)
			}
		}
		// Within one VRF, onto itself and onto a neighbour.
		v := New(lanes)
		vals := randVals(lanes, rng)
		v.WriteReg(4, vals)
		CopyRegister(v, 4, v, 4)
		CopyRegister(v, 4, v, 5)
		for l, x := range v.ReadReg(5) {
			if x != vals[l] || v.ReadWord(4, l) != vals[l] {
				t.Fatalf("lanes%d: in-VRF copy lane %d = %#x, want %#x", lanes, l, x, vals[l])
			}
		}
	}
}

// Recycle must leave exactly what New leaves, whichever writer filled the
// directory. Each writer runs alone on a new VRF, so a register it writes
// and fails to mark dirty has nothing else to mark it: the random streams
// turn the all-zero directory into ones (NOR, NOT, SET1, MASKRD), which
// would then survive into the encoding.
func TestRecycleMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	streams := func() [][]micro.ResolvedOp {
		out := make([][]micro.ResolvedOp, 6)
		for i := range out {
			out[i] = randResolved(1+rng.Intn(80), rng)
		}
		return out
	}
	writers := []struct {
		name string
		fill func(v *VRF)
	}{
		{"WriteReg", func(v *VRF) {
			v.WriteReg(0, randVals(v.lanes, rng))
			v.WriteReg(63, randVals(v.lanes/2, rng))
		}},
		{"WriteWord", func(v *VRF) { v.WriteWord(17, v.lanes-1, ^uint64(0)) }},
		{"ExecAll", func(v *VRF) {
			for _, rs := range streams() {
				for _, r := range rs {
					v.Exec(r.Op())
				}
			}
		}},
		{"ExecAllResolved", func(v *VRF) {
			for _, rs := range streams() {
				v.ExecAllResolved(rs)
			}
		}},
		{"RunCompiled", func(v *VRF) {
			for _, rs := range streams() {
				v.RunCompiled(CompileResolved(rs, v.lanes))
			}
		}},
		{"GetMaskInto", func(v *VRF) { v.GetMaskInto(33) }},
		{"mask", func(v *VRF) {
			v.Exec(micro.Op{Kind: micro.CONDWR, A: micro.Zero()})
			v.SetMaskFromCond() // every lane off: New leaves them on
		}},
		{"CopyRegister", func(v *VRF) {
			from := New(v.lanes)
			from.WriteReg(1, randVals(v.lanes, rng))
			CopyRegister(from, 1, v, 40)
		}},
		{"DecodeState", func(v *VRF) {
			src := New(v.lanes)
			randomize(src, rng, maskPartial)
			src.MicroOps = 99
			rd, err := snap.NewReader(encoded(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := v.DecodeState(rd); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, lanes := range hostLanes {
		want := encoded(New(lanes))
		for _, w := range writers {
			name := fmt.Sprintf("lanes%d/%s", lanes, w.name)
			v := New(lanes)
			w.fill(v)
			if bytes.Equal(encoded(v), want) {
				t.Fatalf("%s: writer left no mark to recycle", name)
			}
			v.Recycle()
			if !bytes.Equal(encoded(v), want) {
				t.Fatalf("%s: recycled VRF encodes differently from New (touched %v)", name, v.TouchedRegs())
			}
			if len(v.TouchedRegs()) != 0 || v.MicroOps != 0 {
				t.Fatalf("%s: after Recycle touched=%v MicroOps=%d", name, v.TouchedRegs(), v.MicroOps)
			}
		}
	}
}

// A compiled stream's dirty set is exactly the registers its destinations
// name (plus r0 wherever an op leaves Dst2 unused).
func TestCompiledDirtySet(t *testing.T) {
	rs := micro.Resolve([]micro.Op{
		{Kind: micro.XOR, Dst: micro.Reg(7, 3), A: micro.Reg(1, 0), B: micro.Reg(2, 0)},
		{Kind: micro.FADD, Dst: micro.Temp(0), Dst2: micro.Reg(40, 63), A: micro.One(), B: micro.One(), C: micro.Zero()},
		{Kind: micro.SET1, Dst: micro.Scratch(2, 1)},
	})
	for _, lanes := range []int{64, 256} {
		v := New(lanes)
		v.RunCompiled(CompileResolved(rs, lanes))
		got := v.TouchedRegs()
		want := []int{0, 7, 40}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("lanes%d: TouchedRegs = %v, want %v", lanes, got, want)
		}
	}
}

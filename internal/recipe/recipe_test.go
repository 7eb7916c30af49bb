package recipe

import (
	"math/rand"
	"testing"

	"mpu/internal/isa"
	"mpu/internal/micro"
	"mpu/internal/vrf"
)

// The three capability sets of the evaluated back ends (§IV, §II-C).
var capSets = map[string]micro.CapabilitySet{
	// RACER: NOR-complete in-ReRAM logic.
	"racer": micro.NewCapabilitySet(micro.NOR),
	// MIMDRAM: TRA majority plus NOT (dual-contact cells), AND/OR presets.
	"mimdram": micro.NewCapabilitySet(micro.MAJ, micro.NOT, micro.AND, micro.OR),
	// Duality Cache: bitline logic plus single-cycle CMOS full adders.
	"dcache": micro.NewCapabilitySet(micro.AND, micro.OR, micro.XOR, micro.NOT, micro.FADD, micro.MUX),
}

const testLanes = 67 // deliberately crosses a word boundary

// run executes instruction in on fresh VRF state with the given register
// preloads, returning the VRF for inspection.
func run(t *testing.T, caps micro.CapabilitySet, in isa.Instr, regs map[int][]uint64) *vrf.VRF {
	t.Helper()
	v := vrf.New(testLanes)
	for r, vals := range regs {
		v.WriteReg(r, vals)
	}
	ops, err := Expand(caps, in)
	if err != nil {
		t.Fatalf("Expand(%s): %v", in.Op, err)
	}
	v.ExecAll(ops)
	return v
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0: // small values exercise carry chains near zero
			out[i] = uint64(rng.Intn(16))
		case 1: // values near the sign boundary
			out[i] = uint64(int64(-1 - rng.Intn(16)))
		default:
			out[i] = rng.Uint64()
		}
	}
	return out
}

// checkBinary runs a 3-operand instruction against a scalar reference on all
// capability sets.
func checkBinary(t *testing.T, mk func(rs, rt, rd int) isa.Instr, ref func(a, b uint64) uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	a, b := randWords(rng, testLanes), randWords(rng, testLanes)
	for name, caps := range capSets {
		v := run(t, caps, mk(0, 1, 2), map[int][]uint64{0: a, 1: b})
		got := v.ReadReg(2)
		for l := range a {
			if want := ref(a[l], b[l]); got[l] != want {
				t.Fatalf("%s lane %d: %s(%#x, %#x) = %#x, want %#x",
					name, l, mk(0, 1, 2).Op, a[l], b[l], got[l], want)
			}
		}
	}
}

func TestAdd(t *testing.T) {
	checkBinary(t, isa.Add, func(a, b uint64) uint64 { return a + b })
}

func TestSub(t *testing.T) {
	checkBinary(t, isa.Sub, func(a, b uint64) uint64 { return a - b })
}

func TestMul(t *testing.T) {
	checkBinary(t, isa.Mul, func(a, b uint64) uint64 { return a * b })
}

func TestBooleans(t *testing.T) {
	checkBinary(t, isa.And, func(a, b uint64) uint64 { return a & b })
	checkBinary(t, isa.OrI, func(a, b uint64) uint64 { return a | b })
	checkBinary(t, isa.Xor, func(a, b uint64) uint64 { return a ^ b })
	checkBinary(t, isa.Nand, func(a, b uint64) uint64 { return ^(a & b) })
	checkBinary(t, isa.Nor, func(a, b uint64) uint64 { return ^(a | b) })
	checkBinary(t, isa.Xnor, func(a, b uint64) uint64 { return ^(a ^ b) })
}

func TestMaxMin(t *testing.T) {
	checkBinary(t, isa.MaxI, func(a, b uint64) uint64 {
		if int64(a) >= int64(b) {
			return a
		}
		return b
	})
	checkBinary(t, isa.MinI, func(a, b uint64) uint64 {
		if int64(a) <= int64(b) {
			return a
		}
		return b
	})
}

func TestDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randWords(rng, testLanes), randWords(rng, testLanes)
	b[3] = 0 // exercise the divide-by-zero path
	b[4] = 1
	a[5], b[5] = 17, 5
	quoRef := func(n, d uint64) uint64 {
		if d == 0 {
			return ^uint64(0)
		}
		return n / d
	}
	remRef := func(n, d uint64) uint64 {
		if d == 0 {
			return n
		}
		return n % d
	}
	for name, caps := range capSets {
		v := run(t, caps, isa.QDiv(0, 1, 2), map[int][]uint64{0: a, 1: b})
		for l, got := range v.ReadReg(2) {
			if want := quoRef(a[l], b[l]); got != want {
				t.Fatalf("%s QDIV lane %d: %d/%d = %d, want %d", name, l, a[l], b[l], got, want)
			}
		}
		v = run(t, caps, isa.RDiv(0, 1, 2), map[int][]uint64{0: a, 1: b})
		for l, got := range v.ReadReg(2) {
			if want := remRef(a[l], b[l]); got != want {
				t.Fatalf("%s RDIV lane %d: %d%%%d = %d, want %d", name, l, a[l], b[l], got, want)
			}
		}
		v = run(t, caps, isa.QRDiv(0, 1, 2), map[int][]uint64{0: a, 1: b})
		quo, rem := v.ReadReg(2), v.ReadReg(1)
		for l := range a {
			if quo[l] != quoRef(a[l], b[l]) || rem[l] != remRef(a[l], b[l]) {
				t.Fatalf("%s QRDIV lane %d: got q=%d r=%d, want q=%d r=%d",
					name, l, quo[l], rem[l], quoRef(a[l], b[l]), remRef(a[l], b[l]))
			}
		}
	}
}

func TestMac(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b, acc := randWords(rng, testLanes), randWords(rng, testLanes), randWords(rng, testLanes)
	for name, caps := range capSets {
		v := run(t, caps, isa.Mac(0, 1, 2), map[int][]uint64{0: a, 1: b, 2: acc})
		for l, got := range v.ReadReg(2) {
			if want := acc[l] + a[l]*b[l]; got != want {
				t.Fatalf("%s MAC lane %d: got %#x, want %#x", name, l, got, want)
			}
		}
	}
}

func TestUnaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randWords(rng, testLanes)
	unary := []struct {
		mk  func(rs, rd int) isa.Instr
		ref func(a uint64) uint64
	}{
		{isa.Inc, func(a uint64) uint64 { return a + 1 }},
		{isa.Inv, func(a uint64) uint64 { return ^a }},
		{isa.Mov, func(a uint64) uint64 { return a }},
		{isa.LShift, func(a uint64) uint64 { return a << 1 }},
		{isa.Relu, func(a uint64) uint64 {
			if int64(a) < 0 {
				return 0
			}
			return a
		}},
		{isa.Popc, func(a uint64) uint64 {
			n := uint64(0)
			for x := a; x != 0; x >>= 1 {
				n += x & 1
			}
			return n
		}},
		{isa.BFlip, func(a uint64) uint64 {
			var r uint64
			for i := 0; i < 64; i++ {
				if a>>uint(i)&1 == 1 {
					r |= 1 << uint(63-i)
				}
			}
			return r
		}},
	}
	for name, caps := range capSets {
		for _, u := range unary {
			in := u.mk(0, 2)
			v := run(t, caps, in, map[int][]uint64{0: a})
			for l, got := range v.ReadReg(2) {
				if want := u.ref(a[l]); got != want {
					t.Fatalf("%s %s lane %d: f(%#x) = %#x, want %#x", name, in.Op, l, a[l], got, want)
				}
			}
		}
	}
}

func TestInit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	junk := randWords(rng, testLanes)
	for name, caps := range capSets {
		v := run(t, caps, isa.Init0(2), map[int][]uint64{2: junk})
		for l, got := range v.ReadReg(2) {
			if got != 0 {
				t.Fatalf("%s INIT0 lane %d = %#x", name, l, got)
			}
		}
		v = run(t, caps, isa.Init1(2), map[int][]uint64{2: junk})
		for l, got := range v.ReadReg(2) {
			if got != 1 {
				t.Fatalf("%s INIT1 lane %d = %#x", name, l, got)
			}
		}
	}
}

func TestCompares(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b := randWords(rng, testLanes), randWords(rng, testLanes)
	// Force some equal lanes and sign-boundary pairs.
	copy(b[:8], a[:8])
	a[10], b[10] = ^uint64(4), 3 // -5 vs 3
	a[11], b[11] = 3, ^uint64(4)
	a[12], b[12] = 0x8000000000000000, 0x7fffffffffffffff // INT_MIN vs INT_MAX
	cases := []struct {
		in  isa.Instr
		ref func(a, b uint64) bool
	}{
		{isa.CmpEq(0, 1), func(a, b uint64) bool { return a == b }},
		{isa.CmpLt(0, 1), func(a, b uint64) bool { return int64(a) < int64(b) }},
		{isa.CmpGt(0, 1), func(a, b uint64) bool { return int64(a) > int64(b) }},
	}
	for name, caps := range capSets {
		for _, c := range cases {
			v := run(t, caps, c.in, map[int][]uint64{0: a, 1: b})
			cond := v.CondBits()
			for l := range a {
				if want := c.ref(a[l], b[l]); cond[l] != want {
					t.Fatalf("%s %s lane %d: cmp(%#x,%#x) = %v, want %v",
						name, c.in.Op, l, a[l], b[l], cond[l], want)
				}
			}
		}
	}
}

func TestFuzzy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randWords(rng, testLanes)
	b := make([]uint64, testLanes)
	m := make([]uint64, testLanes)
	for l := range a {
		m[l] = rng.Uint64() & 0x00ff00ff00ff00ff
		// b differs from a only in don't-care positions for even lanes.
		if l%2 == 0 {
			b[l] = a[l] ^ (rng.Uint64() & m[l])
		} else {
			b[l] = a[l] ^ 1<<uint(rng.Intn(8)*8) // differs in a cared-about bit
			m[l] &^= 0xff                        // ensure low byte is cared about
			b[l] = a[l] ^ 1                      // low bit differs
		}
	}
	for name, caps := range capSets {
		v := run(t, caps, isa.Fuzzy(0, 1, 2), map[int][]uint64{0: a, 1: b, 2: m})
		cond := v.CondBits()
		for l := range a {
			want := (a[l]^b[l])&^m[l] == 0
			if cond[l] != want {
				t.Fatalf("%s FUZZY lane %d: got %v, want %v", name, l, cond[l], want)
			}
		}
	}
}

func TestCas(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := randWords(rng, testLanes), randWords(rng, testLanes)
	for name, caps := range capSets {
		v := run(t, caps, isa.Cas(0, 1), map[int][]uint64{0: a, 1: b})
		lo, hi := v.ReadReg(0), v.ReadReg(1)
		for l := range a {
			wantLo, wantHi := a[l], b[l]
			if int64(a[l]) > int64(b[l]) {
				wantLo, wantHi = b[l], a[l]
			}
			if lo[l] != wantLo || hi[l] != wantHi {
				t.Fatalf("%s CAS lane %d: got (%d,%d), want (%d,%d)",
					name, l, int64(lo[l]), int64(hi[l]), int64(wantLo), int64(wantHi))
			}
		}
	}
}

func TestMux(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, b := randWords(rng, testLanes), randWords(rng, testLanes)
	sel := make([]uint64, testLanes)
	for l := range sel {
		sel[l] = uint64(rng.Intn(2))
	}
	for name, caps := range capSets {
		v := run(t, caps, isa.MuxI(0, 1, 2), map[int][]uint64{0: a, 1: b, 2: sel})
		for l, got := range v.ReadReg(2) {
			want := b[l]
			if sel[l]&1 == 1 {
				want = a[l]
			}
			if got != want {
				t.Fatalf("%s MUX lane %d: got %#x, want %#x", name, l, got, want)
			}
		}
	}
}

// TestAliasing verifies recipes tolerate rd aliasing rs/rt.
func TestAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a, b := randWords(rng, testLanes), randWords(rng, testLanes)
	for name, caps := range capSets {
		// rd == rs
		v := run(t, caps, isa.Add(0, 1, 0), map[int][]uint64{0: a, 1: b})
		for l, got := range v.ReadReg(0) {
			if want := a[l] + b[l]; got != want {
				t.Fatalf("%s ADD rd=rs lane %d: got %#x want %#x", name, l, got, want)
			}
		}
		// rd == rt
		v = run(t, caps, isa.Sub(0, 1, 1), map[int][]uint64{0: a, 1: b})
		for l, got := range v.ReadReg(1) {
			if want := a[l] - b[l]; got != want {
				t.Fatalf("%s SUB rd=rt lane %d: got %#x want %#x", name, l, got, want)
			}
		}
		// rs == rt == rd (doubling)
		v = run(t, caps, isa.Add(0, 0, 0), map[int][]uint64{0: a})
		for l, got := range v.ReadReg(0) {
			if want := a[l] + a[l]; got != want {
				t.Fatalf("%s ADD all-alias lane %d: got %#x want %#x", name, l, got, want)
			}
		}
		// In-place unary ops
		v = run(t, caps, isa.LShift(0, 0), map[int][]uint64{0: a})
		for l, got := range v.ReadReg(0) {
			if want := a[l] << 1; got != want {
				t.Fatalf("%s LSHIFT in-place lane %d: got %#x want %#x", name, l, got, want)
			}
		}
		v = run(t, caps, isa.BFlip(0, 0), map[int][]uint64{0: a})
		_ = v
	}
}

// TestMaskedLanesUntouched verifies predication: recipes leave disabled
// lanes' destination registers intact.
func TestMaskedLanesUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b, old := randWords(rng, testLanes), randWords(rng, testLanes), randWords(rng, testLanes)
	for name, caps := range capSets {
		v := vrf.New(testLanes)
		v.WriteReg(0, a)
		v.WriteReg(1, b)
		v.WriteReg(2, old)
		// Enable only even lanes via a register-sourced mask.
		maskVals := make([]uint64, testLanes)
		for l := range maskVals {
			if l%2 == 0 {
				maskVals[l] = 1
			}
		}
		v.WriteReg(3, maskVals)
		v.SetMaskFromReg(3)
		ops, err := Expand(caps, isa.Add(0, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		v.ExecAll(ops)
		got := v.ReadReg(2)
		for l := range got {
			want := old[l]
			if l%2 == 0 {
				want = a[l] + b[l]
			}
			if got[l] != want {
				t.Fatalf("%s lane %d (mask=%v): got %#x, want %#x", name, l, l%2 == 0, got[l], want)
			}
		}
	}
}

// TestComparesClearDisabledCond: a comparison must leave cond=0 for disabled
// lanes so stale conditions can never re-enable a lane through SETMASK.
func TestComparesClearDisabledCond(t *testing.T) {
	for name, caps := range capSets {
		v := vrf.New(testLanes)
		eqVals := make([]uint64, testLanes) // all lanes equal → cond would be 1
		v.WriteReg(0, eqVals)
		v.WriteReg(1, eqVals)
		maskVals := make([]uint64, testLanes)
		maskVals[0] = 1 // only lane 0 enabled
		v.WriteReg(3, maskVals)
		v.SetMaskFromReg(3)
		ops, _ := Expand(caps, isa.CmpEq(0, 1))
		v.ExecAll(ops)
		cond := v.CondBits()
		if !cond[0] {
			t.Fatalf("%s: enabled lane cond = false, want true", name)
		}
		for l := 1; l < testLanes; l++ {
			if cond[l] {
				t.Fatalf("%s: disabled lane %d cond = true, want false", name, l)
			}
		}
	}
}

func TestExpandRejectsNonDatapath(t *testing.T) {
	for _, in := range []isa.Instr{isa.Nop(), isa.Compute(0, 0), isa.Jump(0), isa.Memcpy(0, 0, 0, 0), isa.Sync()} {
		if _, err := Expand(capSets["racer"], in); err == nil {
			t.Errorf("Expand accepted %s", in.Op)
		}
	}
}

func TestIsDatapathOp(t *testing.T) {
	if !IsDatapathOp(isa.ADD) || !IsDatapathOp(isa.MOV) || !IsDatapathOp(isa.CMPEQ) {
		t.Error("datapath ops misclassified")
	}
	if IsDatapathOp(isa.MEMCPY) || IsDatapathOp(isa.JUMP) || IsDatapathOp(isa.COMPUTE) {
		t.Error("non-datapath ops misclassified")
	}
}

// TestExpansionScale pins the qualitative claim of §VI-B: a single
// instruction expands to hundreds or thousands of micro-ops, and richer
// capability sets shrink the expansion.
func TestExpansionScale(t *testing.T) {
	add := isa.Add(0, 1, 2)
	racer := opCount(capSets["racer"], add)
	mimdram := opCount(capSets["mimdram"], add)
	dcache := opCount(capSets["dcache"], add)
	if racer < 500 {
		t.Errorf("NOR-only ADD = %d micro-ops; expected hundreds", racer)
	}
	if !(dcache < mimdram && mimdram < racer) {
		t.Errorf("expected dcache(%d) < mimdram(%d) < racer(%d)", dcache, mimdram, racer)
	}
	if dcache > 3*64 {
		t.Errorf("adder-augmented ADD = %d micro-ops; expected ~2/bit", dcache)
	}
	mul := opCount(capSets["racer"], isa.Mul(0, 1, 2))
	if mul < 10000 {
		t.Errorf("NOR-only MUL = %d micro-ops; expected tens of thousands", mul)
	}
}

func TestCostOfNonDatapathIsZero(t *testing.T) {
	if got := opCount(capSets["racer"], isa.Nop()); got != 0 {
		t.Errorf("NOP expands to %d micro-ops", got)
	}
}

func BenchmarkExpandAddRACER(b *testing.B) {
	in := isa.Add(0, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Expand(capSets["racer"], in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecAddRACER(b *testing.B) {
	ops, err := Expand(capSets["racer"], isa.Add(0, 1, 2))
	if err != nil {
		b.Fatal(err)
	}
	v := vrf.New(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ExecAll(ops)
	}
}

package recipe

import (
	"testing"

	"mpu/internal/isa"
	"mpu/internal/micro"
)

// TestRecipeCostGolden pins the micro-op counts of every datapath
// instruction on each capability set. These are the I2M expansion factors
// the timing model is built on — an unintended recipe change shows up here
// before it silently skews every experiment. Update deliberately.
func TestRecipeCostGolden(t *testing.T) {
	type row struct {
		in                     isa.Instr
		racer, mimdram, dcache int
	}
	rows := []row{
		{isa.Add(0, 1, 2), 1345, 769, 129},
		{isa.Sub(0, 1, 2), 1409, 833, 193},
		{isa.Inc(0, 2), 577, 449, 193},
		{isa.Init0(2), 64, 64, 64},
		{isa.Init1(2), 64, 64, 64},
		{isa.Mov(0, 2), 64, 64, 64},
		{isa.And(0, 1, 2), 192, 64, 64},
		{isa.OrI(0, 1, 2), 128, 64, 64},
		{isa.Xor(0, 1, 2), 320, 320, 64},
		{isa.Nand(0, 1, 2), 256, 128, 128},
		{isa.Nor(0, 1, 2), 64, 128, 128},
		{isa.Xnor(0, 1, 2), 384, 384, 128},
		{isa.Inv(0, 2), 64, 64, 64},
		{isa.BFlip(0, 2), 128, 128, 128},
		{isa.LShift(0, 2), 64, 64, 64},
		{isa.Relu(0, 2), 193, 65, 65},
		{isa.CmpEq(0, 1), 451, 387, 131},
		{isa.CmpLt(0, 1), 720, 151, 324},
		{isa.CmpGt(0, 1), 720, 151, 324},
		{isa.MaxI(0, 1, 2), 1295, 406, 387},
		{isa.MinI(0, 1, 2), 1295, 406, 387},
		{isa.MuxI(0, 1, 2), 577, 257, 65},
	}
	for _, r := range rows {
		got := [3]int{
			opCount(capSets["racer"], r.in),
			opCount(capSets["mimdram"], r.in),
			opCount(capSets["dcache"], r.in),
		}
		want := [3]int{r.racer, r.mimdram, r.dcache}
		if got != want {
			t.Errorf("%s: costs = %v, want %v", r.in.Op, got, want)
		}
	}
}

// TestHeavyRecipeCostBounds sanity-bounds the big expansions rather than
// pinning them exactly (their structure is more likely to be tuned).
func TestHeavyRecipeCostBounds(t *testing.T) {
	bounds := []struct {
		in       isa.Instr
		caps     string
		min, max int
	}{
		{isa.Mul(0, 1, 2), "racer", 30_000, 80_000},
		{isa.Mul(0, 1, 2), "dcache", 4_000, 15_000},
		{isa.QDiv(0, 1, 2), "racer", 60_000, 200_000},
		{isa.QDiv(0, 1, 2), "dcache", 10_000, 80_000},
		{isa.Popc(0, 2), "racer", 800, 2_000},
		{isa.Popc(0, 2), "dcache", 100, 300},
		{isa.Mac(0, 1, 2), "racer", 30_000, 90_000},
		{isa.Cas(0, 1), "racer", 1_000, 4_000},
		{isa.Fuzzy(0, 1, 2), "racer", 500, 1_500},
	}
	for _, b := range bounds {
		got := opCount(capSets[b.caps], b.in)
		if got < b.min || got > b.max {
			t.Errorf("%s on %s: %d micro-ops outside [%d,%d]", b.in.Op, b.caps, got, b.min, b.max)
		}
	}
}

// TestCostsDeterministic: identical expansion on repeated calls.
func TestCostsDeterministic(t *testing.T) {
	for _, in := range []isa.Instr{isa.Add(3, 4, 5), isa.QDiv(1, 2, 3), isa.Popc(0, 1)} {
		a, _ := Expand(capSets["racer"], in)
		b, _ := Expand(capSets["racer"], in)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic length", in.Op)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic op at %d", in.Op, i)
			}
		}
	}
}

// opCount is the micro-op count of in's recipe under caps, 0 when in has
// none.
func opCount(caps micro.CapabilitySet, in isa.Instr) int {
	ops, _ := Expand(caps, in)
	return len(ops)
}

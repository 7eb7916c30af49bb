package trace

import (
	"math/rand"
	"testing"

	"mpu/internal/micro"
	"mpu/internal/vrf"
)

// bodyStep is one instruction of a test body: a datapath instruction's
// resolved expansion, or a mask step's kind and register.
type bodyStep struct {
	kind StepKind
	arg  uint8
	ops  []micro.ResolvedOp
}

func slot(reg, bit int) micro.Slot { return micro.Slot(reg*micro.SlotWordBits + bit) }

// mixedBody has exec and mask steps over real register slots, with kinds
// outside RACER's.
func mixedBody() []bodyStep {
	return []bodyStep{
		{ops: []micro.ResolvedOp{
			{Kind: micro.XOR, Dst: slot(2, 0), A: slot(0, 0), B: slot(1, 0)},
			{Kind: micro.XOR, Dst: slot(2, 1), A: slot(0, 1), B: slot(1, 1)},
		}},
		{ops: []micro.ResolvedOp{
			{Kind: micro.AND, Dst: slot(3, 0), A: slot(0, 0), B: slot(1, 0)},
			{Kind: micro.CONDWR, A: slot(3, 0)},
		}},
		{kind: StepSetMaskCond},
		{ops: []micro.ResolvedOp{
			{Kind: micro.SET1, Dst: slot(4, 0)},
			{Kind: micro.MASKRD, Dst: slot(5, 0)},
		}},
		{kind: StepUnmask},
		{kind: StepGetMask, arg: 6},
		{kind: StepSetMaskReg, arg: 6},
	}
}

// racerBody is mixedBody over RACER's kinds only: the mask steps give each
// VRF of a round its own mask.
func racerBody() []bodyStep {
	return []bodyStep{
		{ops: []micro.ResolvedOp{
			{Kind: micro.NOR, Dst: slot(2, 0), A: slot(0, 0), B: slot(1, 0)},
			{Kind: micro.NOR, Dst: slot(2, 1), A: slot(2, 0), B: slot(1, 1)},
			{Kind: micro.CONDWR, A: slot(2, 1)},
		}},
		{kind: StepSetMaskCond},
		{ops: []micro.ResolvedOp{
			{Kind: micro.COPY, Dst: slot(3, 0), A: slot(2, 0)},
			{Kind: micro.SET1, Dst: slot(4, 0)},
		}},
		{ops: []micro.ResolvedOp{
			{Kind: micro.SET0, Dst: slot(4, 1)},
			{Kind: micro.NOR, Dst: slot(5, 0), A: slot(3, 0), B: slot(0, 1)},
		}},
		{kind: StepGetMask, arg: 6},
		{kind: StepUnmask},
	}
}

// record runs body through a Recorder, compiling each datapath
// instruction's kernel for the given lane count as the machine's decode
// does; the instruction's index in body is its pc.
func record(t *testing.T, body []bodyStep, lanes int) *Trace {
	t.Helper()
	r := NewRecorder()
	for pc, s := range body {
		if s.ops == nil {
			r.Mask(s.kind, s.arg)
			continue
		}
		k := vrf.CompileResolved(s.ops, lanes)
		if k == nil {
			t.Fatalf("lanes=%d: CompileResolved declined instruction %d", lanes, pc)
		}
		r.Exec(pc, k, 1, 0)
	}
	tr := r.Finish(len(body))
	if tr == nil {
		t.Fatal("recording aborted")
	}
	return tr
}

// interpretSteps is the reference a replay must match: each instruction
// applied directly, expansions through the resolved executor.
func interpretSteps(body []bodyStep, v *vrf.VRF) {
	for _, s := range body {
		switch {
		case s.ops != nil:
			v.ExecAllResolved(s.ops)
		case s.kind == StepSetMaskCond:
			v.SetMaskFromCond()
		case s.kind == StepSetMaskReg:
			v.SetMaskFromReg(int(s.arg))
		case s.kind == StepUnmask:
			v.Unmask()
		case s.kind == StepGetMask:
			v.GetMaskInto(int(s.arg))
		}
	}
}

// A replay over a round of seven VRFs — a group of four, one of two and a
// lone VRF at one word per plane, whatever the body's kinds — leaves each
// VRF as the step interpreter leaves it run alone.
func TestTraceRunMatchesStepInterpreter(t *testing.T) {
	const round = 7
	for name, body := range map[string][]bodyStep{"mixed": mixedBody(), "racer": racerBody()} {
		for _, lanes := range []int{48, 64, 65, 256} {
			tr := record(t, body, lanes)
			wantWidth := 1
			if lanes <= 64 {
				wantWidth = 4
			}
			if tr.Width() != wantWidth {
				t.Fatalf("%s lanes=%d: Width() = %d, want %d", name, lanes, tr.Width(), wantWidth)
			}
			var vis, vjs []*vrf.VRF
			for i := 0; i < round; i++ {
				vi, vj := vrf.New(lanes), vrf.New(lanes)
				for _, v := range []*vrf.VRF{vi, vj} {
					r := rand.New(rand.NewSource(99 + int64(i)))
					for reg := 0; reg <= 6; reg++ {
						vals := make([]uint64, lanes)
						for l := range vals {
							vals[l] = r.Uint64()
						}
						v.WriteReg(reg, vals)
					}
				}
				interpretSteps(body, vi)
				vis, vjs = append(vis, vi), append(vjs, vj)
			}
			tr.Run(vjs)
			for i, vi := range vis {
				vj := vjs[i]
				if vi.MicroOps != vj.MicroOps || vj.MicroOps != tr.MicroOpsPerVRF {
					t.Fatalf("%s lanes=%d vrf %d: MicroOps %d vs %d, trace charges %d", name, lanes, i, vi.MicroOps, vj.MicroOps, tr.MicroOpsPerVRF)
				}
				for reg := 0; reg <= 6; reg++ {
					a, b := vi.ReadReg(reg), vj.ReadReg(reg)
					for l := range a {
						if a[l] != b[l] {
							t.Fatalf("%s lanes=%d vrf %d: r%d lane %d: interp=%#x replay=%#x", name, lanes, i, reg, l, a[l], b[l])
						}
					}
				}
				am, bm := vi.MaskBits(), vj.MaskBits()
				ac, bc := vi.CondBits(), vj.CondBits()
				for l := 0; l < lanes; l++ {
					if am[l] != bm[l] || ac[l] != bc[l] {
						t.Fatalf("%s lanes=%d vrf %d: mask/cond diverge at lane %d", name, lanes, i, l)
					}
				}
			}
		}
	}
}

// Replay is the simulator's hot loop: one replayed round must not
// allocate, with one VRF or with a grouped round of eight.
func TestTraceRunDoesNotAllocate(t *testing.T) {
	for _, body := range [][]bodyStep{mixedBody(), racerBody()} {
		for _, lanes := range []int{48, 64, 256} {
			tr := record(t, body, lanes)
			for _, n := range []int{1, 8} {
				vs := make([]*vrf.VRF, n)
				for i := range vs {
					vs[i] = vrf.New(lanes)
				}
				if a := testing.AllocsPerRun(100, func() { tr.Run(vs) }); a != 0 {
					t.Errorf("lanes=%d vrfs=%d: Trace.Run allocates %v times per replay", lanes, n, a)
				}
			}
		}
	}
}

package trace

import (
	"math/rand"
	"testing"

	"mpu/internal/micro"
	"mpu/internal/vrf"
)

// jitBody builds a trace with exec and mask steps over real register slots.
func jitBody() *Trace {
	slot := func(reg, bit int) micro.Slot { return micro.Slot(reg*micro.SlotWordBits + bit) }
	return &Trace{
		Steps: []Step{
			{Kind: StepExec, Ops: []micro.ResolvedOp{
				{Kind: micro.XOR, Dst: slot(2, 0), A: slot(0, 0), B: slot(1, 0)},
				{Kind: micro.XOR, Dst: slot(2, 1), A: slot(0, 1), B: slot(1, 1)},
				{Kind: micro.AND, Dst: slot(3, 0), A: slot(0, 0), B: slot(1, 0)},
				{Kind: micro.CONDWR, A: slot(3, 0)},
			}},
			{Kind: StepSetMaskCond},
			{Kind: StepExec, Ops: []micro.ResolvedOp{
				{Kind: micro.SET1, Dst: slot(4, 0)},
				{Kind: micro.MASKRD, Dst: slot(5, 0)},
			}},
			{Kind: StepUnmask},
			{Kind: StepGetMask, Arg: 6},
			{Kind: StepSetMaskReg, Arg: 6},
		},
		MicroOpsPerVRF: 6,
	}
}

// interpretSteps is the reference the compiled Prog must match: each step
// applied directly, exec streams through the resolved executor.
func interpretSteps(tr *Trace, v *vrf.VRF) {
	for i := range tr.Steps {
		s := &tr.Steps[i]
		switch s.Kind {
		case StepExec:
			v.ExecAllResolved(s.Ops)
		case StepSetMaskCond:
			v.SetMaskFromCond()
		case StepSetMaskReg:
			v.SetMaskFromReg(int(s.Arg))
		case StepUnmask:
			v.Unmask()
		case StepGetMask:
			v.GetMaskInto(int(s.Arg))
		}
	}
}

// racerBody is jitBody over RACER's kinds only, so its exec steps take the
// group bodies: the mask steps give each VRF of a round its own mask.
func racerBody() *Trace {
	slot := func(reg, bit int) micro.Slot { return micro.Slot(reg*micro.SlotWordBits + bit) }
	return &Trace{
		Steps: []Step{
			{Kind: StepExec, Ops: []micro.ResolvedOp{
				{Kind: micro.NOR, Dst: slot(2, 0), A: slot(0, 0), B: slot(1, 0)},
				{Kind: micro.NOR, Dst: slot(2, 1), A: slot(2, 0), B: slot(1, 1)},
				{Kind: micro.CONDWR, A: slot(2, 1)},
			}},
			{Kind: StepSetMaskCond},
			{Kind: StepExec, Ops: []micro.ResolvedOp{
				{Kind: micro.COPY, Dst: slot(3, 0), A: slot(2, 0)},
				{Kind: micro.SET1, Dst: slot(4, 0)},
				{Kind: micro.SET0, Dst: slot(4, 1)},
				{Kind: micro.NOR, Dst: slot(5, 0), A: slot(3, 0), B: slot(0, 1)},
			}},
			{Kind: StepGetMask, Arg: 6},
			{Kind: StepUnmask},
		},
		MicroOpsPerVRF: 7,
	}
}

// A compiled Prog over a round of seven VRFs — a group of four and a group
// of three on RACER-kind bodies — leaves each VRF as the step interpreter
// leaves it run alone.
func TestCompileJITMatchesStepInterpreter(t *testing.T) {
	const round = 7
	for name, tr := range map[string]*Trace{"mixed": jitBody(), "racer": racerBody()} {
		for _, lanes := range []int{48, 64, 65, 256} {
			p := CompileJIT(tr, lanes)
			if p == nil {
				t.Fatalf("%s lanes=%d: CompileJIT declined a straight-line body", name, lanes)
			}
			if p.Ops() != tr.MicroOpsPerVRF {
				t.Fatalf("%s lanes=%d: Prog.Ops() = %d, want %d", name, lanes, p.Ops(), tr.MicroOpsPerVRF)
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
				interpretSteps(tr, vi)
				vis, vjs = append(vis, vi), append(vjs, vj)
			}
			p.Run(vjs)
			for i, vi := range vis {
				vj := vjs[i]
				if vi.MicroOps != vj.MicroOps {
					t.Fatalf("%s lanes=%d vrf %d: MicroOps %d vs %d", name, lanes, i, vi.MicroOps, vj.MicroOps)
				}
				for reg := 0; reg <= 6; reg++ {
					a, b := vi.ReadReg(reg), vj.ReadReg(reg)
					for l := range a {
						if a[l] != b[l] {
							t.Fatalf("%s lanes=%d vrf %d: r%d lane %d: interp=%#x jit=%#x", name, lanes, i, reg, l, a[l], b[l])
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

// Lane geometry never declines; only a stream no Recorder produces does.
func TestCompileJITMalformedStream(t *testing.T) {
	bad := &Trace{Steps: []Step{{Kind: StepExec, Ops: []micro.ResolvedOp{{Kind: 200}}}}}
	if CompileJIT(bad, 64) != nil || CompileJIT(bad, 256) != nil {
		t.Error("compiled an unknown micro-op kind")
	}
	if CompileJIT(&Trace{Steps: []Step{{Kind: StepGetMask + 1}}}, 64) != nil {
		t.Error("compiled an unknown step kind")
	}
}

// Replay is the simulator's hot loop: one compiled round must not allocate,
// with one VRF or with a grouped round of eight.
func TestProgRunDoesNotAllocate(t *testing.T) {
	for _, tr := range []*Trace{jitBody(), racerBody()} {
		for _, lanes := range []int{48, 64, 256} {
			p := CompileJIT(tr, lanes)
			for _, n := range []int{1, 8} {
				vs := make([]*vrf.VRF, n)
				for i := range vs {
					vs[i] = vrf.New(lanes)
				}
				if a := testing.AllocsPerRun(100, func() { p.Run(vs) }); a != 0 {
					t.Errorf("lanes=%d vrfs=%d: Prog.Run allocates %v times per replay", lanes, n, a)
				}
			}
		}
	}
}

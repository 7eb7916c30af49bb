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

func TestCompileJITMatchesStepInterpreter(t *testing.T) {
	tr := jitBody()
	for _, lanes := range []int{48, 64, 65, 256} {
		p := CompileJIT(tr, lanes)
		if p == nil {
			t.Fatalf("lanes=%d: CompileJIT declined a straight-line body", lanes)
		}
		if p.Ops() != tr.MicroOpsPerVRF {
			t.Fatalf("lanes=%d: Prog.Ops() = %d, want %d", lanes, p.Ops(), tr.MicroOpsPerVRF)
		}
		vi, vj := vrf.New(lanes), vrf.New(lanes)
		for _, v := range []*vrf.VRF{vi, vj} {
			r := rand.New(rand.NewSource(99))
			for reg := 0; reg <= 6; reg++ {
				vals := make([]uint64, lanes)
				for l := range vals {
					vals[l] = r.Uint64()
				}
				v.WriteReg(reg, vals)
			}
		}
		interpretSteps(tr, vi)
		p.Run(vj)
		if vi.MicroOps != vj.MicroOps {
			t.Fatalf("lanes=%d: MicroOps %d vs %d", lanes, vi.MicroOps, vj.MicroOps)
		}
		for reg := 0; reg <= 6; reg++ {
			a, b := vi.ReadReg(reg), vj.ReadReg(reg)
			for l := range a {
				if a[l] != b[l] {
					t.Fatalf("lanes=%d: r%d lane %d: interp=%#x jit=%#x", lanes, reg, l, a[l], b[l])
				}
			}
		}
		am, bm := vi.MaskBits(), vj.MaskBits()
		ac, bc := vi.CondBits(), vj.CondBits()
		for l := 0; l < lanes; l++ {
			if am[l] != bm[l] || ac[l] != bc[l] {
				t.Fatalf("lanes=%d: mask/cond diverge at lane %d", lanes, l)
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

// Replay is the simulator's hot loop: one compiled round must not allocate.
func TestProgRunDoesNotAllocate(t *testing.T) {
	tr := jitBody()
	for _, lanes := range []int{48, 64, 256} {
		p := CompileJIT(tr, lanes)
		v := vrf.New(lanes)
		if n := testing.AllocsPerRun(100, func() { p.Run(v) }); n != 0 {
			t.Errorf("lanes=%d: Prog.Run allocates %v times per replay", lanes, n)
		}
	}
}

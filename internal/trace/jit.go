package trace

import "mpu/internal/vrf"

// JIT compilation: on a recorded Trace's first replayed round the machine
// lowers the step stream once into a Prog — a flat chain of closures with
// everything the interpreter resolves per instruction (recipe expansions,
// operand directory indices, plane aliasing) pre-bound at compile time.
// StepExec streams become vrf.CompiledExec kernels — the fused closure
// chain at one word per plane, the slab-kernel loop above that — and mask
// steps become direct method calls. Replaying a round is then a tight loop
// of direct calls with zero allocation.
//
// Every lane geometry compiles, so the Prog is the only replay engine: it
// touches the same words the interpreter would, in the same order, under
// the same mask.

// Prog is a JIT-compiled body: the closure chain that replays Steps.
type Prog struct {
	steps []func(v *vrf.VRF)
	ops   uint64 // total micro-ops per execution, across all exec steps
}

// CompileJIT lowers a compiled trace for VRFs of the given lane count. It
// returns nil only for a stream no Recorder produces: an unknown step kind
// or an unknown micro-op kind.
func CompileJIT(t *Trace, lanes int) *Prog {
	t.Flatten()
	p := &Prog{steps: make([]func(v *vrf.VRF), 0, len(t.Steps))}
	for i := range t.Steps {
		s := &t.Steps[i]
		switch s.Kind {
		case StepExec:
			c := vrf.CompileResolved(s.Ops, lanes)
			if c == nil {
				return nil
			}
			p.ops += c.Ops()
			p.steps = append(p.steps, func(v *vrf.VRF) { v.RunCompiled(c) })
		case StepSetMaskCond:
			p.steps = append(p.steps, (*vrf.VRF).SetMaskFromCond)
		case StepSetMaskReg:
			r := int(s.Arg)
			p.steps = append(p.steps, func(v *vrf.VRF) { v.SetMaskFromReg(r) })
		case StepUnmask:
			p.steps = append(p.steps, (*vrf.VRF).Unmask)
		case StepGetMask:
			r := int(s.Arg)
			p.steps = append(p.steps, func(v *vrf.VRF) { v.GetMaskInto(r) })
		default:
			return nil
		}
	}
	return p
}

// Run applies the compiled body to one activated VRF.
func (p *Prog) Run(v *vrf.VRF) {
	for _, s := range p.steps {
		s(v)
	}
}

// Ops reports the micro-ops one execution simulates (accounting
// cross-check; equals the trace's MicroOpsPerVRF).
func (p *Prog) Ops() uint64 { return p.ops }

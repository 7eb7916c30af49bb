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
// A round runs micro-op-major within groups: a body whose streams have
// group bodies replays up to four VRFs at a time — a round of three as one
// group of three, one of six as four then two — each step applied to the
// whole group before the next (exec steps through vrf.RunCompiledGroups,
// mask steps in a loop). Any other body replays one VRF at a time, so a
// wide round's directories are each walked once while in cache. Every lane
// geometry compiles, so the Prog is the only replay engine: on each VRF it
// touches the same words the interpreter would, in the same order, under
// the same mask.

// Prog is a JIT-compiled body: the closure chain that replays Steps over
// one round's activated VRFs.
type Prog struct {
	steps []func(vs []*vrf.VRF)
	ops   uint64 // total micro-ops per VRF per execution, across all exec steps
	width int    // VRFs replayed together: the widest exec step's group width
}

// CompileJIT lowers a compiled trace for VRFs of the given lane count. It
// returns nil only for a stream no Recorder produces: an unknown step kind
// or an unknown micro-op kind.
func CompileJIT(t *Trace, lanes int) *Prog {
	t.Flatten()
	p := &Prog{steps: make([]func(vs []*vrf.VRF), 0, len(t.Steps)), width: 1}
	for i := range t.Steps {
		s := &t.Steps[i]
		r := int(s.Arg)
		var each func(v *vrf.VRF)
		switch s.Kind {
		case StepExec:
			c := vrf.CompileResolved(s.Ops, lanes)
			if c == nil {
				return nil
			}
			p.ops += c.Ops()
			p.width = max(p.width, c.GroupWidth())
			p.steps = append(p.steps, func(vs []*vrf.VRF) { vrf.RunCompiledGroups(c, vs) })
			continue
		case StepSetMaskCond:
			each = (*vrf.VRF).SetMaskFromCond
		case StepSetMaskReg:
			each = func(v *vrf.VRF) { v.SetMaskFromReg(r) }
		case StepUnmask:
			each = (*vrf.VRF).Unmask
		case StepGetMask:
			each = func(v *vrf.VRF) { v.GetMaskInto(r) }
		default:
			return nil
		}
		p.steps = append(p.steps, func(vs []*vrf.VRF) {
			for _, v := range vs {
				each(v)
			}
		})
	}
	return p
}

// Run applies the compiled body to one round's activated VRFs, which must
// be distinct: a group of the Prog's width at a time, and a remainder
// smaller than that together.
func (p *Prog) Run(vs []*vrf.VRF) {
	for len(vs) > 0 {
		n := min(p.width, len(vs))
		for _, s := range p.steps {
			s(vs[:n])
		}
		vs = vs[n:]
	}
}

// Width reports how many VRFs Run advances together: the widest exec
// step's group width.
func (p *Prog) Width() int { return p.width }

// Ops reports the micro-ops one execution simulates (accounting
// cross-check; equals the trace's MicroOpsPerVRF).
func (p *Prog) Ops() uint64 { return p.ops }

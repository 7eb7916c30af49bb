package recipe

import (
	"testing"

	"mpu/internal/micro"
	"mpu/internal/vrf"
)

// Each gate's span computes what its native op computes: on every capability
// set (SIMDRAM's too), for all eight combinations of three source bits (one per lane), with
// the destination distinct from the sources and aliasing each in turn (a
// full adder's outputs never alias its inputs), running the gate's
// decomposition leaves its destinations as running the op its span records.
// A gate the datapath runs natively emits one micro-op and records no span.
func TestGateHostOps(t *testing.T) {
	a, b, c := micro.Reg(0, 0), micro.Reg(1, 0), micro.Reg(2, 0)
	d, d2 := micro.Reg(3, 0), micro.Reg(4, 0)
	gates := []struct {
		name   string
		srcs   int
		aliasN int // how many sources the destination may alias
		emit   func(e *expander, d micro.Ref)
	}{
		{"not", 1, 1, func(e *expander, d micro.Ref) { e.gNot(d, a) }},
		{"and", 2, 2, func(e *expander, d micro.Ref) { e.gAnd(d, a, b) }},
		{"or", 2, 2, func(e *expander, d micro.Ref) { e.gOr(d, a, b) }},
		{"nor", 2, 2, func(e *expander, d micro.Ref) { e.gNor(d, a, b) }},
		{"xor", 2, 2, func(e *expander, d micro.Ref) { e.gXor(d, a, b) }},
		{"maj", 3, 3, func(e *expander, d micro.Ref) { e.gMaj(d, a, b, c) }},
		{"mux", 3, 3, func(e *expander, d micro.Ref) { e.gMux(d, a, b, c) }},
		{"fadd", 3, 0, func(e *expander, d micro.Ref) { e.gFullAdd(d, d2, a, b, c) }},
	}
	sets := map[string]micro.CapabilitySet{"simdram": micro.NewCapabilitySet(micro.MAJ, micro.NOT)}
	for name, caps := range capSets {
		sets[name] = caps
	}
	for name, caps := range sets {
		for _, g := range gates {
			for _, dst := range append([]micro.Ref{d}, []micro.Ref{a, b, c}[:g.aliasN]...) {
				e := newExpander(caps)
				e.spans = []span{}
				g.emit(e, dst)
				ops := e.finish()
				if len(ops) == 1 && len(e.spans) == 0 {
					continue // a native gate: its micro-op is its own host op
				}
				if len(e.spans) == 0 || e.spans[0].start != 0 || int(e.spans[0].end) != len(ops) {
					t.Fatalf("%s %s: spans %v do not open with the gate's whole emission of %d ops", name, g.name, e.spans, len(ops))
				}
				decomposed, native := vrf.New(8), vrf.New(8)
				for _, v := range []*vrf.VRF{decomposed, native} {
					for src := 0; src < 3; src++ {
						bits := make([]uint64, 8)
						for l := range bits {
							bits[l] = uint64(l>>src) & 1
						}
						v.WriteReg(src, bits)
					}
				}
				decomposed.ExecAll(ops)
				native.Exec(e.spans[0].op)
				for r := 0; r <= 4; r++ {
					want, got := decomposed.ReadReg(r), native.ReadReg(r)
					for l := range want {
						if want[l]&1 != got[l]&1 {
							t.Errorf("%s %s into %v: r%d lane %d (a=%d b=%d c=%d): decomposition %d, native %s %d",
								name, g.name, dst, r, l, l&1, l>>1&1, l>>2&1, want[l]&1, e.spans[0].op.Kind, got[l]&1)
						}
					}
				}
			}
		}
	}
}

// Package recipe implements the content of the MPU's instruction-to-micro-op
// (I2M) decoder: for every arithmetic, comparison, Boolean, and data-movement
// instruction in the MPU ISA it produces the datapath-specific micro-op
// sequence ("recipe", §VI-B) that computes the instruction bit-serially on a
// vector register file.
//
// A recipe is generated against a micro.CapabilitySet. Gates the datapath
// lacks are decomposed into supported primitives: a NOR-complete datapath
// (RACER) builds XOR from five NORs, a TRA datapath (MIMDRAM) builds carry
// chains from single majority activations, and an adder-augmented datapath
// (Duality Cache) collapses a whole full adder into one micro-op.
package recipe

import (
	"fmt"

	"mpu/internal/micro"
)

// expander accumulates micro-ops and manages the per-VRF temp-plane pool.
// When spans is non-nil (ExpandHost) it also records every gate call.
type expander struct {
	caps  micro.CapabilitySet
	ops   []micro.Op
	spans []span
	free  []micro.Ref
	high  int // high-water mark of simultaneously live temps
	live  int
}

// span is one gate call: the micro-ops [start, end) it emitted, and op, the
// one native micro-op that computes the same destinations. Spans are kept in
// the order their calls began, so a span's children follow it.
type span struct {
	start, end int32
	op         micro.Op
}

// open begins the span of a gate call, if the expander records spans; the
// gate closes it with its native op when it returns (defer e.close(e.open(),
// op)).
func (e *expander) open() int {
	if e.spans == nil {
		return -1
	}
	e.spans = append(e.spans, span{start: int32(len(e.ops))})
	return len(e.spans) - 1
}

// close ends span i. A span of one micro-op has no children and nothing to
// collapse, so it is dropped: it is the last one recorded.
func (e *expander) close(i int, op micro.Op) {
	switch {
	case i < 0:
	case int32(len(e.ops)) == e.spans[i].start+1:
		e.spans = e.spans[:i]
	default:
		e.spans[i].end, e.spans[i].op = int32(len(e.ops)), op
	}
}

func newExpander(caps micro.CapabilitySet) *expander {
	e := &expander{caps: caps}
	for t := micro.NumTempPlanes - 1; t >= 0; t-- {
		e.free = append(e.free, micro.Temp(t))
	}
	return e
}

// alloc takes a free temp plane; recipes are written so the pool never
// exhausts (the high-water mark is asserted in tests).
func (e *expander) alloc() micro.Ref {
	if len(e.free) == 0 {
		panic("recipe: temp plane pool exhausted")
	}
	r := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.live++
	if e.live > e.high {
		e.high = e.live
	}
	return r
}

func (e *expander) release(r micro.Ref) {
	if r.Space != micro.SpaceTemp {
		panic("recipe: released non-temp plane")
	}
	e.free = append(e.free, r)
	e.live--
}

func (e *expander) emit(op micro.Op) { e.ops = append(e.ops, op) }

// ---- Gate-level emitters -------------------------------------------------
//
// Every emitter reads all of its sources before writing its destination, so
// destinations may alias sources unless documented otherwise. The eight
// gates with a native micro-op (NOT, AND, OR, NOR, XOR, MAJ, MUX, FADD)
// record their span with it.

// gNot emits d = ¬a.
func (e *expander) gNot(d, a micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.NOT, Dst: d, A: a})
	switch {
	case e.caps.Has(micro.NOT):
		e.emit(micro.Op{Kind: micro.NOT, Dst: d, A: a})
	case e.caps.Has(micro.NOR):
		e.emit(micro.Op{Kind: micro.NOR, Dst: d, A: a, B: a})
	case e.caps.Has(micro.XOR):
		e.emit(micro.Op{Kind: micro.XOR, Dst: d, A: a, B: micro.One()})
	default:
		panic("recipe: capability set cannot express NOT")
	}
}

// gAnd emits d = a ∧ b.
func (e *expander) gAnd(d, a, b micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.AND, Dst: d, A: a, B: b})
	switch {
	case e.caps.Has(micro.AND):
		e.emit(micro.Op{Kind: micro.AND, Dst: d, A: a, B: b})
	case e.caps.Has(micro.MAJ):
		e.emit(micro.Op{Kind: micro.MAJ, Dst: d, A: a, B: b, C: micro.Zero()})
	case e.caps.Has(micro.NOR):
		t0, t1 := e.alloc(), e.alloc()
		e.gNot(t0, a)
		e.gNot(t1, b)
		e.emit(micro.Op{Kind: micro.NOR, Dst: d, A: t0, B: t1})
		e.release(t1)
		e.release(t0)
	default:
		panic("recipe: capability set cannot express AND")
	}
}

// gOr emits d = a ∨ b.
func (e *expander) gOr(d, a, b micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.OR, Dst: d, A: a, B: b})
	switch {
	case e.caps.Has(micro.OR):
		e.emit(micro.Op{Kind: micro.OR, Dst: d, A: a, B: b})
	case e.caps.Has(micro.MAJ):
		e.emit(micro.Op{Kind: micro.MAJ, Dst: d, A: a, B: b, C: micro.One()})
	case e.caps.Has(micro.NOR):
		t0 := e.alloc()
		e.emit(micro.Op{Kind: micro.NOR, Dst: t0, A: a, B: b})
		e.gNot(d, t0)
		e.release(t0)
	default:
		panic("recipe: capability set cannot express OR")
	}
}

// gNor emits d = ¬(a ∨ b).
func (e *expander) gNor(d, a, b micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.NOR, Dst: d, A: a, B: b})
	if e.caps.Has(micro.NOR) {
		e.emit(micro.Op{Kind: micro.NOR, Dst: d, A: a, B: b})
		return
	}
	e.gOr(d, a, b)
	e.gNot(d, d)
}

// gNand emits d = ¬(a ∧ b).
func (e *expander) gNand(d, a, b micro.Ref) {
	e.gAnd(d, a, b)
	e.gNot(d, d)
}

// gXor emits d = a ⊕ b.
func (e *expander) gXor(d, a, b micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.XOR, Dst: d, A: a, B: b})
	if e.caps.Has(micro.XOR) {
		e.emit(micro.Op{Kind: micro.XOR, Dst: d, A: a, B: b})
		return
	}
	// a⊕b = ¬( ¬(a∨b) ∨ (a∧b) ): NOR(NOR(a,b), AND(a,b)).
	t0, t1 := e.alloc(), e.alloc()
	e.gNor(t0, a, b)
	e.gAnd(t1, a, b)
	e.gNor(d, t0, t1)
	e.release(t1)
	e.release(t0)
}

// gXnor emits d = ¬(a ⊕ b).
func (e *expander) gXnor(d, a, b micro.Ref) {
	e.gXor(d, a, b)
	e.gNot(d, d)
}

// gCopy emits d = a.
func (e *expander) gCopy(d, a micro.Ref) {
	e.emit(micro.Op{Kind: micro.COPY, Dst: d, A: a})
}

// gSet emits d = constant.
func (e *expander) gSet(d micro.Ref, one bool) {
	k := micro.SET0
	if one {
		k = micro.SET1
	}
	e.emit(micro.Op{Kind: k, Dst: d})
}

// gMaj emits d = majority(a, b, c).
func (e *expander) gMaj(d, a, b, c micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.MAJ, Dst: d, A: a, B: b, C: c})
	if e.caps.Has(micro.MAJ) {
		e.emit(micro.Op{Kind: micro.MAJ, Dst: d, A: a, B: b, C: c})
		return
	}
	// maj = (a∧b) ∨ (c ∧ (a∨b))
	t0, t1 := e.alloc(), e.alloc()
	e.gAnd(t0, a, b)
	e.gOr(t1, a, b)
	e.gAnd(t1, c, t1)
	e.gOr(d, t0, t1)
	e.release(t1)
	e.release(t0)
}

// gMux emits d = sel ? a : b.
func (e *expander) gMux(d, a, b, sel micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.MUX, Dst: d, A: a, B: b, C: sel})
	if e.caps.Has(micro.MUX) {
		e.emit(micro.Op{Kind: micro.MUX, Dst: d, A: a, B: b, C: sel})
		return
	}
	// (a∧sel) ∨ (b∧¬sel)
	t0, t1 := e.alloc(), e.alloc()
	e.gAnd(t0, a, sel)
	e.gNot(t1, sel)
	e.gAnd(t1, b, t1)
	e.gOr(d, t0, t1)
	e.release(t1)
	e.release(t0)
}

// gFullAdd emits sum = a⊕b⊕cin and cout = maj(a,b,cin). sum and cout must
// not alias each other or any input (recipes pass temps).
func (e *expander) gFullAdd(sum, cout, a, b, cin micro.Ref) {
	defer e.close(e.open(), micro.Op{Kind: micro.FADD, Dst: sum, Dst2: cout, A: a, B: b, C: cin})
	if e.caps.Has(micro.FADD) {
		e.emit(micro.Op{Kind: micro.FADD, Dst: sum, Dst2: cout, A: a, B: b, C: cin})
		return
	}
	t0 := e.alloc()
	e.gXor(t0, a, b)
	e.gXor(sum, t0, cin)
	e.gMaj(cout, a, b, cin)
	e.release(t0)
}

// gHalfAdd emits sum = a⊕c and cout = a∧c, with the same aliasing rule.
func (e *expander) gHalfAdd(sum, cout, a, c micro.Ref) {
	e.gXor(sum, a, c)
	e.gAnd(cout, a, c)
}

// gCondWrite latches src∧mask into the conditional register.
func (e *expander) gCondWrite(src micro.Ref) {
	e.emit(micro.Op{Kind: micro.CONDWR, A: src})
}

func (e *expander) finish() []micro.Op {
	if e.live != 0 {
		panic(fmt.Sprintf("recipe: %d temp planes leaked", e.live))
	}
	return e.ops
}

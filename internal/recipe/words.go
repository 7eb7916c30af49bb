package recipe

import (
	"fmt"

	"mpu/internal/isa"
	"mpu/internal/micro"
)

// word addresses the bit planes of one 64-bit operand.
type word func(bit int) micro.Ref

func regw(r uint8) word {
	return func(b int) micro.Ref { return micro.Reg(int(r), b) }
}

func scratchw(s int) word {
	return func(b int) micro.Ref { return micro.Scratch(s, b) }
}

const w = isa.WordBits

// Scratch register roles used by the recipes below. They are reserved
// hardware (spare columns / pipeline buffers), never visible to programs.
const (
	sAcc  = 0 // multiply accumulator, POPC counter, division remainder
	sQuo  = 1 // division quotient
	sTmp  = 2 // division trial subtraction; CAS/MUL staging
	sFlip = 3 // BFLIP staging
)

// IsDatapathOp reports whether op is expanded by the I2M decoder (true) or
// executed directly by the control path (false).
func IsDatapathOp(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassArith, isa.ClassCompare, isa.ClassBoolean:
		return true
	}
	return op == isa.MOV
}

// Expand produces the micro-op sequence implementing in on a datapath with
// the given capabilities. It returns an error for instructions that are not
// datapath instructions (ensemble, control, MEMCPY).
func Expand(caps micro.CapabilitySet, in isa.Instr) ([]micro.Op, error) {
	if !IsDatapathOp(in.Op) {
		return nil, fmt.Errorf("recipe: %s is not a datapath instruction", in.Op)
	}
	e := newExpander(caps)
	rs, rt, rd := regw(in.A), regw(in.B), regw(in.C)
	switch in.Op {
	case isa.ADD:
		emitAdd(e, rd, rs, rt)
	case isa.SUB:
		emitSub(e, rd, rs, rt)
	case isa.INC:
		emitInc(e, rd, rs)
	case isa.INIT0:
		for i := 0; i < w; i++ {
			e.gSet(rd(i), false)
		}
	case isa.INIT1:
		e.gSet(rd(0), true)
		for i := 1; i < w; i++ {
			e.gSet(rd(i), false)
		}
	case isa.MUL:
		emitMulAcc(e, rs, rt)
		for i := 0; i < w; i++ {
			e.gCopy(rd(i), scratchw(sAcc)(i))
		}
	case isa.MAC:
		emitMulAcc(e, rs, rt)
		emitAdd(e, rd, rd, scratchw(sAcc))
	case isa.QDIV:
		emitDiv(e, rs, rt)
		for i := 0; i < w; i++ {
			e.gCopy(rd(i), scratchw(sQuo)(i))
		}
	case isa.RDIV:
		emitDiv(e, rs, rt)
		for i := 0; i < w; i++ {
			e.gCopy(rd(i), scratchw(sAcc)(i))
		}
	case isa.QRDIV:
		// Quotient in rd, remainder overwrites rt (Table II).
		emitDiv(e, rs, rt)
		for i := 0; i < w; i++ {
			e.gCopy(rd(i), scratchw(sQuo)(i))
			e.gCopy(rt(i), scratchw(sAcc)(i))
		}
	case isa.POPC:
		emitPopc(e, rd, rs)
	case isa.RELU:
		emitRelu(e, rd, rs)

	case isa.CMPEQ:
		eq := e.alloc()
		emitEq(e, eq, rs, rt, nil)
		e.gCondWrite(eq)
		e.release(eq)
	case isa.CMPLT:
		lt := e.alloc()
		emitSignedLt(e, lt, rs, rt)
		e.gCondWrite(lt)
		e.release(lt)
	case isa.CMPGT:
		gt := e.alloc()
		emitSignedLt(e, gt, rt, rs) // a > b  ⇔  b < a
		e.gCondWrite(gt)
		e.release(gt)
	case isa.FUZZY:
		eq := e.alloc()
		emitEq(e, eq, rs, rt, rd) // rd holds the don't-care bit positions
		e.gCondWrite(eq)
		e.release(eq)
	case isa.CAS:
		emitCas(e, rs, rt)
	case isa.MUX:
		sel := e.alloc()
		e.gCopy(sel, rd(0))
		for i := 0; i < w; i++ {
			e.gMux(rd(i), rs(i), rt(i), sel)
		}
		e.release(sel)
	case isa.MAX:
		lt := e.alloc()
		emitSignedLt(e, lt, rs, rt)
		for i := 0; i < w; i++ {
			e.gMux(rd(i), rt(i), rs(i), lt)
		}
		e.release(lt)
	case isa.MIN:
		lt := e.alloc()
		emitSignedLt(e, lt, rs, rt)
		for i := 0; i < w; i++ {
			e.gMux(rd(i), rs(i), rt(i), lt)
		}
		e.release(lt)

	case isa.AND:
		for i := 0; i < w; i++ {
			e.gAnd(rd(i), rs(i), rt(i))
		}
	case isa.NAND:
		for i := 0; i < w; i++ {
			e.gNand(rd(i), rs(i), rt(i))
		}
	case isa.NOR:
		for i := 0; i < w; i++ {
			e.gNor(rd(i), rs(i), rt(i))
		}
	case isa.OR:
		for i := 0; i < w; i++ {
			e.gOr(rd(i), rs(i), rt(i))
		}
	case isa.XOR:
		for i := 0; i < w; i++ {
			e.gXor(rd(i), rs(i), rt(i))
		}
	case isa.XNOR:
		for i := 0; i < w; i++ {
			e.gXnor(rd(i), rs(i), rt(i))
		}
	case isa.INV:
		for i := 0; i < w; i++ {
			e.gNot(rd(i), rs(i))
		}
	case isa.BFLIP:
		for i := 0; i < w; i++ {
			e.gCopy(scratchw(sFlip)(i), rs(i))
		}
		for i := 0; i < w; i++ {
			e.gCopy(rd(i), scratchw(sFlip)(w-1-i))
		}
	case isa.LSHIFT:
		for i := w - 1; i >= 1; i-- {
			e.gCopy(rd(i), rs(i-1))
		}
		e.gSet(rd(0), false)
	case isa.MOV:
		for i := 0; i < w; i++ {
			e.gCopy(rd(i), rs(i))
		}
	default:
		return nil, fmt.Errorf("recipe: no recipe for %s", in.Op)
	}
	return e.finish(), nil
}

// emitAdd emits rd = a + b (two's complement, wrap on overflow). rd may
// alias a and/or b.
func emitAdd(e *expander, rd, a, b word) {
	c, cn, sum := e.alloc(), e.alloc(), e.alloc()
	e.gSet(c, false)
	for i := 0; i < w; i++ {
		e.gFullAdd(sum, cn, a(i), b(i), c)
		e.gCopy(rd(i), sum)
		c, cn = cn, c
	}
	e.release(sum)
	e.release(cn)
	e.release(c)
}

// emitSub emits rd = a - b via a + ¬b + 1.
func emitSub(e *expander, rd, a, b word) {
	c, cn, sum, nb := e.alloc(), e.alloc(), e.alloc(), e.alloc()
	e.gSet(c, true)
	for i := 0; i < w; i++ {
		e.gNot(nb, b(i))
		e.gFullAdd(sum, cn, a(i), nb, c)
		e.gCopy(rd(i), sum)
		c, cn = cn, c
	}
	e.release(nb)
	e.release(sum)
	e.release(cn)
	e.release(c)
}

// emitInc emits rd = a + 1 with a half-adder chain.
func emitInc(e *expander, rd, a word) {
	c, cn, sum := e.alloc(), e.alloc(), e.alloc()
	e.gSet(c, true)
	for i := 0; i < w; i++ {
		e.gHalfAdd(sum, cn, a(i), c)
		e.gCopy(rd(i), sum)
		c, cn = cn, c
	}
	e.release(sum)
	e.release(cn)
	e.release(c)
}

// emitMulAcc computes the low-64-bit product a*b into the sAcc scratch
// register using shift-and-add partial products. The low-64 truncation makes
// the result correct for both signed and unsigned operands modulo 2^64.
// (Table II restricts MUL to 8/16/32-bit inputs on real hardware; the full
// 64-bit expansion is a strict superset and is what the simulator executes.)
func emitMulAcc(e *expander, a, b word) {
	acc := scratchw(sAcc)
	for i := 0; i < w; i++ {
		e.gSet(acc(i), false)
	}
	pp, c, cn, sum := e.alloc(), e.alloc(), e.alloc(), e.alloc()
	for i := 0; i < w; i++ {
		e.gSet(c, false)
		for j := 0; j+i < w; j++ {
			e.gAnd(pp, a(j), b(i))
			e.gFullAdd(sum, cn, acc(i+j), pp, c)
			e.gCopy(acc(i+j), sum)
			c, cn = cn, c
		}
		// Carry past bit 63 falls off the word (modulo arithmetic).
	}
	e.release(sum)
	e.release(cn)
	e.release(c)
	e.release(pp)
}

// emitDiv computes unsigned n / d by restoring division: quotient into the
// sQuo scratch register, remainder into sAcc. For d == 0 the restoring
// datapath naturally produces quotient 2^64-1 and remainder n.
func emitDiv(e *expander, n, d word) {
	r, q, t := scratchw(sAcc), scratchw(sQuo), scratchw(sTmp)
	for i := 0; i < w; i++ {
		e.gSet(r(i), false)
	}
	c, cn, nb, qb := e.alloc(), e.alloc(), e.alloc(), e.alloc()
	for i := w - 1; i >= 0; i-- {
		// R = (R << 1) | n_i
		for k := w - 1; k >= 1; k-- {
			e.gCopy(r(k), r(k-1))
		}
		e.gCopy(r(0), n(i))
		// T = R - D; carry-out high means R >= D.
		e.gSet(c, true)
		for k := 0; k < w; k++ {
			e.gNot(nb, d(k))
			e.gFullAdd(t(k), cn, r(k), nb, c)
			c, cn = cn, c
		}
		e.gCopy(qb, c) // quotient bit = no borrow
		e.gCopy(q(i), qb)
		// R = qb ? T : R (restore on borrow).
		for k := 0; k < w; k++ {
			e.gMux(r(k), t(k), r(k), qb)
		}
	}
	e.release(qb)
	e.release(nb)
	e.release(cn)
	e.release(c)
}

// emitPopc counts the set bits of a into rd with a carry-save reduction
// tree (Wallace style): full adders repeatedly compress three equal-weight
// planes into a sum and a carry of double weight, needing only ~62 adders
// for 64 bits instead of a 64×7 ripple. Intermediate planes live in the
// scratch registers; rd is written last so it may alias a.
func emitPopc(e *expander, rd, a word) {
	const cntBits = 7 // counts 0..64
	// Scratch-plane allocator over the recipe scratch registers.
	next := 0
	allocPlane := func() micro.Ref {
		reg, bit := next/w, next%w
		if reg >= 4 {
			panic("recipe: popc reduction exhausted scratch planes")
		}
		next++
		return micro.Scratch(reg, bit)
	}
	// Weight buckets, seeded with the operand's bit planes.
	buckets := make([][]micro.Ref, cntBits+1)
	for i := 0; i < w; i++ {
		buckets[0] = append(buckets[0], a(i))
	}
	var result [cntBits]micro.Ref
	var haveResult [cntBits]bool
	for k := 0; k < cntBits; k++ {
		for len(buckets[k]) >= 3 {
			n := len(buckets[k])
			x, y, z := buckets[k][n-3], buckets[k][n-2], buckets[k][n-1]
			buckets[k] = buckets[k][:n-3]
			s, cy := allocPlane(), allocPlane()
			e.gFullAdd(s, cy, x, y, z)
			buckets[k] = append(buckets[k], s)
			buckets[k+1] = append(buckets[k+1], cy)
		}
		if len(buckets[k]) == 2 {
			x, y := buckets[k][0], buckets[k][1]
			s, cy := allocPlane(), allocPlane()
			e.gHalfAdd(s, cy, x, y)
			buckets[k] = buckets[k][:0]
			buckets[k] = append(buckets[k], s)
			buckets[k+1] = append(buckets[k+1], cy)
		}
		if len(buckets[k]) == 1 {
			result[k] = buckets[k][0]
			haveResult[k] = true
		}
	}
	for k := 0; k < cntBits; k++ {
		if !haveResult[k] {
			e.gSet(rd(k), false)
			continue
		}
		e.gCopy(rd(k), result[k])
	}
	for k := cntBits; k < w; k++ {
		e.gSet(rd(k), false)
	}
}

// emitRelu emits rd = a < 0 ? 0 : a (signed).
func emitRelu(e *expander, rd, a word) {
	pos := e.alloc()
	e.gNot(pos, a(w-1))
	for i := 0; i < w; i++ {
		e.gAnd(rd(i), a(i), pos)
	}
	e.release(pos)
}

// emitEq sets eq = (a == b), optionally ignoring bit positions where the
// dontCare word has 1s (the FUZZY instruction).
func emitEq(e *expander, eq micro.Ref, a, b word, dontCare word) {
	neq, x := e.alloc(), e.alloc()
	e.gSet(neq, false)
	for i := 0; i < w; i++ {
		e.gXor(x, a(i), b(i))
		if dontCare != nil {
			nm := e.alloc()
			e.gNot(nm, dontCare(i))
			e.gAnd(x, x, nm)
			e.release(nm)
		}
		e.gOr(neq, neq, x)
	}
	e.gNot(eq, neq)
	e.release(x)
	e.release(neq)
}

// emitSignedLt sets lt = (a < b) for two's-complement words, using the
// borrow chain of a - b and the standard N⊕V test.
func emitSignedLt(e *expander, lt micro.Ref, a, b word) {
	c, nb := e.alloc(), e.alloc()
	e.gSet(c, true)
	for i := 0; i < w-1; i++ {
		e.gNot(nb, b(i))
		e.gMaj(c, a(i), nb, c)
	}
	// Top bit: need the difference sign d63 and overflow V.
	d63, t := e.alloc(), e.alloc()
	e.gNot(nb, b(w-1))
	e.gXor(t, a(w-1), nb)
	e.gXor(d63, t, c) // d63 = a63 ⊕ ¬b63 ⊕ c
	// V = (a63 ⊕ b63) ∧ (a63 ⊕ d63); note a63⊕b63 = ¬(a63⊕¬b63) = ¬t.
	v := e.alloc()
	e.gNot(t, t)
	e.gXor(v, a(w-1), d63)
	e.gAnd(v, t, v)
	e.gXor(lt, d63, v)
	e.release(v)
	e.release(t)
	e.release(d63)
	e.release(nb)
	e.release(c)
}

// emitCas conditionally swaps a and b so that a <= b (signed) afterwards.
func emitCas(e *expander, a, b word) {
	swap := e.alloc()
	emitSignedLt(e, swap, b, a) // swap when b < a, i.e. a > b
	t := e.alloc()
	for i := 0; i < w; i++ {
		e.gCopy(t, a(i))
		e.gMux(a(i), b(i), t, swap)
		e.gMux(b(i), t, b(i), swap)
	}
	e.release(t)
	e.release(swap)
}

// ExpandResolved is Expand plus the slot-resolved form of the same stream,
// for executors that replay an expansion many times: the resolution (and
// its constant-plane write verification) is paid once per expansion instead
// of per execution. It memoizes nothing; the machine's decode table keeps
// the resolved stream of each instruction it decodes.
func ExpandResolved(caps micro.CapabilitySet, in isa.Instr) ([]micro.Op, []micro.ResolvedOp, error) {
	ops, err := Expand(caps, in)
	if err != nil {
		return nil, nil, err
	}
	return ops, micro.Resolve(ops), nil
}

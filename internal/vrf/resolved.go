package vrf

import (
	"fmt"

	"mpu/internal/bitvec"
	"mpu/internal/isa"
	"mpu/internal/micro"
)

// Compile-time guards that micro's slot layout mirrors the ISA register
// file; both pairs fail to build if the constants drift apart.
var (
	_ [micro.SlotNumRegs - isa.NumRegs]struct{}
	_ [isa.NumRegs - micro.SlotNumRegs]struct{}
	_ [micro.SlotWordBits - isa.WordBits]struct{}
	_ [isa.WordBits - micro.SlotWordBits]struct{}
)

// ExecAllResolved applies a resolved micro-op sequence in order, with the
// same semantics (and the same MicroOps accounting) as ExecAll on the
// unresolved form. It runs at word level over the flat slot directory,
// skipping per-op plane resolution, bounds checks, and the constant-plane
// write guard (performed once at Resolve time): single-word planes (lanes
// <= 64) get the fully inlined executor, wider planes the multi-word slab
// kernels. It marks every register dirty rather than scan the stream for
// destinations: a per-op scan here costs the reference interpreter more
// than Recycle's full clear ever will.
func (v *VRF) ExecAllResolved(rs []micro.ResolvedOp) {
	v.dirty = ^uint64(0)
	if v.wpl == 1 {
		v.execResolved64(rs)
	} else {
		v.execResolvedWide(rs)
	}
	v.MicroOps += uint64(len(rs))
}

// execResolved64 is the single-word executor: micro.Slot i is backed by
// v.words[i], so operand access is one index with no plane resolution. Each
// case reproduces the corresponding bitvec merge expression on one word.
// Below 64 lanes the mask word's tail bits are zero, so the merge keeps
// every destination's tail zero without bitvec's clampTail, and the
// unmasked CONDWR and MASKRD writes store a value already ANDed with (or
// equal to) the mask — plain stores either way. Sources are loaded before
// the destination is written, matching bitvec's aliasing behavior.
func (v *VRF) execResolved64(rs []micro.ResolvedOp) {
	ws := v.words
	m := ws[micro.SlotMask] // no micro-op writes the mask plane
	for i := range rs {
		r := &rs[i]
		switch r.Kind {
		case micro.NOR:
			x := ^(ws[r.A] | ws[r.B])
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.AND:
			x := ws[r.A] & ws[r.B]
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.OR:
			x := ws[r.A] | ws[r.B]
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.XOR:
			x := ws[r.A] ^ ws[r.B]
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.NOT:
			x := ^ws[r.A]
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.COPY:
			x := ws[r.A]
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.MAJ:
			a, b, c := ws[r.A], ws[r.B], ws[r.C]
			x := (a & b) | (b & c) | (a & c)
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.MUX:
			a, b, c := ws[r.A], ws[r.B], ws[r.C]
			x := (a & c) | (b &^ c)
			ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
		case micro.FADD:
			a, b, c := ws[r.A], ws[r.B], ws[r.C]
			s := a ^ b ^ c
			co := (a & b) | (b & c) | (a & c)
			ws[r.Dst] = (ws[r.Dst] &^ m) | (s & m)
			ws[r.Dst2] = (ws[r.Dst2] &^ m) | (co & m)
		case micro.SET0:
			ws[r.Dst] &^= m
		case micro.SET1:
			ws[r.Dst] |= m
		case micro.CONDWR:
			ws[micro.SlotCond] = ws[r.A] & m
		case micro.MASKRD:
			ws[r.Dst] = m
		default:
			panic(fmt.Sprintf("vrf: unknown micro-op kind %d", r.Kind))
		}
	}
}

// span returns the word-directory storage of one slot: wpl consecutive
// words starting at s*wpl.
func (v *VRF) span(s micro.Slot) []uint64 {
	base := int(s) * v.wpl
	return v.words[base : base+v.wpl]
}

// execResolvedWide is the multi-word executor for lanes that span several
// words per plane (lanes > 64 — e.g. SIMDRAM's 256). Each op runs one
// bitvec slab kernel over the operand spans; the kernels reproduce the
// plane path bit for bit (word i of one plane only ever combines with word
// i of another, and the mask's zero tail bits keep every other plane's tail
// zero). It is also the kernel RunCompiled runs host streams through at
// this geometry.
func (v *VRF) execResolvedWide(rs []micro.ResolvedOp) {
	m := v.span(micro.SlotMask) // no micro-op writes the mask plane
	for i := range rs {
		r := &rs[i]
		switch r.Kind {
		case micro.NOR:
			bitvec.NorWords(v.span(r.Dst), v.span(r.A), v.span(r.B), m)
		case micro.AND:
			bitvec.AndWords(v.span(r.Dst), v.span(r.A), v.span(r.B), m)
		case micro.OR:
			bitvec.OrWords(v.span(r.Dst), v.span(r.A), v.span(r.B), m)
		case micro.XOR:
			bitvec.XorWords(v.span(r.Dst), v.span(r.A), v.span(r.B), m)
		case micro.NOT:
			bitvec.NotWords(v.span(r.Dst), v.span(r.A), m)
		case micro.COPY:
			bitvec.CopyWords(v.span(r.Dst), v.span(r.A), m)
		case micro.MAJ:
			bitvec.MajWords(v.span(r.Dst), v.span(r.A), v.span(r.B), v.span(r.C), m)
		case micro.MUX:
			bitvec.MuxWords(v.span(r.Dst), v.span(r.A), v.span(r.B), v.span(r.C), m)
		case micro.FADD:
			bitvec.FullAddWords(v.span(r.Dst), v.span(r.Dst2), v.span(r.A), v.span(r.B), v.span(r.C), m)
		case micro.SET0:
			bitvec.ClearWords(v.span(r.Dst), m)
		case micro.SET1:
			bitvec.SetWords(v.span(r.Dst), m)
		case micro.CONDWR:
			bitvec.AndIntoWords(v.span(micro.SlotCond), v.span(r.A), m)
		case micro.MASKRD:
			copy(v.span(r.Dst), m)
		default:
			panic(fmt.Sprintf("vrf: unknown micro-op kind %d", r.Kind))
		}
	}
}

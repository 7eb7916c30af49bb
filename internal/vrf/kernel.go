package vrf

import (
	"unsafe"

	"mpu/internal/isa"
	"mpu/internal/micro"
)

// The engine's execution substrate, on replayed rounds (a trace's exec
// steps) and interpreted ones (one recipe expansion at a time) alike. A
// kernel is a host stream bound to a lane geometry: recipe.ExpandHost's
// lowering of an instruction's recipe, in which each gate whose
// intermediate planes nothing observes runs as its one native op (RACER's
// 20-NOR full adder as one FADD). It leaves every slot as the recipe's
// micro-ops leave it, and charges their count (Ops), not its own. Each lane
// geometry runs it through one flat-switch loop over the ops:
//
//   - one word per plane (lanes <= 64): execResolved64 on one VRF, and
//     group2 or group4 on two or four, which apply each op to every VRF of
//     the group, each under its own mask, before they move to the next.
//     RunCompiledGroups runs a round in groups of four while four VRFs
//     remain, then one of two, then a lone VRF: a dependency chain on one
//     VRF waits on the store its previous op made, and independent chains
//     overlap.
//   - several words per plane (lanes > 64): the slab-kernel loop of
//     execResolvedWide, one VRF at a time; its per-op dispatch is amortised
//     over the words of a plane.
//
// NoTrace's reference interpreter (ExecAllResolved on the recipe stream)
// is the same per-op switch at each geometry, over the recipe's micro-ops.

// CompiledExec is one host stream bound to a fixed lane geometry. Compile
// with CompileHost or CompileResolved; execute with (*VRF).RunCompiled or
// RunCompiledGroups.
type CompiledExec struct {
	lanes int
	host  []micro.ResolvedOp // shared with the caller, immutable
	ops   uint64             // the recipe micro-ops one execution simulates
	dirty uint64             // the architectural registers the stream writes (VRF.dirty's bits)
}

// groupWidth is the most VRFs a group loop advances in lockstep.
const groupWidth = 4

// CompileHost binds a host stream, which simulates ops recipe micro-ops, to
// the given lane count. No lane count declines; nil means the stream holds
// a micro-op kind the executors do not know. The stream must not be mutated
// afterwards.
func CompileHost(host []micro.ResolvedOp, ops uint64, lanes int) *CompiledExec {
	c := &CompiledExec{lanes: lanes, host: host, ops: ops}
	for i := range host {
		if int(host[i].Kind) >= micro.NumKinds {
			return nil
		}
		// Dst2 is marked whatever the kind: where it is unused it reads
		// slot 0 and over-marks r0, which costs Recycle one register clear.
		c.dirty |= regBit(host[i].Dst) | regBit(host[i].Dst2)
	}
	return c
}

// CompileResolved compiles a resolved stream as its own host stream.
func CompileResolved(rs []micro.ResolvedOp, lanes int) *CompiledExec {
	return CompileHost(rs, uint64(len(rs)), lanes)
}

// Bytes reports what the kernel retains: its host stream, which the caller
// shares. It holds nothing else.
func (c *CompiledExec) Bytes() int64 {
	return int64(len(c.host)) * int64(unsafe.Sizeof(micro.ResolvedOp{}))
}

// regBit is slot s's bit in a dirty bitmap: its architectural register's, or
// none for a slot in the always-reset tail.
func regBit(s micro.Slot) uint64 {
	if s >= micro.SlotScratchBase {
		return 0
	}
	return 1 << (s / micro.SlotWordBits)
}

// Ops reports the number of recipe micro-ops one execution simulates.
func (c *CompiledExec) Ops() uint64 { return c.ops }

// GroupWidth reports the most VRFs RunCompiledGroups advances at once: four
// at one word per plane, else one.
func (c *CompiledExec) GroupWidth() int {
	if c.lanes <= isa.WordBits {
		return groupWidth
	}
	return 1
}

// RunCompiled executes a compiled stream over the flat word directory with
// the same result (and MicroOps accounting) as ExecAllResolved on the
// recipe stream it was lowered from.
func (v *VRF) RunCompiled(c *CompiledExec) {
	if v.lanes != c.lanes {
		panic("vrf: compiled stream executed on a VRF of different lane count")
	}
	v.dirty |= c.dirty
	if v.wpl == 1 {
		v.execResolved64(c.host)
	} else {
		v.execResolvedWide(c.host)
	}
	v.MicroOps += c.ops
}

// RunCompiledGroups executes a compiled stream on every VRF of vs, with the
// result RunCompiled gives on each in turn. At one word per plane it runs
// op-major in groups of four while four VRFs remain, then a group of two,
// so a round of 3 is 2+1 and one of 7 is 4+2+1; a last single VRF, and
// every VRF at wider geometries, runs alone. The VRFs must be distinct — a
// thermal round activates each VRF once. Each VRF's mask is read here, at
// the call: mask steps run between calls.
func RunCompiledGroups(c *CompiledExec, vs []*VRF) {
	for c.lanes <= isa.WordBits && len(vs) >= 2 {
		n := 2
		if len(vs) >= groupWidth {
			n = groupWidth
		}
		var ws [groupWidth]*[micro.NumSlots]uint64
		var ms [groupWidth]uint64
		for i, v := range vs[:n] {
			if v.lanes != c.lanes {
				panic("vrf: compiled stream executed on a VRF of different lane count")
			}
			v.dirty |= c.dirty
			v.MicroOps += c.ops
			ws[i] = (*[micro.NumSlots]uint64)(v.words)
			ms[i] = v.words[micro.SlotMask]
		}
		if n == groupWidth {
			group4(c.host, ws[0], ws[1], ws[2], ws[3], ms[0], ms[1], ms[2], ms[3])
		} else {
			group2(c.host, ws[0], ws[1], ms[0], ms[1])
		}
		vs = vs[n:]
	}
	for _, v := range vs {
		v.RunCompiled(c)
	}
}

// merge is a masked write's result: x in the lanes m enables, old elsewhere.
func merge(old, x, m uint64) uint64 { return old&^m | x&m }

// group4 and group2 are execResolved64 over four and two VRFs' directories
// at once, each under its own mask. The directories are arrays, so one
// bounds check on an operand index covers every VRF.
func group4(rs []micro.ResolvedOp, w0, w1, w2, w3 *[micro.NumSlots]uint64, m0, m1, m2, m3 uint64) {
	for i := range rs {
		r := &rs[i]
		d, a, b, c := r.Dst, r.A, r.B, r.C
		switch r.Kind {
		case micro.NOR:
			w0[d] = merge(w0[d], ^(w0[a] | w0[b]), m0)
			w1[d] = merge(w1[d], ^(w1[a] | w1[b]), m1)
			w2[d] = merge(w2[d], ^(w2[a] | w2[b]), m2)
			w3[d] = merge(w3[d], ^(w3[a] | w3[b]), m3)
		case micro.AND:
			w0[d] = merge(w0[d], w0[a]&w0[b], m0)
			w1[d] = merge(w1[d], w1[a]&w1[b], m1)
			w2[d] = merge(w2[d], w2[a]&w2[b], m2)
			w3[d] = merge(w3[d], w3[a]&w3[b], m3)
		case micro.OR:
			w0[d] = merge(w0[d], w0[a]|w0[b], m0)
			w1[d] = merge(w1[d], w1[a]|w1[b], m1)
			w2[d] = merge(w2[d], w2[a]|w2[b], m2)
			w3[d] = merge(w3[d], w3[a]|w3[b], m3)
		case micro.XOR:
			w0[d] = merge(w0[d], w0[a]^w0[b], m0)
			w1[d] = merge(w1[d], w1[a]^w1[b], m1)
			w2[d] = merge(w2[d], w2[a]^w2[b], m2)
			w3[d] = merge(w3[d], w3[a]^w3[b], m3)
		case micro.NOT:
			w0[d] = merge(w0[d], ^w0[a], m0)
			w1[d] = merge(w1[d], ^w1[a], m1)
			w2[d] = merge(w2[d], ^w2[a], m2)
			w3[d] = merge(w3[d], ^w3[a], m3)
		case micro.COPY:
			w0[d] = merge(w0[d], w0[a], m0)
			w1[d] = merge(w1[d], w1[a], m1)
			w2[d] = merge(w2[d], w2[a], m2)
			w3[d] = merge(w3[d], w3[a], m3)
		case micro.MAJ:
			w0[d] = merge(w0[d], maj(w0[a], w0[b], w0[c]), m0)
			w1[d] = merge(w1[d], maj(w1[a], w1[b], w1[c]), m1)
			w2[d] = merge(w2[d], maj(w2[a], w2[b], w2[c]), m2)
			w3[d] = merge(w3[d], maj(w3[a], w3[b], w3[c]), m3)
		case micro.MUX:
			w0[d] = merge(w0[d], mux(w0[a], w0[b], w0[c]), m0)
			w1[d] = merge(w1[d], mux(w1[a], w1[b], w1[c]), m1)
			w2[d] = merge(w2[d], mux(w2[a], w2[b], w2[c]), m2)
			w3[d] = merge(w3[d], mux(w3[a], w3[b], w3[c]), m3)
		case micro.FADD:
			d2 := r.Dst2
			a0, b0, c0 := w0[a], w0[b], w0[c]
			a1, b1, c1 := w1[a], w1[b], w1[c]
			a2, b2, c2 := w2[a], w2[b], w2[c]
			a3, b3, c3 := w3[a], w3[b], w3[c]
			w0[d], w0[d2] = merge(w0[d], a0^b0^c0, m0), merge(w0[d2], maj(a0, b0, c0), m0)
			w1[d], w1[d2] = merge(w1[d], a1^b1^c1, m1), merge(w1[d2], maj(a1, b1, c1), m1)
			w2[d], w2[d2] = merge(w2[d], a2^b2^c2, m2), merge(w2[d2], maj(a2, b2, c2), m2)
			w3[d], w3[d2] = merge(w3[d], a3^b3^c3, m3), merge(w3[d2], maj(a3, b3, c3), m3)
		case micro.SET0:
			w0[d] &^= m0
			w1[d] &^= m1
			w2[d] &^= m2
			w3[d] &^= m3
		case micro.SET1:
			w0[d] |= m0
			w1[d] |= m1
			w2[d] |= m2
			w3[d] |= m3
		case micro.CONDWR:
			const s = micro.SlotCond
			w0[s], w1[s], w2[s], w3[s] = w0[a]&m0, w1[a]&m1, w2[a]&m2, w3[a]&m3
		case micro.MASKRD:
			w0[d], w1[d], w2[d], w3[d] = m0, m1, m2, m3
		}
	}
}

func group2(rs []micro.ResolvedOp, w0, w1 *[micro.NumSlots]uint64, m0, m1 uint64) {
	for i := range rs {
		r := &rs[i]
		d, a, b, c := r.Dst, r.A, r.B, r.C
		switch r.Kind {
		case micro.NOR:
			w0[d] = merge(w0[d], ^(w0[a] | w0[b]), m0)
			w1[d] = merge(w1[d], ^(w1[a] | w1[b]), m1)
		case micro.AND:
			w0[d] = merge(w0[d], w0[a]&w0[b], m0)
			w1[d] = merge(w1[d], w1[a]&w1[b], m1)
		case micro.OR:
			w0[d] = merge(w0[d], w0[a]|w0[b], m0)
			w1[d] = merge(w1[d], w1[a]|w1[b], m1)
		case micro.XOR:
			w0[d] = merge(w0[d], w0[a]^w0[b], m0)
			w1[d] = merge(w1[d], w1[a]^w1[b], m1)
		case micro.NOT:
			w0[d] = merge(w0[d], ^w0[a], m0)
			w1[d] = merge(w1[d], ^w1[a], m1)
		case micro.COPY:
			w0[d] = merge(w0[d], w0[a], m0)
			w1[d] = merge(w1[d], w1[a], m1)
		case micro.MAJ:
			w0[d] = merge(w0[d], maj(w0[a], w0[b], w0[c]), m0)
			w1[d] = merge(w1[d], maj(w1[a], w1[b], w1[c]), m1)
		case micro.MUX:
			w0[d] = merge(w0[d], mux(w0[a], w0[b], w0[c]), m0)
			w1[d] = merge(w1[d], mux(w1[a], w1[b], w1[c]), m1)
		case micro.FADD:
			d2 := r.Dst2
			a0, b0, c0 := w0[a], w0[b], w0[c]
			a1, b1, c1 := w1[a], w1[b], w1[c]
			w0[d], w0[d2] = merge(w0[d], a0^b0^c0, m0), merge(w0[d2], maj(a0, b0, c0), m0)
			w1[d], w1[d2] = merge(w1[d], a1^b1^c1, m1), merge(w1[d2], maj(a1, b1, c1), m1)
		case micro.SET0:
			w0[d] &^= m0
			w1[d] &^= m1
		case micro.SET1:
			w0[d] |= m0
			w1[d] |= m1
		case micro.CONDWR:
			const s = micro.SlotCond
			w0[s], w1[s] = w0[a]&m0, w1[a]&m1
		case micro.MASKRD:
			w0[d], w1[d] = m0, m1
		}
	}
}

// maj and mux are MAJ's and MUX's functions on one word: mux(a, b, c) is
// a where c is set, b elsewhere.
func maj(a, b, c uint64) uint64 { return a&b | b&c | a&c }
func mux(a, b, c uint64) uint64 { return a&c | b&^c }

package vrf

import (
	"mpu/internal/isa"
	"mpu/internal/micro"
)

// The engine's execution substrate, on replayed rounds (a trace's exec
// steps) and interpreted ones (one recipe expansion at a time) alike.
// RunCompiled executes a resolved micro-op stream through the one kernel
// each lane geometry runs fastest on (bench/README.md's vrf.* per-layer
// numbers):
//
//   - one word per plane (lanes <= 64): the stream is lowered, once, into a
//     chain of fused closures over the flat word directory. micro.Runs
//     segments it into maximal same-kind runs; each run compiles to one
//     closure whose loop body is that kind's merge expression with the
//     operand slots pre-packed into flat arrays, so replay executes the
//     whole stream with zero per-op kind dispatch, no plane resolution, and
//     no allocation. Every closure carries a masked and an unmasked loop and
//     picks between them by inspecting the mask word at entry — legal
//     because no micro-op writes the mask plane, so the mask is constant
//     across the stream.
//   - one word per plane, RACER's kinds only (NOR, COPY, SET0, SET1,
//     CONDWR): each run also compiles to a group closure over the same
//     packed operands, which applies every op to two, three or four VRFs'
//     directories before it moves to the next. RunCompiledGroups runs a
//     thermal round through it in groups of up to four: a NOR ripple chain
//     on one VRF waits on the store its previous op made, and independent
//     chains overlap. Only a round of one VRF, or a last VRF left over
//     after groups of four, runs alone. Streams holding any other kind run
//     one VRF at a time.
//   - several words per plane (lanes > 64): the slab-kernel loop of
//     execResolvedWide runs the stream as recorded. Its per-op dispatch is
//     amortised over the words of a plane, and a fused closure chain at
//     this geometry measured slower on every workload while costing
//     milliseconds per body to build.

// CompiledExec is one resolved stream bound to a fixed lane geometry.
// Compile with CompileResolved; execute with (*VRF).RunCompiled.
type CompiledExec struct {
	lanes int
	k64   []kern64           // lanes <= 64: the fused closure chain
	g64   []group64          // lanes <= 64, RACER's kinds only: the same runs, 2- to 4-wide; nil otherwise
	rs    []micro.ResolvedOp // lanes > 64: the stream itself (shared with the caller, immutable)
	dirty uint64             // the architectural registers the stream writes (VRF.dirty's bits)
}

// kern64 executes one fused run over a single-word directory under mask m.
type kern64 func(ws []uint64, m uint64)

// groupWidth is the most VRFs a group body advances in lockstep: the unroll
// width of its widest loop. Eight measured no faster than four on the RACER
// kernels (docs/PERF.md, "Rounds run micro-op-major").
const groupWidth = 4

// group is one call's view of n distinct VRFs, 2 <= n <= groupWidth: their
// single-word directories and the mask each runs under, in the first n
// slots. It is passed by value, so it lives on the caller's stack, never on
// the shared CompiledExec.
type group struct {
	n  int
	ws [groupWidth]*[micro.NumSlots]uint64
	m  [groupWidth]uint64
}

// each runs a one-VRF closure on every VRF of the group in turn.
func (g group) each(one kern64) {
	for i, ws := range g.ws[:g.n] {
		one(ws[:], g.m[i])
	}
}

// group64 executes one fused run over a group's directories.
type group64 func(g group)

// CompileResolved binds a resolved stream to the given lane count. No lane
// count declines; nil means the stream holds a micro-op kind the executors
// do not know. The stream must not be mutated afterwards.
func CompileResolved(rs []micro.ResolvedOp, lanes int) *CompiledExec {
	c := &CompiledExec{lanes: lanes, rs: rs}
	for i := range rs {
		if int(rs[i].Kind) >= micro.NumKinds {
			return nil
		}
		// Dst2 is marked whatever the kind: where it is unused it reads
		// slot 0 and over-marks r0, which costs Recycle one register clear.
		c.dirty |= regBit(rs[i].Dst) | regBit(rs[i].Dst2)
	}
	if lanes <= isa.WordBits {
		grouped := racerKinds(rs)
		for _, run := range micro.Runs(rs) {
			cols := packRun(run.Kind, rs[run.Start:run.Start+run.Len])
			k := compileRun64(run.Kind, cols)
			c.k64 = append(c.k64, k)
			if grouped {
				c.g64 = append(c.g64, compileGroup64(run.Kind, cols, k))
			}
		}
	}
	return c
}

// racerKinds reports whether every op of the stream has a group body: the
// kinds recipe.ExpandResolved emits for RACER's NOR-only datapath.
func racerKinds(rs []micro.ResolvedOp) bool {
	for i := range rs {
		switch rs[i].Kind {
		case micro.NOR, micro.COPY, micro.SET0, micro.SET1, micro.CONDWR:
		default:
			return false
		}
	}
	return true
}

// regBit is slot s's bit in a dirty bitmap: its architectural register's, or
// none for a slot in the always-reset tail.
func regBit(s micro.Slot) uint64 {
	if s >= micro.SlotScratchBase {
		return 0
	}
	return 1 << (s / micro.SlotWordBits)
}

// Ops reports the number of micro-ops one execution simulates.
func (c *CompiledExec) Ops() uint64 { return uint64(len(c.rs)) }

// GroupWidth reports the most VRFs RunCompiledGroups advances at once on
// this stream: four where it has group bodies, else one.
func (c *CompiledExec) GroupWidth() int {
	if c.g64 != nil {
		return groupWidth
	}
	return 1
}

// RunCompiled executes a compiled stream over the flat word directory with
// the same semantics (and MicroOps accounting) as ExecAllResolved on the
// stream it was compiled from.
func (v *VRF) RunCompiled(c *CompiledExec) {
	if v.lanes != c.lanes {
		panic("vrf: compiled stream executed on a VRF of different lane count")
	}
	v.dirty |= c.dirty
	if v.wpl == 1 {
		ws := v.words
		m := ws[micro.SlotMask]
		for _, k := range c.k64 {
			k(ws, m)
		}
	} else {
		v.execResolvedWide(c.rs)
	}
	v.MicroOps += c.Ops()
}

// RunCompiledGroups executes a compiled stream on every VRF of vs, with the
// result RunCompiled gives on each in turn. A stream with group bodies runs
// micro-op-major while at least two VRFs remain, min(4, remaining) at a
// time, so a round of 3 is one group and one of 6 is 4+2; a last single
// VRF, and every VRF of any other stream, runs alone. The VRFs must be
// distinct — a thermal round activates each VRF once. Each VRF's mask is
// read here, at the call: mask steps run between calls.
func RunCompiledGroups(c *CompiledExec, vs []*VRF) {
	for c.g64 != nil && len(vs) >= 2 {
		g := group{n: min(groupWidth, len(vs))}
		for i, v := range vs[:g.n] {
			if v.lanes != c.lanes {
				panic("vrf: compiled stream executed on a VRF of different lane count")
			}
			v.dirty |= c.dirty
			v.MicroOps += c.Ops()
			g.ws[i] = (*[micro.NumSlots]uint64)(v.words)
			g.m[i] = v.words[micro.SlotMask]
		}
		for _, k := range c.g64 {
			k(g)
		}
		vs = vs[g.n:]
	}
	for _, v := range vs {
		v.RunCompiled(c)
	}
}

// runCols is one run's packed operand columns, shared by its one-VRF and
// group closures; a column the kind does not read stays nil.
type runCols struct{ d, a, b, c, d2 []micro.Slot }

// packRun packs the operand columns a run of the given kind reads.
func packRun(kind micro.Kind, ops []micro.ResolvedOp) runCols {
	r := runCols{
		d: packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.Dst }),
		a: packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.A }),
	}
	switch kind {
	case micro.NOR, micro.AND, micro.OR, micro.XOR:
		r.b = packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
	case micro.FADD:
		r.d2 = packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.Dst2 })
		fallthrough
	case micro.MAJ, micro.MUX:
		r.b = packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		r.c = packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
	}
	return r
}

// packSlots extracts one operand column of a run into a flat array.
func packSlots(ops []micro.ResolvedOp, get func(*micro.ResolvedOp) micro.Slot) []micro.Slot {
	out := make([]micro.Slot, len(ops))
	for i := range ops {
		out[i] = get(&ops[i])
	}
	return out
}

// compileRun64 builds the single-word closure for one same-kind run. Each
// loop below is the corresponding execResolved64 case unrolled across the
// run, with an unmasked variant selected when every lane is enabled.
func compileRun64(kind micro.Kind, cols runCols) kern64 {
	d, a, b, cc, d2 := cols.d, cols.a, cols.b, cols.c, cols.d2
	switch kind {
	case micro.NOR:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ^(ws[a[i]] | ws[b[i]])
				}
				return
			}
			for i, di := range d {
				x := ^(ws[a[i]] | ws[b[i]])
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.AND:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]] & ws[b[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]] & ws[b[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.OR:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]] | ws[b[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]] | ws[b[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.XOR:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]] ^ ws[b[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]] ^ ws[b[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.NOT:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ^ws[a[i]]
				}
				return
			}
			for i, di := range d {
				x := ^ws[a[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.COPY:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.MAJ:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
					ws[di] = (aw & bw) | (bw & cw) | (aw & cw)
				}
				return
			}
			for i, di := range d {
				aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
				x := (aw & bw) | (bw & cw) | (aw & cw)
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.MUX:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = (ws[a[i]] & ws[cc[i]]) | (ws[b[i]] &^ ws[cc[i]])
				}
				return
			}
			for i, di := range d {
				x := (ws[a[i]] & ws[cc[i]]) | (ws[b[i]] &^ ws[cc[i]])
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.FADD:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
					ws[di] = aw ^ bw ^ cw
					ws[d2[i]] = (aw & bw) | (bw & cw) | (aw & cw)
				}
				return
			}
			for i, di := range d {
				aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
				s := aw ^ bw ^ cw
				co := (aw & bw) | (bw & cw) | (aw & cw)
				ws[di] = (ws[di] &^ m) | (s & m)
				d2i := d2[i]
				ws[d2i] = (ws[d2i] &^ m) | (co & m)
			}
		}
	case micro.SET0:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for _, di := range d {
					ws[di] = 0
				}
				return
			}
			for _, di := range d {
				ws[di] &^= m
			}
		}
	case micro.SET1:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for _, di := range d {
					ws[di] = ^uint64(0)
				}
				return
			}
			for _, di := range d {
				ws[di] |= m
			}
		}
	case micro.CONDWR:
		return func(ws []uint64, m uint64) {
			for i := range a {
				ws[micro.SlotCond] = ws[a[i]] & m
			}
		}
	case micro.MASKRD:
		return func(ws []uint64, m uint64) {
			for _, di := range d {
				ws[di] = m
			}
		}
	}
	return nil
}

// compileGroup64 builds the group closure for one run of a RACER-kind
// stream, given the run's one-VRF closure: for NOR, compileRun64's loop with
// each op applied to the group's directories in turn, every VRF under its
// own mask, in a 4-, 3- or 2-wide loop by the group's size; for COPY, the
// same at four. Each loop has an unmasked variant that runs only when every
// mask of the group is all-ones.
func compileGroup64(kind micro.Kind, cols runCols, one kern64) group64 {
	d, a, b := cols.d, cols.a, cols.b
	switch kind {
	case micro.NOR:
		return func(g group) {
			switch g.n {
			case 4:
				nor4(g, d, a, b)
			case 3:
				nor3(g, d, a, b)
			default:
				nor2(g, d, a, b)
			}
		}
	case micro.COPY:
		return func(g group) {
			if g.n < groupWidth {
				g.each(one)
				return
			}
			w0, w1, w2, w3 := g.ws[0], g.ws[1], g.ws[2], g.ws[3]
			m0, m1, m2, m3 := g.m[0], g.m[1], g.m[2], g.m[3]
			_, _, _, _ = w0[0], w1[0], w2[0], w3[0]
			a := a[:len(d)]
			if m0&m1&m2&m3 == ^uint64(0) {
				for i, di := range d {
					ai := a[i]
					w0[di], w1[di], w2[di], w3[di] = w0[ai], w1[ai], w2[ai], w3[ai]
				}
				return
			}
			for i, di := range d {
				ai := a[i]
				x0, x1, x2, x3 := w0[ai], w1[ai], w2[ai], w3[ai]
				w0[di] = (w0[di] &^ m0) | (x0 & m0)
				w1[di] = (w1[di] &^ m1) | (x1 & m1)
				w2[di] = (w2[di] &^ m2) | (x2 & m2)
				w3[di] = (w3[di] &^ m3) | (x3 & m3)
			}
		}
	}
	// SET0, SET1 and CONDWR runs are short and carry no dependency chain:
	// each VRF runs the one-VRF closure in turn.
	return func(g group) { g.each(one) }
}

// nor4, nor3 and nor2 are the NOR group body's loops at each group size.
// The directories are arrays, so one bounds check on an operand index
// covers every VRF, and touching each directory once at entry hoists its
// nil check out of the loops.
func nor4(g group, d, a, b []micro.Slot) {
	w0, w1, w2, w3 := g.ws[0], g.ws[1], g.ws[2], g.ws[3]
	m0, m1, m2, m3 := g.m[0], g.m[1], g.m[2], g.m[3]
	_, _, _, _ = w0[0], w1[0], w2[0], w3[0]
	a, b = a[:len(d)], b[:len(d)]
	if m0&m1&m2&m3 == ^uint64(0) {
		for i, di := range d {
			ai, bi := a[i], b[i]
			w0[di] = ^(w0[ai] | w0[bi])
			w1[di] = ^(w1[ai] | w1[bi])
			w2[di] = ^(w2[ai] | w2[bi])
			w3[di] = ^(w3[ai] | w3[bi])
		}
		return
	}
	for i, di := range d {
		ai, bi := a[i], b[i]
		x0 := ^(w0[ai] | w0[bi])
		x1 := ^(w1[ai] | w1[bi])
		x2 := ^(w2[ai] | w2[bi])
		x3 := ^(w3[ai] | w3[bi])
		w0[di] = (w0[di] &^ m0) | (x0 & m0)
		w1[di] = (w1[di] &^ m1) | (x1 & m1)
		w2[di] = (w2[di] &^ m2) | (x2 & m2)
		w3[di] = (w3[di] &^ m3) | (x3 & m3)
	}
}

func nor3(g group, d, a, b []micro.Slot) {
	w0, w1, w2 := g.ws[0], g.ws[1], g.ws[2]
	m0, m1, m2 := g.m[0], g.m[1], g.m[2]
	_, _, _ = w0[0], w1[0], w2[0]
	a, b = a[:len(d)], b[:len(d)]
	if m0&m1&m2 == ^uint64(0) {
		for i, di := range d {
			ai, bi := a[i], b[i]
			w0[di] = ^(w0[ai] | w0[bi])
			w1[di] = ^(w1[ai] | w1[bi])
			w2[di] = ^(w2[ai] | w2[bi])
		}
		return
	}
	for i, di := range d {
		ai, bi := a[i], b[i]
		x0 := ^(w0[ai] | w0[bi])
		x1 := ^(w1[ai] | w1[bi])
		x2 := ^(w2[ai] | w2[bi])
		w0[di] = (w0[di] &^ m0) | (x0 & m0)
		w1[di] = (w1[di] &^ m1) | (x1 & m1)
		w2[di] = (w2[di] &^ m2) | (x2 & m2)
	}
}

func nor2(g group, d, a, b []micro.Slot) {
	w0, w1 := g.ws[0], g.ws[1]
	m0, m1 := g.m[0], g.m[1]
	_, _ = w0[0], w1[0]
	a, b = a[:len(d)], b[:len(d)]
	if m0&m1 == ^uint64(0) {
		for i, di := range d {
			ai, bi := a[i], b[i]
			w0[di] = ^(w0[ai] | w0[bi])
			w1[di] = ^(w1[ai] | w1[bi])
		}
		return
	}
	for i, di := range d {
		ai, bi := a[i], b[i]
		x0 := ^(w0[ai] | w0[bi])
		x1 := ^(w1[ai] | w1[bi])
		w0[di] = (w0[di] &^ m0) | (x0 & m0)
		w1[di] = (w1[di] &^ m1) | (x1 & m1)
	}
}

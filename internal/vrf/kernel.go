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
	rs    []micro.ResolvedOp // lanes > 64: the stream itself (shared with the caller, immutable)
	dirty uint64             // the architectural registers the stream writes (VRF.dirty's bits)
}

// kern64 executes one fused run over a single-word directory under mask m.
type kern64 func(ws []uint64, m uint64)

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
		for _, run := range micro.Runs(rs) {
			c.k64 = append(c.k64, compileRun64(run.Kind, rs[run.Start:run.Start+run.Len]))
		}
	}
	return c
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
func compileRun64(kind micro.Kind, ops []micro.ResolvedOp) kern64 {
	d := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.Dst })
	a := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.A })
	switch kind {
	case micro.NOR:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
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
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
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
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
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
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
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
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		cc := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
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
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		cc := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
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
		d2 := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.Dst2 })
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		cc := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
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

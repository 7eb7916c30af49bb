// Package vrf models a vector register file: the programmer-visible mapping
// of one or more physical memory arrays (§III). A VRF holds 64 architectural
// vector registers of 64 bits × n lanes, a small set of scratch registers and
// planes reserved for recipe temporaries, the conditional register written by
// comparison instructions, and the in-VRF mask register that power-gates
// individual lanes (§VI-B).
//
// All of it is stored in one flat word directory, at every lane count.
// Exec/ExecAll run micro-ops over bitvec.Plane views of that directory and
// are the reference the tests compare against. ExecAllResolved and
// RunCompiled work on the words directly: RunCompiled is the one-VRF
// kernel, through the one loop its lane geometry favours (kernel.go), and
// RunCompiledGroups is what the machine executes on every round, replayed or
// not — RACER-kind streams micro-op-major in groups of two to four VRFs, a
// lone VRF and every other stream through RunCompiled. ExecAllResolved is
// the uncompiled per-op executor, kept as the NoTrace reference interpreter
// the parity oracles compare those kernels against, one VRF at a time.
//
// Host data crosses into and out of the directory a 64×64 bit tile at a
// time (WriteReg, ReadReg: one bitvec.Transpose64 per 64 lanes), and a VRF
// outlives the request that filled it: Recycle returns one to the state New
// leaves by clearing only the registers its dirty bitmap names, so a pooled
// machine neither re-allocates nor re-zeroes a whole directory per request.
// Every writer into the directory therefore either marks the register it
// writes dirty or writes only the always-reset tail (scratch, temps, cond,
// constants, mask).
package vrf

import (
	"fmt"
	"math/bits"

	"mpu/internal/bitvec"
	"mpu/internal/isa"
	"mpu/internal/micro"
)

// VRF is the functional state of one vector register file. The planes live
// in one word directory allocated up front; the per-register plane views the
// reference paths use are built lazily, on first touch.
type VRF struct {
	lanes   int
	regs    [isa.NumRegs][]bitvec.Plane
	scratch [micro.NumScratchRegs][]bitvec.Plane
	temps   [micro.NumTempPlanes]bitvec.Plane
	cond    bitvec.Plane
	mask    bitvec.Plane
	zero    bitvec.Plane
	one     bitvec.Plane

	// words is the flat word directory backing every plane at every lane
	// count: micro.Slot s occupies words[s*wpl : (s+1)*wpl], so the resolved
	// executor (resolved.go) and the replay kernels (kernel.go) turn a slot
	// into its storage with one multiply. Plane views are lazy aliases over
	// this directory. When lanes is not a multiple of 64 the bits of each
	// plane's last word at or beyond the lane count stay zero — the mask
	// plane's included, which is what lets the word kernels ignore the tail:
	// a masked merge never touches a bit the mask does not enable.
	words []uint64
	wpl   int // words per plane: ceil(lanes / 64)

	// dirty has bit r set when architectural register r may hold a set bit:
	// the registers Recycle must clear. Writers over-mark freely (reading a
	// register through its plane views marks it too); none may under-mark.
	dirty uint64

	// MicroOps counts executed micro-ops, for cross-checking against the
	// control path's issue accounting.
	MicroOps uint64
}

// New returns a VRF with the given lane count. All lanes start enabled.
func New(lanes int) *VRF {
	if lanes <= 0 {
		panic(fmt.Sprintf("vrf: lane count %d must be positive", lanes))
	}
	v := &VRF{lanes: lanes, wpl: (lanes + isa.WordBits - 1) / isa.WordBits}
	v.words = make([]uint64, micro.NumSlots*v.wpl)
	// One flat directory backs every slot; plane views alias into it.
	slab := bitvec.PlanesOver(lanes, micro.NumTempPlanes+4, v.words[micro.SlotTempBase*v.wpl:])
	copy(v.temps[:], slab[:micro.NumTempPlanes])
	v.cond = slab[int(micro.SlotCond)-micro.SlotTempBase]
	v.zero = slab[int(micro.SlotZero)-micro.SlotTempBase]
	v.one = slab[int(micro.SlotOne)-micro.SlotTempBase]
	v.mask = slab[int(micro.SlotMask)-micro.SlotTempBase]
	v.one.Fill(true)
	v.mask.Fill(true)
	return v
}

// Recycle returns a used VRF to exactly the state New leaves, so a pooled
// machine can hand it to its next request: the registers marked dirty are
// cleared, everything from the scratch registers up (scratch, temps, cond,
// the constant and mask planes) is reset unconditionally, and MicroOps
// restarts at 0. A kernel that touched 3 of the 64 registers pays for 3 plus
// the 276-slot tail, not for the whole directory.
func (v *VRF) Recycle() {
	for d := v.dirty; d != 0; d &= d - 1 {
		clear(v.regWords(bits.TrailingZeros64(d)))
	}
	clear(v.words[micro.SlotScratchBase*v.wpl:])
	v.one.Fill(true)
	v.mask.Fill(true)
	v.dirty = 0
	v.MicroOps = 0
}

// Lanes reports the vector width of this VRF.
func (v *VRF) Lanes() int { return v.lanes }

// newRegPlanes aliases the 64 planes of one architectural or scratch
// register over the word directory. base is the register's first slot.
func (v *VRF) newRegPlanes(base int) []bitvec.Plane {
	return bitvec.PlanesOver(v.lanes, isa.WordBits, v.words[base*v.wpl:])
}

// regWords returns the storage of architectural register r: its 64 planes
// are consecutive spans, bit b of 64-lane tile wi at word b*wpl+wi.
func (v *VRF) regWords(r int) []uint64 {
	if r < 0 || r >= isa.NumRegs {
		panic(fmt.Sprintf("vrf: register %d out of range", r))
	}
	n := isa.WordBits * v.wpl
	return v.words[r*n : (r+1)*n]
}

// regPlanes returns the plane views of register r and marks it dirty: the
// caller may write through them.
func (v *VRF) regPlanes(r int) []bitvec.Plane {
	if r < 0 || r >= isa.NumRegs {
		panic(fmt.Sprintf("vrf: register %d out of range", r))
	}
	v.dirty |= 1 << uint(r)
	if v.regs[r] == nil {
		v.regs[r] = v.newRegPlanes(r * isa.WordBits)
	}
	return v.regs[r]
}

func (v *VRF) scratchPlanes(s int) []bitvec.Plane {
	if s < 0 || s >= micro.NumScratchRegs {
		panic(fmt.Sprintf("vrf: scratch register %d out of range", s))
	}
	if v.scratch[s] == nil {
		v.scratch[s] = v.newRegPlanes(micro.SlotScratchBase + s*isa.WordBits)
	}
	return v.scratch[s]
}

// plane resolves a micro-op plane reference to backing storage.
func (v *VRF) plane(r micro.Ref) bitvec.Plane {
	switch r.Space {
	case micro.SpaceReg:
		if r.Bit >= isa.WordBits {
			panic(fmt.Sprintf("vrf: bit %d out of range", r.Bit))
		}
		return v.regPlanes(int(r.Idx))[r.Bit]
	case micro.SpaceScratch:
		if r.Bit >= isa.WordBits {
			panic(fmt.Sprintf("vrf: bit %d out of range", r.Bit))
		}
		return v.scratchPlanes(int(r.Idx))[r.Bit]
	case micro.SpaceTemp:
		if int(r.Idx) >= micro.NumTempPlanes {
			panic(fmt.Sprintf("vrf: temp plane %d out of range", r.Idx))
		}
		return v.temps[r.Idx]
	case micro.SpaceCond:
		return v.cond
	case micro.SpaceZero:
		return v.zero
	case micro.SpaceOne:
		return v.one
	}
	panic(fmt.Sprintf("vrf: bad plane space %d", r.Space))
}

// Exec applies one micro-op under the VRF's lane mask. CONDWR and MASKRD
// bypass masking, per §VI-B (GETMASK disables lane control so all mask bits
// are copied; comparisons clear the conditional bit of disabled lanes so
// stale condition state can never re-enable a lane).
func (v *VRF) Exec(op micro.Op) {
	v.MicroOps++
	switch op.Kind {
	case micro.NOR:
		bitvec.Nor(v.plane(op.Dst), v.plane(op.A), v.plane(op.B), v.mask)
	case micro.AND:
		bitvec.And(v.plane(op.Dst), v.plane(op.A), v.plane(op.B), v.mask)
	case micro.OR:
		bitvec.Or(v.plane(op.Dst), v.plane(op.A), v.plane(op.B), v.mask)
	case micro.XOR:
		bitvec.Xor(v.plane(op.Dst), v.plane(op.A), v.plane(op.B), v.mask)
	case micro.NOT:
		bitvec.Not(v.plane(op.Dst), v.plane(op.A), v.mask)
	case micro.COPY:
		bitvec.Copy(v.plane(op.Dst), v.plane(op.A), v.mask)
	case micro.MAJ:
		bitvec.Maj(v.plane(op.Dst), v.plane(op.A), v.plane(op.B), v.plane(op.C), v.mask)
	case micro.MUX:
		bitvec.Mux(v.plane(op.Dst), v.plane(op.A), v.plane(op.B), v.plane(op.C), v.mask)
	case micro.FADD:
		bitvec.FullAdd(v.plane(op.Dst), v.plane(op.Dst2), v.plane(op.A), v.plane(op.B), v.plane(op.C), v.mask)
	case micro.SET0:
		bitvec.SetAll(v.plane(op.Dst), false, v.mask)
	case micro.SET1:
		bitvec.SetAll(v.plane(op.Dst), true, v.mask)
	case micro.CONDWR:
		// cond := src AND mask, written unmasked: disabled lanes read 0.
		bitvec.And(v.cond, v.plane(op.A), v.mask, v.one)
	case micro.MASKRD:
		bitvec.Copy(v.plane(op.Dst), v.mask, v.one)
	default:
		panic(fmt.Sprintf("vrf: unknown micro-op kind %d", op.Kind))
	}
	if op.Dst.Space == micro.SpaceZero || op.Dst.Space == micro.SpaceOne ||
		op.Dst2.Space == micro.SpaceOne {
		panic("vrf: micro-op wrote a constant plane")
	}
}

// ExecAll applies a micro-op sequence in order.
func (v *VRF) ExecAll(ops []micro.Op) {
	for _, op := range ops {
		v.Exec(op)
	}
}

// SetMaskFromCond loads the mask register from the conditional register
// (SETMASK cond).
func (v *VRF) SetMaskFromCond() { v.mask.CopyFrom(v.cond) }

// SetMaskFromReg loads the mask register from bit 0 of register r
// (SETMASK r<N>).
func (v *VRF) SetMaskFromReg(r int) { copy(v.span(micro.SlotMask), v.regWords(r)[:v.wpl]) }

// Unmask re-enables every lane (UNMASK).
func (v *VRF) Unmask() { v.mask.Fill(true) }

// MaskAny reports whether any lane remains enabled; the EFI reads this to
// evaluate JUMP_COND.
func (v *VRF) MaskAny() bool { return v.mask.AnySet() }

// MaskPop returns the number of enabled lanes.
func (v *VRF) MaskPop() int { return v.mask.PopCount() }

// GetMaskInto copies the lane mask into bit 0 of register r and clears the
// remaining bits, bypassing lane gating (GETMASK). It writes the word
// directory directly: the register's 64 planes are consecutive spans, and
// the mask's zero tail keeps the tail invariant.
func (v *VRF) GetMaskInto(r int) {
	reg := v.regWords(r)
	v.dirty |= 1 << uint(r)
	copy(reg, v.span(micro.SlotMask))
	clear(reg[v.wpl:])
}

// ReadWord returns the 64-bit value of register r in lane l.
func (v *VRF) ReadWord(r, l int) uint64 {
	ps := v.regPlanes(r)
	var x uint64
	for b := 0; b < isa.WordBits; b++ {
		if ps[b].Get(l) {
			x |= 1 << uint(b)
		}
	}
	return x
}

// WriteWord stores a 64-bit value into register r, lane l, bypassing the
// lane mask (host-side data loading).
func (v *VRF) WriteWord(r, l int, x uint64) {
	ps := v.regPlanes(r)
	for b := 0; b < isa.WordBits; b++ {
		ps[b].Set(l, x>>uint(b)&1 == 1)
	}
}

// ReadReg returns all lane values of register r. Each 64-lane tile is
// gathered from the register's 64 planes and transposed back into lane
// order; the planes' zero tails come out as lanes the copy drops.
func (v *VRF) ReadReg(r int) []uint64 {
	reg := v.regWords(r)
	out := make([]uint64, v.lanes)
	var tile [isa.WordBits]uint64
	for wi := 0; wi < v.wpl; wi++ {
		for b := range tile {
			tile[b] = reg[b*v.wpl+wi]
		}
		bitvec.Transpose64(&tile)
		copy(out[wi*isa.WordBits:], tile[:])
	}
	return out
}

// WriteReg stores vals into register r starting at lane 0; extra lanes are
// zeroed. It panics if vals exceeds the lane count. Each 64-lane tile is
// zero-padded, transposed into plane order and stored straight into the
// word directory; the padding is what keeps plane tails zero.
func (v *VRF) WriteReg(r int, vals []uint64) {
	if len(vals) > v.lanes {
		panic(fmt.Sprintf("vrf: %d values exceed %d lanes", len(vals), v.lanes))
	}
	reg := v.regWords(r)
	v.dirty |= 1 << uint(r)
	var tile [isa.WordBits]uint64
	for wi := 0; wi < v.wpl; wi++ {
		n := 0
		if lo := wi * isa.WordBits; lo < len(vals) {
			n = copy(tile[:], vals[lo:])
		}
		clear(tile[n:])
		bitvec.Transpose64(&tile)
		for b := range tile {
			reg[b*v.wpl+wi] = tile[b]
		}
	}
}

// CondBits returns the conditional register as a lane-indexed bool slice.
func (v *VRF) CondBits() []bool {
	out := make([]bool, v.lanes)
	for l := 0; l < v.lanes; l++ {
		out[l] = v.cond.Get(l)
	}
	return out
}

// MaskBits returns the mask register as a lane-indexed bool slice.
func (v *VRF) MaskBits() []bool {
	out := make([]bool, v.lanes)
	for l := 0; l < v.lanes; l++ {
		out[l] = v.mask.Get(l)
	}
	return out
}

// CopyRegister copies register src of from into register dst of v, bypassing
// lane masks. Lane counts must match; this is the DTC's MEMCPY datapath. A
// register is one contiguous span of the word directory, so it is one copy.
func CopyRegister(from *VRF, src int, to *VRF, dst int) {
	if from.lanes != to.lanes {
		panic(fmt.Sprintf("vrf: MEMCPY lane mismatch %d vs %d", from.lanes, to.lanes))
	}
	copy(to.regWords(dst), from.regWords(src))
	to.dirty |= 1 << uint(dst)
}

// TouchedRegs returns the architectural registers that may hold a set bit
// (the dirty bitmap), in ascending order — useful for debugging and state
// dumps.
func (v *VRF) TouchedRegs() []int {
	var out []int
	for d := v.dirty; d != 0; d &= d - 1 {
		out = append(out, bits.TrailingZeros64(d))
	}
	return out
}

package micro

import "fmt"

// Resolved micro-ops are the trace-friendly form of a recipe expansion: every
// plane Ref is pre-resolved to a dense Slot index into a VRF's plane
// directory, so executing one costs an array load instead of a space-switch
// with range checks. The numbering is geometry-independent — the same
// resolved stream drives every VRF of a machine — which is what lets the
// ensemble trace engine (internal/trace) cache one compiled body per core
// and replay it against whichever VRFs each scheduling round activates.

// Slot is a dense index over every plane a VRF can hold: architectural
// register bits first, then scratch register bits, temp planes, and the four
// fixed planes (cond, zero, one, mask).
type Slot uint16

// Slot layout. SlotNumRegs/SlotWordBits mirror isa.NumRegs/isa.WordBits
// (micro sits below isa in the dependency order; internal/vrf carries a
// compile-time assertion that the two stay equal).
const (
	SlotNumRegs  = 64
	SlotWordBits = 64

	// SlotScratchBase and SlotTempBase are the first scratch-register and
	// temp-plane slots; internal/vrf decodes slots arithmetically against
	// these bases on its word-level fast path.
	SlotScratchBase = SlotNumRegs * SlotWordBits
	SlotTempBase    = SlotScratchBase + NumScratchRegs*SlotWordBits

	// SlotCond, SlotZero, SlotOne, SlotMask address the fixed planes.
	SlotCond = Slot(SlotTempBase + NumTempPlanes)
	SlotZero = SlotCond + 1
	SlotOne  = SlotZero + 1
	SlotMask = SlotOne + 1

	// NumSlots sizes a VRF's plane directory.
	NumSlots = int(SlotMask) + 1
)

// SlotOf returns the directory slot for a plane reference.
func SlotOf(r Ref) Slot {
	switch r.Space {
	case SpaceReg:
		return Slot(int(r.Idx)*SlotWordBits + int(r.Bit))
	case SpaceScratch:
		return Slot(SlotScratchBase + int(r.Idx)*SlotWordBits + int(r.Bit))
	case SpaceTemp:
		return Slot(SlotTempBase + int(r.Idx))
	case SpaceCond:
		return SlotCond
	case SpaceZero:
		return SlotZero
	case SpaceOne:
		return SlotOne
	}
	panic(fmt.Sprintf("micro: bad plane space %d", r.Space))
}

// RefOf inverts SlotOf. It panics on SlotMask: the mask plane is not
// addressable by recipe expansions, so no resolved operand ever names it.
func RefOf(s Slot) Ref {
	si := int(s)
	switch {
	case si < SlotScratchBase:
		return Ref{Space: SpaceReg, Idx: uint8(si / SlotWordBits), Bit: uint8(si % SlotWordBits)}
	case si < SlotTempBase:
		si -= SlotScratchBase
		return Ref{Space: SpaceScratch, Idx: uint8(si / SlotWordBits), Bit: uint8(si % SlotWordBits)}
	case s < SlotCond:
		return Ref{Space: SpaceTemp, Idx: uint8(si - SlotTempBase)}
	case s == SlotCond:
		return Ref{Space: SpaceCond}
	case s == SlotZero:
		return Ref{Space: SpaceZero}
	case s == SlotOne:
		return Ref{Space: SpaceOne}
	}
	panic(fmt.Sprintf("micro: bad slot %d", s))
}

// ResolvedOp is one pre-resolved micro-op. Dst2 is used only by FADD.
type ResolvedOp struct {
	Kind      Kind
	Dst, Dst2 Slot
	A, B, C   Slot
}

// Op converts back to the Ref-addressed form, for executors without a
// slot-indexed fast path.
func (r ResolvedOp) Op() Op {
	return Op{
		Kind: r.Kind,
		Dst:  RefOf(r.Dst), Dst2: RefOf(r.Dst2),
		A: RefOf(r.A), B: RefOf(r.B), C: RefOf(r.C),
	}
}

// Resolve pre-resolves a recipe expansion. It also performs, once, the
// constant-plane write check the interpreting executor repeats per op, so
// the resolved fast path can skip it.
func Resolve(ops []Op) []ResolvedOp {
	out := make([]ResolvedOp, len(ops))
	for i, op := range ops {
		if op.Dst.Space == SpaceZero || op.Dst.Space == SpaceOne ||
			op.Dst2.Space == SpaceOne {
			panic(fmt.Sprintf("micro: op %d writes a constant plane", i))
		}
		out[i] = ResolveOp(op)
	}
	return out
}

// ResolveOp resolves one micro-op, without Resolve's constant-plane check.
func ResolveOp(op Op) ResolvedOp {
	return ResolvedOp{
		Kind: op.Kind,
		Dst:  SlotOf(op.Dst), Dst2: SlotOf(op.Dst2),
		A: SlotOf(op.A), B: SlotOf(op.B), C: SlotOf(op.C),
	}
}

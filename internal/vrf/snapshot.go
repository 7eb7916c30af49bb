package vrf

import (
	"fmt"

	"mpu/internal/isa"
	"mpu/internal/snap"
)

// Snapshot encoding of one VRF: the whole word directory is dumped
// wholesale — registers, scratch, temps, cond, and the constant and mask
// planes all live in one slab, so one copy captures everything. The dirty
// bitmap is bookkeeping about those words, not state, and is not encoded.
// The bool ahead of the words marked the flat layout when a second,
// per-register layout existed; it stays in the stream as true so snapshots
// of word-aligned geometries keep their bytes.
//
// A decode re-encodes byte-identically: it is a verbatim word copy that
// rejects dirty tail bits instead of normalizing them.

// EncodeState appends the VRF's architectural state to w.
func (v *VRF) EncodeState(w *snap.Writer) {
	w.U64(v.MicroOps)
	w.Bool(true)
	for _, x := range v.words {
		w.U64(x)
	}
}

// DecodeState overwrites a freshly constructed VRF (same lane count as the
// encoder's) with the stream's state. On error the VRF must be discarded.
// The stream may set any bit, so every register counts as dirty afterwards.
func (v *VRF) DecodeState(r *snap.Reader) error {
	v.dirty = ^uint64(0)
	v.MicroOps = r.U64()
	flat := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if !flat {
		return fmt.Errorf("vrf: snapshot uses the retired per-register plane layout")
	}
	// Bits at or beyond the lane count in a plane's last word would be ghost
	// lanes: invisible to register reads, but counted by MaskAny/MaskPop and
	// carried along by every word kernel.
	var ghost uint64
	if n := v.lanes % isa.WordBits; n != 0 {
		ghost = ^uint64(0) << uint(n)
	}
	for i := range v.words {
		x := r.U64()
		if x&ghost != 0 && i%v.wpl == v.wpl-1 {
			return fmt.Errorf("vrf: snapshot plane %d has bits set beyond lane %d", i/v.wpl, v.lanes)
		}
		v.words[i] = x
	}
	return r.Err()
}

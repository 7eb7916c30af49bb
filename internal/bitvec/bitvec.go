// Package bitvec provides the bit-plane substrate underlying every simulated
// PUM memory array. A Plane holds one bit for each of n vector lanes, packed
// 64 lanes per machine word. Bitwise micro-ops (NOR, AND, TRA/majority, ...)
// operate on whole planes at once, which is exactly how a column-wide PUM
// micro-op behaves in hardware: one electrical operation touches the same bit
// position of every lane simultaneously.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Plane is a single bit position across n vector lanes. The zero value is
// unusable; create planes with New.
type Plane struct {
	n int
	w []uint64
}

// New returns an all-zero plane spanning lanes lanes.
func New(lanes int) Plane {
	if lanes < 0 {
		panic(fmt.Sprintf("bitvec: negative lane count %d", lanes))
	}
	return Plane{n: lanes, w: make([]uint64, (lanes+63)/64)}
}

// PlanesOver returns count planes of the given lane width aliasing an
// existing backing slab (plane i occupies backing[i*w:(i+1)*w] for
// w = ceil(lanes/64)). internal/vrf uses it to hang lazy plane views over a
// word directory allocated up front, so the plane and word paths always
// observe the same storage. Writers through the backing must preserve the
// tail invariant (bits at or beyond the lane count stay zero).
func PlanesOver(lanes, count int, backing []uint64) []Plane {
	if lanes < 0 || count < 0 {
		panic(fmt.Sprintf("bitvec: negative slab dimensions %d×%d", count, lanes))
	}
	words := (lanes + 63) / 64
	if len(backing) < words*count {
		panic(fmt.Sprintf("bitvec: backing holds %d words, planes need %d", len(backing), words*count))
	}
	out := make([]Plane, count)
	for i := range out {
		out[i] = Plane{n: lanes, w: backing[i*words : (i+1)*words : (i+1)*words]}
	}
	return out
}

// Len reports the number of lanes in the plane.
func (p Plane) Len() int { return p.n }

// words returns the number of backing words.
func (p Plane) words() int { return len(p.w) }

// tailMask is a mask of the valid bits in the final backing word.
func (p Plane) tailMask() uint64 {
	r := p.n % 64
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

// clampTail zeroes bits beyond the lane count so PopCount and AnySet stay
// exact after full-word operations.
func (p Plane) clampTail() {
	if len(p.w) == 0 {
		return
	}
	p.w[len(p.w)-1] &= p.tailMask()
}

// Get reports the bit of lane i.
func (p Plane) Get(i int) bool {
	p.check(i)
	return p.w[i/64]>>(uint(i)%64)&1 == 1
}

// Set writes bit b to lane i.
func (p Plane) Set(i int, b bool) {
	p.check(i)
	if b {
		p.w[i/64] |= 1 << (uint(i) % 64)
	} else {
		p.w[i/64] &^= 1 << (uint(i) % 64)
	}
}

func (p Plane) check(i int) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("bitvec: lane %d out of range [0,%d)", i, p.n))
	}
}

// Clone returns an independent copy of p.
func (p Plane) Clone() Plane {
	q := Plane{n: p.n, w: make([]uint64, len(p.w))}
	copy(q.w, p.w)
	return q
}

// CopyFrom overwrites p with src. Lane counts must match.
func (p Plane) CopyFrom(src Plane) {
	p.mustMatch(src)
	copy(p.w, src.w)
}

func (p Plane) mustMatch(q Plane) {
	if p.n != q.n {
		panic(fmt.Sprintf("bitvec: lane count mismatch %d vs %d", p.n, q.n))
	}
}

// Fill sets every lane to b.
func (p Plane) Fill(b bool) {
	var v uint64
	if b {
		v = ^uint64(0)
	}
	for i := range p.w {
		p.w[i] = v
	}
	p.clampTail()
}

// AnySet reports whether any lane bit is 1.
func (p Plane) AnySet() bool {
	for _, w := range p.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// PopCount returns the number of lanes whose bit is 1.
func (p Plane) PopCount() int {
	c := 0
	for _, w := range p.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether p and q have identical lane bits.
func (p Plane) Equal(q Plane) bool {
	if p.n != q.n {
		return false
	}
	for i := range p.w {
		if p.w[i] != q.w[i] {
			return false
		}
	}
	return true
}

// The masked write-back helper: dst lanes where mask=1 take v; others keep
// their old value. mask may share backing with neither dst nor v.
func mergeMasked(dst, v, mask Plane) {
	for i := range dst.w {
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v.w[i] & mask.w[i])
	}
}

// Nor computes dst = NOR(a, b) on lanes where mask=1 (other lanes of dst are
// preserved). This mirrors an in-ReRAM NOR with per-lane voltage gating. dst
// may alias a or b.
func Nor(dst, a, b, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := ^(a.w[i] | b.w[i])
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
	dst.clampTail()
}

// And computes dst = a AND b under mask.
func And(dst, a, b, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := a.w[i] & b.w[i]
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
}

// Or computes dst = a OR b under mask.
func Or(dst, a, b, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := a.w[i] | b.w[i]
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
}

// Xor computes dst = a XOR b under mask.
func Xor(dst, a, b, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := a.w[i] ^ b.w[i]
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
}

// Not computes dst = NOT a under mask.
func Not(dst, a, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := ^a.w[i]
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
	dst.clampTail()
}

// Maj computes the three-input majority dst = MAJ(a, b, c) under mask. This
// is the charge-sharing primitive of a DRAM triple-row activation (TRA).
func Maj(dst, a, b, c, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(c)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := (a.w[i] & b.w[i]) | (b.w[i] & c.w[i]) | (a.w[i] & c.w[i])
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
}

// Mux computes dst = sel?a:b per lane under mask (sel=1 chooses a).
func Mux(dst, a, b, sel, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(sel)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := (a.w[i] & sel.w[i]) | (b.w[i] &^ sel.w[i])
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
}

// FullAdd computes, in one step, sum = a XOR b XOR cin and cout = MAJ(a,b,cin)
// under mask. This models the dedicated single-cycle CMOS full adders that
// augment bitline computation in Duality Cache. sum and cout must not alias
// each other; sum/cout may alias inputs only if distinct planes.
func FullAdd(sum, cout, a, b, cin, mask Plane) {
	sum.mustMatch(a)
	sum.mustMatch(b)
	sum.mustMatch(cin)
	sum.mustMatch(cout)
	sum.mustMatch(mask)
	for i := range sum.w {
		aw, bw, cw := a.w[i], b.w[i], cin.w[i]
		s := aw ^ bw ^ cw
		c := (aw & bw) | (bw & cw) | (aw & cw)
		sum.w[i] = (sum.w[i] &^ mask.w[i]) | (s & mask.w[i])
		cout.w[i] = (cout.w[i] &^ mask.w[i]) | (c & mask.w[i])
	}
}

// Copy writes dst = a under mask.
func Copy(dst, a, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(mask)
	mergeMasked(dst, a, mask)
}

// SetAll writes dst = b under mask.
func SetAll(dst Plane, b bool, mask Plane) {
	dst.mustMatch(mask)
	var v uint64
	if b {
		v = ^uint64(0)
	}
	for i := range dst.w {
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
	dst.clampTail()
}

// AndNot computes dst = a AND NOT b under mask.
func AndNot(dst, a, b, mask Plane) {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dst.mustMatch(mask)
	for i := range dst.w {
		v := a.w[i] &^ b.w[i]
		dst.w[i] = (dst.w[i] &^ mask.w[i]) | (v & mask.w[i])
	}
}

// String renders the plane as lane bits, lane 0 first, for debugging.
func (p Plane) String() string {
	buf := make([]byte, p.n)
	for i := 0; i < p.n; i++ {
		if p.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

package bitvec

// Multi-word slab kernels: the raw []uint64 counterparts of the Plane
// operations, for callers that address plane storage through a word
// directory rather than Plane views (internal/vrf's resolved executor,
// which is also its multi-word replay kernel). Each operand is one plane's
// backing span — wpl = ceil(lanes/64) words — and all spans of a call must
// have the same length.
//
// The kernels never clamp a tail. They stay exact at lane counts that are
// not a multiple of 64 because every write is a masked merge (dst&^m | v&m)
// or a store of a value ANDed with m: as long as the mask span's bits at or
// beyond the lane count are zero — the invariant internal/vrf maintains —
// no kernel can set a tail bit in any other span.

// NorWords computes dst = NOR(a, b) on lanes where m=1.
func NorWords(dst, a, b, m []uint64) {
	a, b, m = a[:len(dst)], b[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := ^(a[i] | b[i])
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// AndWords computes dst = a AND b under m.
func AndWords(dst, a, b, m []uint64) {
	a, b, m = a[:len(dst)], b[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := a[i] & b[i]
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// OrWords computes dst = a OR b under m.
func OrWords(dst, a, b, m []uint64) {
	a, b, m = a[:len(dst)], b[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := a[i] | b[i]
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// XorWords computes dst = a XOR b under m.
func XorWords(dst, a, b, m []uint64) {
	a, b, m = a[:len(dst)], b[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := a[i] ^ b[i]
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// NotWords computes dst = NOT a under m.
func NotWords(dst, a, m []uint64) {
	a, m = a[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := ^a[i]
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// CopyWords writes dst = a under m.
func CopyWords(dst, a, m []uint64) {
	a, m = a[:len(dst)], m[:len(dst)]
	for i := range dst {
		dst[i] = (dst[i] &^ m[i]) | (a[i] & m[i])
	}
}

// MajWords computes the three-input majority dst = MAJ(a, b, c) under m.
func MajWords(dst, a, b, c, m []uint64) {
	a, b, c, m = a[:len(dst)], b[:len(dst)], c[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := (a[i] & b[i]) | (b[i] & c[i]) | (a[i] & c[i])
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// MuxWords computes dst = sel?a:b per lane under m (sel=1 chooses a).
func MuxWords(dst, a, b, sel, m []uint64) {
	a, b, sel, m = a[:len(dst)], b[:len(dst)], sel[:len(dst)], m[:len(dst)]
	for i := range dst {
		v := (a[i] & sel[i]) | (b[i] &^ sel[i])
		dst[i] = (dst[i] &^ m[i]) | (v & m[i])
	}
}

// FullAddWords computes sum = a XOR b XOR cin and cout = MAJ(a, b, cin)
// under m. Word i's inputs are read before either output word is written,
// so outputs may alias inputs (but not each other), exactly like
// bitvec.FullAdd on planes.
func FullAddWords(sum, cout, a, b, cin, m []uint64) {
	cout, a, b, cin, m = cout[:len(sum)], a[:len(sum)], b[:len(sum)], cin[:len(sum)], m[:len(sum)]
	for i := range sum {
		aw, bw, cw := a[i], b[i], cin[i]
		s := aw ^ bw ^ cw
		co := (aw & bw) | (bw & cw) | (aw & cw)
		sum[i] = (sum[i] &^ m[i]) | (s & m[i])
		cout[i] = (cout[i] &^ m[i]) | (co & m[i])
	}
}

// ClearWords clears masked lanes: dst &^= m (SET0).
func ClearWords(dst, m []uint64) {
	m = m[:len(dst)]
	for i := range dst {
		dst[i] &^= m[i]
	}
}

// SetWords sets masked lanes: dst |= m (SET1).
func SetWords(dst, m []uint64) {
	m = m[:len(dst)]
	for i := range dst {
		dst[i] |= m[i]
	}
}

// AndIntoWords writes dst = a AND m, unmasked — the CONDWR store: disabled
// lanes read conditional bit 0 regardless of dst's prior contents.
func AndIntoWords(dst, a, m []uint64) {
	a, m = a[:len(dst)], m[:len(dst)]
	for i := range dst {
		dst[i] = a[i] & m[i]
	}
}

// Transpose64 transposes a 64×64 bit tile in place: afterwards bit c of
// t[r] is what bit r of t[c] was. It is how host data crosses between lane
// order (one 64-bit value per lane) and plane order (one word per bit
// position holding 64 lanes) — internal/vrf's WriteReg and ReadReg move a
// register one tile at a time. The network is the recursive block swap: at
// stage j (32, 16, ..., 1) the high-column half of each upper row block
// trades places with the low-column half of the row block j below it, 32
// masked swaps per stage and six stages per tile, against the 4096
// shift-mask-or steps of moving the bits one at a time. Applying it twice
// restores the tile.
func Transpose64(t *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			lo, hi := &t[k&63], &t[(k+j)&63] // the &63 only sheds the bounds checks
			x := (*lo>>uint(j) ^ *hi) & m
			*lo ^= x << uint(j)
			*hi ^= x
		}
	}
}

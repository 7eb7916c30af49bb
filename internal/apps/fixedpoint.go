// Package apps implements the paper's three end-to-end applications
// (§VIII-D, Table IV): LLMEncode, BlackScholes, and EditDistance. Each runs
// entirely on simulated MPUs — multiple compute ensembles plus collective
// communication over the mesh — and is verified against a Go reference that
// mirrors the same fixed-point arithmetic.
//
// Scale note: the paper's instances use 130/2/23 MPUs on full chips; these
// reproductions run the same program structure on scaled-down instances
// (the MPU counts are configurable), which preserves the compute/
// communication patterns that drive the Fig. 14/15 comparisons.
package apps

import (
	"mpu/internal/ezpim"
)

// Q is the fixed-point scale (Q16: 16 fractional bits).
const Q = 65536

// Fixed-point helper emitters. Each emitter has a matching ref* function
// computing the identical integer arithmetic, so application outputs are
// bit-exact against the references. All helpers assume non-negative inputs
// and use scratch registers [s, s+needs).

// emitExpFx emits out = expFx(x): the Q16 cubic Taylor approximation
// Q + x + x²/2Q + x³/6Q². Clobbers s..s+2.
func emitExpFx(b *ezpim.Builder, x, out, s int) {
	c2, c6 := s, s+1
	t := s + 2
	b.Const(c2, 2*Q)
	b.Const(c6, 6*Q)
	b.Mul(x, x, t)   // x²
	b.Div(t, c2, c2) // x²/2Q   (c2 reused as result)
	b.Mul(t, x, t)   // x³  (t was x²; x³ = x²·x)
	b.Div(t, c6, t)  // x³/6Q ... then /Q again below
	b.Const(c6, Q)
	b.Div(t, c6, t) // x³/6Q²
	b.Add(x, c6, out)
	b.Add(out, c2, out)
	b.Add(out, t, out)
}

// refExpFx mirrors emitExpFx.
func refExpFx(x uint64) uint64 {
	x2 := x * x
	x3 := x2 * x
	return Q + x + x2/(2*Q) + x3/(6*Q)/Q
}

// emitLn1pFx emits out = ln(1+z) ≈ z − z²/2Q + z³/3Q² for z in [0, Q/2].
// Clobbers s..s+2.
func emitLn1pFx(b *ezpim.Builder, z, out, s int) {
	t2, t3, c := s, s+1, s+2
	b.Mul(z, z, t2) // z²
	b.Mul(t2, z, t3)
	b.Const(c, 2*Q)
	b.Div(t2, c, t2) // z²/2Q
	b.Const(c, 3*Q)
	b.Div(t3, c, t3)
	b.Const(c, Q)
	b.Div(t3, c, t3) // z³/3Q²
	b.Sub(z, t2, out)
	b.Add(out, t3, out)
}

// refLn1pFx mirrors emitLn1pFx.
func refLn1pFx(z uint64) uint64 {
	z2 := z * z
	z3 := z2 * z
	return z - z2/(2*Q) + z3/(3*Q)/Q
}

// emitSqrtFx emits out = sqrtFx(x) for Q16 x: floor(sqrt(x << 16)).
// Clobbers s..s+4; x is preserved (the shift happens in s+4).
func emitSqrtFx(b *ezpim.Builder, x, out, s int) {
	sh := s + 4
	b.Mov(x, sh)
	for i := 0; i < 16; i++ {
		b.LShift(sh, sh)
	}
	ezpim.ISqrt(b, sh, out, s)
}

// refSqrtFx mirrors emitSqrtFx.
func refSqrtFx(x uint64) uint64 { return ezpim.RefISqrt(x << 16) }

// emitLogisticCDF emits out = N(d) ≈ Q·E/(E+Q) with E = expFx(1.702·d)
// (the logistic approximation of the standard normal CDF; this is the
// "CORDIC-style software subroutine" role from §VIII-D). d must be ≥ 0.
// Clobbers s..s+4.
func emitLogisticCDF(b *ezpim.Builder, d, out, s int) {
	k, arg := s+3, s+4
	b.Const(k, 111543) // 1.702 in Q16
	b.Mul(d, k, arg)
	b.Const(k, Q)
	b.Div(arg, k, arg) // 1.702·d in Q16
	emitExpFx(b, arg, out, s)
	// out = E; N = E·Q/(E+Q)
	b.Add(out, k, arg) // E + Q  (k still holds Q)
	b.Mul(out, k, out) // E·Q
	b.Div(out, arg, out)
}

// refLogisticCDF mirrors emitLogisticCDF.
func refLogisticCDF(d uint64) uint64 {
	arg := d * 111543 / Q
	e := refExpFx(arg)
	return e * Q / (e + Q)
}

// refAbsDiff mirrors ezpim.AbsDiff.
func refAbsDiff(a, b uint64) uint64 {
	if int64(a-b) < 0 {
		return b - a
	}
	return a - b
}

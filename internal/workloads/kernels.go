// Package workloads defines the 21 data-intensive kernels of the evaluation
// (§VII) in four groups — basic, branch-focused, stencil, and complex — plus
// the harness that runs them on a simulated machine and checks results
// against scalar references.
//
// Every kernel is expressed as per-lane computation over preloaded vector
// registers. Stencils follow the standard PUM data layout: the host loads
// shifted copies of the input signal into adjacent registers, so x[i-1],
// x[i], x[i+1] are lane-aligned. Reduction-style operands (softmax
// denominators, thresholds, filter weights) arrive as broadcast registers.
package workloads

import (
	"math/rand"
	"sync"

	"mpu/internal/ezpim"
)

// Group classifies kernels per §VII.
type Group int

// Kernel groups.
const (
	Basic Group = iota
	Branch
	Stencil
	Complex
)

func (g Group) String() string {
	switch g {
	case Basic:
		return "basic"
	case Branch:
		return "branch"
	case Stencil:
		return "stencil"
	case Complex:
		return "complex"
	}
	return "unknown"
}

// GPUTraits characterize the kernel for the RTX 4090 roofline model.
type GPUTraits struct {
	Ops        float64 // 64-bit integer ops per element
	Bytes      float64 // device-memory bytes per element per pass
	Passes     int
	Divergence float64 // SIMT divergence penalty
}

// Kernel is one benchmark kernel.
type Kernel struct {
	Name  string
	Group Group

	// Inputs is the number of consecutive registers r0..rInputs-1 the
	// generator fills; Out is the result register.
	Inputs int
	Out    int

	// Gen produces per-register lane values for n elements.
	Gen func(rng *rand.Rand, n int) [][]uint64

	// Ref computes the expected output of one lane from its register
	// values.
	Ref func(in []uint64) uint64

	// Subs optionally defines ISA subroutines (emitted before main).
	Subs func(b *ezpim.Builder)

	// Emit writes the kernel body (ensemble context).
	Emit func(b *ezpim.Builder)

	GPU GPUTraits
}

func broadcast(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func randSmall(rng *rand.Rand, n int, bound uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() % bound
	}
	return out
}

// signal generates a smooth-ish positive signal and returns k shifted copies
// (offset -k/2..+k/2), mimicking the host's stencil data layout.
func shiftedSignal(rng *rand.Rand, n, k int, bound uint64) [][]uint64 {
	pad := k / 2
	base := make([]uint64, n+2*pad)
	for i := range base {
		base[i] = rng.Uint64() % bound
	}
	out := make([][]uint64, k)
	for s := 0; s < k; s++ {
		out[s] = base[s : s+n]
	}
	return out
}

func refAbsDiff(a, b uint64) uint64 {
	if int64(a) >= int64(b) {
		return a - b
	}
	return b - a
}

// refISqrt is floor(sqrt(x)) by the same Newton iteration the kernel runs.
func refISqrt(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	s := x
	u := (s + x/s) / 2
	for u < s {
		s = u
		u = (s + x/s) / 2
	}
	return s
}

// refCRC is the MSB-first CRC-32 (poly 0x04C11DB7, init 0) of the 64-bit
// message, mirroring the kernel's bitwise loop.
func refCRC(x uint64) uint64 {
	crc := uint64(0)
	for i := 63; i >= 0; i-- {
		bit := x >> uint(i) & 1
		top := crc >> 31 & 1
		crc = crc << 1 & 0xFFFFFFFF
		if top^bit == 1 {
			crc ^= 0x04C11DB7
		}
	}
	return crc
}

// refSoftmaxExp is the fixed-point Q16 cubic exp approximation the softmax
// kernel computes: 65536 + x + x²/2·65536 + x³/6·65536².
func refSoftmaxExp(x, denom uint64) uint64 {
	const one = 65536
	x2 := x * x
	x3 := x2 * x
	e := one + x + x2/(2*one) + x3/(6*one*one)
	return e * one / denom
}

// emitAbsInto emits out = |a - b| (signed) using predication.
func emitAbsInto(b *ezpim.Builder, a, bb, out, scratch int) {
	b.Sub(a, bb, out)
	b.Init0(scratch)
	b.If(ezpim.Lt(out, scratch), func() {
		b.Sub(bb, a, out)
	}, nil)
}

// emitISqrtBody emits out = floor(sqrt(x)) with a data-driven Newton loop.
// Scratch registers s..s+3 are clobbered.
func emitISqrtBody(b *ezpim.Builder, x, out, s int) {
	zero, two, u := s, s+1, s+2
	b.Init0(zero)
	b.Const(two, 2)
	b.Mov(x, out) // s = x
	b.If(ezpim.Gt(x, zero), func() {
		t := s + 3
		b.Div(x, out, t) // t = x/s
		b.Add(out, t, t) // t = s + x/s
		b.Div(t, two, t) // u = t/2
		b.Mov(t, u)
		b.While(ezpim.Lt(u, out), func() {
			b.Mov(u, out)    // s = u
			b.Div(x, out, t) // t = x/s
			b.Add(out, t, t)
			b.Div(t, two, u) // u = (s+x/s)/2
		})
	}, func() {
		b.Init0(out)
	})
}

// The kernel catalog is built once and shared: Kernel values are immutable
// after construction (their Gen/Ref/Emit closures capture no mutable
// state), so concurrent sweep cells may use the same *Kernel freely. The
// only per-run state — the seeded RNG — is created inside Run, per cell.
var (
	allOnce sync.Once
	allKs   []*Kernel
)

// All returns the 21 evaluation kernels in group order. The returned slice
// is freshly allocated; the *Kernel values are shared and must be treated
// as read-only.
func All() []*Kernel {
	allOnce.Do(func() {
		allKs = append(allKs, basicKernels()...)
		allKs = append(allKs, branchKernels()...)
		allKs = append(allKs, stencilKernels()...)
		allKs = append(allKs, complexKernels()...)
	})
	out := make([]*Kernel, len(allKs))
	copy(out, allKs)
	return out
}

// ByName returns the named kernel or nil.
func ByName(name string) *Kernel {
	for _, k := range All() {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// ByGroup filters kernels by group.
func ByGroup(g Group) []*Kernel {
	var out []*Kernel
	for _, k := range All() {
		if k.Group == g {
			out = append(out, k)
		}
	}
	return out
}

func basicKernels() []*Kernel {
	gen2 := func(rng *rand.Rand, n int) [][]uint64 {
		return [][]uint64{randSmall(rng, n, 1<<40), randSmall(rng, n, 1<<40)}
	}
	return []*Kernel{
		{
			Name: "vecadd", Group: Basic, Inputs: 2, Out: 2, Gen: gen2,
			Ref:  func(in []uint64) uint64 { return in[0] + in[1] },
			Emit: func(b *ezpim.Builder) { b.Add(0, 1, 2) },
			GPU:  GPUTraits{Ops: 1, Bytes: 24, Passes: 1, Divergence: 1},
		},
		{
			Name: "vecsub", Group: Basic, Inputs: 2, Out: 2, Gen: gen2,
			Ref:  func(in []uint64) uint64 { return in[0] - in[1] },
			Emit: func(b *ezpim.Builder) { b.Sub(0, 1, 2) },
			GPU:  GPUTraits{Ops: 1, Bytes: 24, Passes: 1, Divergence: 1},
		},
		{
			Name: "vecmul", Group: Basic, Inputs: 2, Out: 2,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return [][]uint64{randSmall(rng, n, 1<<31), randSmall(rng, n, 1<<31)}
			},
			Ref:  func(in []uint64) uint64 { return in[0] * in[1] },
			Emit: func(b *ezpim.Builder) { b.Mul(0, 1, 2) },
			GPU:  GPUTraits{Ops: 4, Bytes: 24, Passes: 1, Divergence: 1},
		},
		{
			Name: "vecand", Group: Basic, Inputs: 2, Out: 2, Gen: gen2,
			Ref:  func(in []uint64) uint64 { return in[0] & in[1] },
			Emit: func(b *ezpim.Builder) { b.And(0, 1, 2) },
			GPU:  GPUTraits{Ops: 1, Bytes: 24, Passes: 1, Divergence: 1},
		},
		{
			Name: "vecxor", Group: Basic, Inputs: 2, Out: 2, Gen: gen2,
			Ref:  func(in []uint64) uint64 { return in[0] ^ in[1] },
			Emit: func(b *ezpim.Builder) { b.Xor(0, 1, 2) },
			GPU:  GPUTraits{Ops: 1, Bytes: 24, Passes: 1, Divergence: 1},
		},
		{
			Name: "mac", Group: Basic, Inputs: 3, Out: 2,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return [][]uint64{randSmall(rng, n, 1<<28), randSmall(rng, n, 1<<28), randSmall(rng, n, 1<<40)}
			},
			Ref:  func(in []uint64) uint64 { return in[2] + in[0]*in[1] },
			Emit: func(b *ezpim.Builder) { b.Mac(0, 1, 2) },
			GPU:  GPUTraits{Ops: 5, Bytes: 32, Passes: 1, Divergence: 1},
		},
	}
}

func branchKernels() []*Kernel {
	signedGen := func(rng *rand.Rand, n int) [][]uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = uint64(int64(rng.Intn(1<<20)) - 1<<19)
		}
		return [][]uint64{v}
	}
	return []*Kernel{
		{
			Name: "relu", Group: Branch, Inputs: 1, Out: 1, Gen: signedGen,
			Ref: func(in []uint64) uint64 {
				if int64(in[0]) < 0 {
					return 0
				}
				return in[0]
			},
			Emit: func(b *ezpim.Builder) {
				b.Init0(2)
				b.Mov(0, 1)
				b.If(ezpim.Lt(0, 2), func() { b.Init0(1) }, nil)
			},
			GPU: GPUTraits{Ops: 2, Bytes: 16, Passes: 1, Divergence: 1.3},
		},
		{
			Name: "abs", Group: Branch, Inputs: 1, Out: 1, Gen: signedGen,
			Ref: func(in []uint64) uint64 {
				if int64(in[0]) < 0 {
					return -in[0]
				}
				return in[0]
			},
			Emit: func(b *ezpim.Builder) {
				b.Init0(2)
				b.If(ezpim.Lt(0, 2), func() {
					b.Sub(2, 0, 1)
				}, func() {
					b.Mov(0, 1)
				})
			},
			GPU: GPUTraits{Ops: 2, Bytes: 16, Passes: 1, Divergence: 1.3},
		},
		{
			Name: "clamp", Group: Branch, Inputs: 3, Out: 3,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return [][]uint64{
					randSmall(rng, n, 1<<20),
					broadcast(n, 100),
					broadcast(n, 10000),
				}
			},
			Ref: func(in []uint64) uint64 {
				v := in[0]
				if v < in[1] {
					return in[1]
				}
				if v > in[2] {
					return in[2]
				}
				return v
			},
			Emit: func(b *ezpim.Builder) {
				b.Mov(0, 3)
				b.If(ezpim.Lt(3, 1), func() { b.Mov(1, 3) }, nil)
				b.If(ezpim.Gt(3, 2), func() { b.Mov(2, 3) }, nil)
			},
			GPU: GPUTraits{Ops: 4, Bytes: 16, Passes: 1, Divergence: 1.5},
		},
		{
			Name: "sign", Group: Branch, Inputs: 1, Out: 1, Gen: signedGen,
			Ref: func(in []uint64) uint64 {
				switch v := int64(in[0]); {
				case v == 0:
					return 0
				case v > 0:
					return 1
				default:
					return 2
				}
			},
			Emit: func(b *ezpim.Builder) {
				b.Init0(2)
				b.If(ezpim.Eq(0, 2), func() {
					b.Init0(1)
				}, func() {
					b.If(ezpim.Gt(0, 2), func() {
						b.Init1(1)
					}, func() {
						b.Const(1, 2)
					})
				})
			},
			GPU: GPUTraits{Ops: 4, Bytes: 16, Passes: 1, Divergence: 1.7},
		},
		{
			Name: "threshold", Group: Branch, Inputs: 2, Out: 2,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return [][]uint64{randSmall(rng, n, 1<<20), broadcast(n, 1<<19)}
			},
			Ref: func(in []uint64) uint64 {
				if int64(in[0]) > int64(in[1]) {
					return 1
				}
				return 0
			},
			Emit: func(b *ezpim.Builder) {
				b.If(ezpim.Gt(0, 1), func() { b.Init1(2) }, func() { b.Init0(2) })
			},
			GPU: GPUTraits{Ops: 2, Bytes: 24, Passes: 1, Divergence: 1.3},
		},
	}
}

func stencilKernels() []*Kernel {
	return []*Kernel{
		{
			Name: "conv1d3", Group: Stencil, Inputs: 6, Out: 6,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				regs := shiftedSignal(rng, n, 3, 1<<16)
				return append(regs, broadcast(n, 3), broadcast(n, 5), broadcast(n, 2))
			},
			Ref: func(in []uint64) uint64 { return in[0]*in[3] + in[1]*in[4] + in[2]*in[5] },
			Emit: func(b *ezpim.Builder) {
				b.Mul(0, 3, 6)
				b.Mac(1, 4, 6)
				b.Mac(2, 5, 6)
			},
			GPU: GPUTraits{Ops: 6, Bytes: 16, Passes: 1, Divergence: 1},
		},
		{
			Name: "jacobi1d", Group: Stencil, Inputs: 4, Out: 4,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				regs := shiftedSignal(rng, n, 3, 1<<24)
				return append(regs, broadcast(n, 3))
			},
			Ref: func(in []uint64) uint64 { return (in[0] + in[1] + in[2]) / 3 },
			Emit: func(b *ezpim.Builder) {
				b.Add(0, 1, 4)
				b.Add(4, 2, 4)
				b.Div(4, 3, 4)
			},
			GPU: GPUTraits{Ops: 4, Bytes: 16, Passes: 1, Divergence: 1},
		},
		{
			Name: "conv2d3x3", Group: Stencil, Inputs: 18, Out: 18,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				regs := shiftedSignal(rng, n, 9, 1<<12)
				w := []uint64{1, 2, 1, 2, 4, 2, 1, 2, 1}
				for _, wi := range w {
					regs = append(regs, broadcast(n, wi))
				}
				return regs
			},
			Ref: func(in []uint64) uint64 {
				var s uint64
				for i := 0; i < 9; i++ {
					s += in[i] * in[9+i]
				}
				return s
			},
			Emit: func(b *ezpim.Builder) {
				b.Mul(0, 9, 18)
				for i := 1; i < 9; i++ {
					b.Mac(i, 9+i, 18)
				}
			},
			GPU: GPUTraits{Ops: 18, Bytes: 16, Passes: 1, Divergence: 1},
		},
		{
			Name: "sobelx", Group: Stencil, Inputs: 9, Out: 9,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return shiftedSignal(rng, n, 9, 256)
			},
			Ref: func(in []uint64) uint64 {
				gx := int64(in[2]) - int64(in[0]) + 2*(int64(in[5])-int64(in[3])) + int64(in[8]) - int64(in[6])
				if gx < 0 {
					gx = -gx
				}
				return uint64(gx)
			},
			Emit: func(b *ezpim.Builder) {
				b.Sub(2, 0, 9)  // x2-x0
				b.Sub(5, 3, 10) // x5-x3
				b.Add(10, 10, 10)
				b.Add(9, 10, 9)
				b.Sub(8, 6, 10)
				b.Add(9, 10, 9)
				b.Init0(10)
				b.If(ezpim.Lt(9, 10), func() { b.Sub(10, 9, 9) }, nil)
			},
			GPU: GPUTraits{Ops: 8, Bytes: 16, Passes: 1, Divergence: 1.2},
		},
	}
}

func complexKernels() []*Kernel {
	return []*Kernel{
		{
			Name: "manhattan", Group: Complex, Inputs: 8, Out: 8,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				regs := make([][]uint64, 8)
				for i := range regs {
					regs[i] = randSmall(rng, n, 1<<20)
				}
				return regs
			},
			Ref: func(in []uint64) uint64 {
				var s uint64
				for k := 0; k < 4; k++ {
					s += refAbsDiff(in[k], in[4+k])
				}
				return s
			},
			Emit: func(b *ezpim.Builder) {
				b.Init0(8)
				for k := 0; k < 4; k++ {
					emitAbsInto(b, k, 4+k, 9, 10)
					b.Add(8, 9, 8)
				}
			},
			GPU: GPUTraits{Ops: 12, Bytes: 72, Passes: 1, Divergence: 1.5},
		},
		{
			Name: "euclidean", Group: Complex, Inputs: 8, Out: 8,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				regs := make([][]uint64, 8)
				for i := range regs {
					regs[i] = randSmall(rng, n, 1<<15)
				}
				return regs
			},
			Ref: func(in []uint64) uint64 {
				var s uint64
				for k := 0; k < 4; k++ {
					d := refAbsDiff(in[k], in[4+k])
					s += d * d
				}
				return refISqrt(s)
			},
			Subs: func(b *ezpim.Builder) {
				b.SubDef("isqrt", func() {
					// In: r20, out: r21; clobbers r22..r25.
					b.Mov(20, 26)
					emitISqrtBody(b, 26, 21, 22)
				})
			},
			Emit: func(b *ezpim.Builder) {
				b.Init0(9)
				for k := 0; k < 4; k++ {
					emitAbsInto(b, k, 4+k, 10, 11)
					b.Mac(10, 10, 9)
				}
				b.Mov(9, 20)
				b.Call("isqrt")
				b.Mov(21, 8)
			},
			GPU: GPUTraits{Ops: 40, Bytes: 72, Passes: 1, Divergence: 2.5},
		},
		{
			Name: "ibert-sqrt", Group: Complex, Inputs: 1, Out: 1,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				v := randSmall(rng, n, 1<<32)
				v[0] = 0 // pin the guard path
				return [][]uint64{v}
			},
			Ref:  func(in []uint64) uint64 { return refISqrt(in[0]) },
			Emit: func(b *ezpim.Builder) { emitISqrtBody(b, 0, 1, 2) },
			GPU:  GPUTraits{Ops: 30, Bytes: 16, Passes: 1, Divergence: 3},
		},
		{
			Name: "softmax", Group: Complex, Inputs: 2, Out: 2,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return [][]uint64{randSmall(rng, n, 4<<16), broadcast(n, 123456789)}
			},
			Ref: func(in []uint64) uint64 { return refSoftmaxExp(in[0], in[1]) },
			Emit: func(b *ezpim.Builder) {
				// Fixed-point Q16 cubic exp, then normalize by the
				// broadcast denominator.
				b.Const(3, 65536)
				b.Const(4, 2*65536)
				b.Const(5, 6*65536*65536)
				b.Mul(0, 0, 6) // x²
				b.Mul(6, 0, 7) // x³
				b.Div(6, 4, 6) // x²/2·65536
				b.Div(7, 5, 7) // x³/6·65536²
				b.Add(3, 0, 2) // 1 + x
				b.Add(2, 6, 2)
				b.Add(2, 7, 2)
				b.Mul(2, 3, 2) // scale
				b.Div(2, 1, 2) // normalize
			},
			GPU: GPUTraits{Ops: 25, Bytes: 24, Passes: 1, Divergence: 1},
		},
		{
			Name: "crc32", Group: Complex, Inputs: 1, Out: 1,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				return [][]uint64{randSmall(rng, n, 1<<62)}
			},
			Ref: func(in []uint64) uint64 { return refCRC(in[0]) },
			Emit: func(b *ezpim.Builder) {
				const (
					crc, msg, zero, topC, topM, t, poly, mask32, n64, one = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
				)
				b.Init0(crc)
				b.Mov(0, msg)
				b.Init0(zero)
				b.Init1(one)
				b.Const(poly, 0x04C11DB7)
				b.Const(mask32, 0xFFFFFFFF)
				b.Const(topC+10, 0x80000000)         // r14: CRC top bit
				b.Const(topM+10, 0x8000000000000000) // r15: msg top bit
				b.Const(n64, 64)
				b.Repeat(n64, func() {
					b.And(crc, topC+10, topC) // crc & 0x80000000
					b.And(msg, topM+10, topM) // msg top bit
					b.LShift(crc, crc)
					b.And(crc, mask32, crc)
					b.LShift(msg, msg)
					b.Init0(t)
					b.If(ezpim.Ne(topC, zero), func() { b.Xor(t, one, t) }, nil)
					b.If(ezpim.Ne(topM, zero), func() { b.Xor(t, one, t) }, nil)
					b.If(ezpim.Ne(t, zero), func() { b.Xor(crc, poly, crc) }, nil)
				})
			},
			GPU: GPUTraits{Ops: 64 * 6, Bytes: 16, Passes: 1, Divergence: 2},
		},
		{
			Name: "gcd", Group: Complex, Inputs: 2, Out: 2,
			Gen: func(rng *rand.Rand, n int) [][]uint64 {
				a := make([]uint64, n)
				bv := make([]uint64, n)
				for i := range a {
					a[i] = uint64(rng.Intn(1<<20) + 1)
					bv[i] = uint64(rng.Intn(1 << 20))
				}
				return [][]uint64{a, bv}
			},
			Ref: func(in []uint64) uint64 {
				a, b := in[0], in[1]
				for b != 0 {
					a, b = b, a%b
				}
				return a
			},
			Emit: func(b *ezpim.Builder) {
				b.Mov(0, 3)
				b.Mov(1, 4)
				b.Init0(5)
				b.While(ezpim.Ne(4, 5), func() {
					b.Rem(3, 4, 6)
					b.Mov(4, 3)
					b.Mov(6, 4)
				})
				b.Mov(3, 2)
			},
			GPU: GPUTraits{Ops: 120, Bytes: 24, Passes: 1, Divergence: 4},
		},
	}
}

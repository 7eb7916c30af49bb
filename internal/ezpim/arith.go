package ezpim

// Integer helpers shared by the kernel catalogue and the applications. They
// are free functions over the Builder's public statements, so each
// statement they emit counts once toward SourceLines.

// AbsDiff emits out = |a - bb| for signed values via predication. Clobbers
// s.
func AbsDiff(b *Builder, a, bb, out, s int) {
	b.Sub(a, bb, out)
	b.Init0(s)
	b.If(Lt(out, s), func() {
		b.Sub(bb, a, out)
	}, nil)
}

// ISqrt emits out = floor(sqrt(x)) with a data-driven Newton loop: lanes
// leave the loop as they converge. Clobbers s..s+3.
func ISqrt(b *Builder, x, out, s int) {
	zero, two, u, t := s, s+1, s+2, s+3
	b.Init0(zero)
	b.Const(two, 2)
	b.Mov(x, out)
	b.If(Gt(x, zero), func() {
		b.Div(x, out, t)
		b.Add(out, t, t)
		b.Div(t, two, t)
		b.Mov(t, u)
		b.While(Lt(u, out), func() {
			b.Mov(u, out)
			b.Div(x, out, t)
			b.Add(out, t, t)
			b.Div(t, two, u)
		})
	}, func() {
		b.Init0(out)
	})
}

// RefISqrt mirrors ISqrt: floor(sqrt(x)) by the same Newton iteration.
func RefISqrt(x uint64) uint64 {
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

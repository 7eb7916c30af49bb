package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randPlane builds a plane of the given size from a seeded generator.
func randPlane(lanes int, rng *rand.Rand) Plane {
	p := New(lanes)
	for i := 0; i < lanes; i++ {
		p.Set(i, rng.Intn(2) == 1)
	}
	return p
}

func fullMask(lanes int) Plane {
	m := New(lanes)
	m.Fill(true)
	return m
}

func TestNewAndGetSet(t *testing.T) {
	for _, lanes := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		p := New(lanes)
		if p.Len() != lanes {
			t.Fatalf("Len() = %d, want %d", p.Len(), lanes)
		}
		for i := 0; i < lanes; i++ {
			if p.Get(i) {
				t.Fatalf("new plane lane %d not zero", i)
			}
		}
		for i := 0; i < lanes; i += 3 {
			p.Set(i, true)
		}
		for i := 0; i < lanes; i++ {
			want := i%3 == 0
			if p.Get(i) != want {
				t.Fatalf("lane %d = %v, want %v", i, p.Get(i), want)
			}
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	p := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			p.Get(i)
		}()
	}
}

func TestNegativeLanesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFillAndAnySetAndPopCount(t *testing.T) {
	p := New(130)
	if p.AnySet() {
		t.Fatal("fresh plane AnySet true")
	}
	p.Fill(true)
	if got := p.PopCount(); got != 130 {
		t.Fatalf("PopCount after Fill(true) = %d, want 130", got)
	}
	p.Fill(false)
	if p.AnySet() || p.PopCount() != 0 {
		t.Fatal("Fill(false) left bits set")
	}
	p.Set(129, true)
	if !p.AnySet() || p.PopCount() != 1 {
		t.Fatal("single tail bit not observed")
	}
}

func TestTailBitsStayClamped(t *testing.T) {
	// Not, Nor and Fill write full words internally; bits beyond the lane
	// count must never leak into PopCount.
	p := New(70)
	m := fullMask(70)
	Not(p, p, m)
	if got := p.PopCount(); got != 70 {
		t.Fatalf("PopCount after Not = %d, want 70", got)
	}
	q := New(70)
	Nor(q, q, q, m)
	if got := q.PopCount(); got != 70 {
		t.Fatalf("PopCount after Nor = %d, want 70", got)
	}
	SetAll(q, true, m)
	if got := q.PopCount(); got != 70 {
		t.Fatalf("PopCount after SetAll = %d, want 70", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(64)
	p.Set(5, true)
	q := p.Clone()
	q.Set(6, true)
	if p.Get(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !q.Get(5) {
		t.Fatal("Clone lost bit 5")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(65), New(65)
	if !a.Equal(b) {
		t.Fatal("zero planes not equal")
	}
	a.Set(64, true)
	if a.Equal(b) {
		t.Fatal("differing planes equal")
	}
	if a.Equal(New(64)) {
		t.Fatal("different lane counts reported equal")
	}
}

func TestMismatchedLanesPanics(t *testing.T) {
	a, b, m := New(64), New(65), fullMask(64)
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lanes did not panic")
		}
	}()
	And(a, a, b, m)
}

// TestGateTruthTables exercises each gate against its Boolean definition on
// every input combination, on a lane layout that crosses a word boundary.
func TestGateTruthTables(t *testing.T) {
	const lanes = 8
	mk := func(bits [lanes]bool) Plane {
		p := New(lanes)
		for i, b := range bits {
			p.Set(i, b)
		}
		return p
	}
	// Lanes enumerate all 8 combinations of (a,b,c).
	var av, bv, cv [lanes]bool
	for i := 0; i < lanes; i++ {
		av[i] = i&1 != 0
		bv[i] = i&2 != 0
		cv[i] = i&4 != 0
	}
	a, b, c := mk(av), mk(bv), mk(cv)
	m := fullMask(lanes)

	check := func(name string, got Plane, f func(a, b, c bool) bool) {
		t.Helper()
		for i := 0; i < lanes; i++ {
			want := f(av[i], bv[i], cv[i])
			if got.Get(i) != want {
				t.Errorf("%s lane %d (a=%v b=%v c=%v): got %v want %v",
					name, i, av[i], bv[i], cv[i], got.Get(i), want)
			}
		}
	}

	d := New(lanes)
	Nor(d, a, b, m)
	check("NOR", d, func(a, b, _ bool) bool { return !(a || b) })
	And(d, a, b, m)
	check("AND", d, func(a, b, _ bool) bool { return a && b })
	Or(d, a, b, m)
	check("OR", d, func(a, b, _ bool) bool { return a || b })
	Xor(d, a, b, m)
	check("XOR", d, func(a, b, _ bool) bool { return a != b })
	Not(d, a, m)
	check("NOT", d, func(a, _, _ bool) bool { return !a })
	AndNot(d, a, b, m)
	check("ANDNOT", d, func(a, b, _ bool) bool { return a && !b })
	Maj(d, a, b, c, m)
	check("MAJ", d, func(a, b, c bool) bool {
		n := 0
		for _, v := range []bool{a, b, c} {
			if v {
				n++
			}
		}
		return n >= 2
	})
	Mux(d, a, b, c, m)
	check("MUX", d, func(a, b, sel bool) bool {
		if sel {
			return a
		}
		return b
	})

	sum, cout := New(lanes), New(lanes)
	FullAdd(sum, cout, a, b, c, m)
	check("FULLADD.sum", sum, func(a, b, c bool) bool { return a != b != c })
	check("FULLADD.cout", cout, func(a, b, c bool) bool {
		n := 0
		for _, v := range []bool{a, b, c} {
			if v {
				n++
			}
		}
		return n >= 2
	})
}

// TestMaskingPreservesDisabledLanes verifies the per-lane power gating
// behaviour: masked-off lanes must keep their previous contents.
func TestMaskingPreservesDisabledLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const lanes = 200
	a, b := randPlane(lanes, rng), randPlane(lanes, rng)
	orig := randPlane(lanes, rng)
	mask := randPlane(lanes, rng)

	ops := map[string]func(dst Plane){
		"Nor":  func(dst Plane) { Nor(dst, a, b, mask) },
		"And":  func(dst Plane) { And(dst, a, b, mask) },
		"Or":   func(dst Plane) { Or(dst, a, b, mask) },
		"Xor":  func(dst Plane) { Xor(dst, a, b, mask) },
		"Not":  func(dst Plane) { Not(dst, a, mask) },
		"Copy": func(dst Plane) { Copy(dst, a, mask) },
	}
	for name, op := range ops {
		dst := orig.Clone()
		op(dst)
		for i := 0; i < lanes; i++ {
			if !mask.Get(i) && dst.Get(i) != orig.Get(i) {
				t.Errorf("%s modified masked-off lane %d", name, i)
			}
		}
	}
}

// Property: XOR expressed as pure NOR gates (the RACER decomposition used by
// the recipe library) matches the direct XOR for arbitrary planes.
func TestNorDecompositionOfXorProperty(t *testing.T) {
	f := func(seed int64, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := randPlane(lanes, rng), randPlane(lanes, rng)
		m := fullMask(lanes)
		n1, n2, n3, n4, got := New(lanes), New(lanes), New(lanes), New(lanes), New(lanes)
		Nor(n1, a, b, m)   // ¬(a|b)
		Nor(n2, a, a, m)   // ¬a
		Nor(n3, b, b, m)   // ¬b
		Nor(n4, n2, n3, m) // a&b
		Nor(got, n1, n4, m)
		want := New(lanes)
		Xor(want, a, b, m)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MAJ(a,b,0)=AND, MAJ(a,b,1)=OR — the TRA trick MIMDRAM relies on.
func TestMajAndOrProperty(t *testing.T) {
	f := func(seed int64, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := randPlane(lanes, rng), randPlane(lanes, rng)
		m := fullMask(lanes)
		zero, one := New(lanes), New(lanes)
		one.Fill(true)
		andViaMaj, orViaMaj := New(lanes), New(lanes)
		Maj(andViaMaj, a, b, zero, m)
		Maj(orViaMaj, a, b, one, m)
		andDirect, orDirect := New(lanes), New(lanes)
		And(andDirect, a, b, m)
		Or(orDirect, a, b, m)
		return andViaMaj.Equal(andDirect) && orViaMaj.Equal(orDirect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FullAdd agrees with gate-level sum/carry for arbitrary planes.
func TestFullAddProperty(t *testing.T) {
	f := func(seed int64, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randPlane(lanes, rng), randPlane(lanes, rng), randPlane(lanes, rng)
		m := fullMask(lanes)
		sum, cout := New(lanes), New(lanes)
		FullAdd(sum, cout, a, b, c, m)
		t1, wantSum, wantCout := New(lanes), New(lanes), New(lanes)
		Xor(t1, a, b, m)
		Xor(wantSum, t1, c, m)
		Maj(wantCout, a, b, c, m)
		return sum.Equal(wantSum) && cout.Equal(wantCout)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAliasedDestination(t *testing.T) {
	// dst aliasing a source must still produce the correct result for the
	// single-pass word loop (each word is read before written).
	rng := rand.New(rand.NewSource(3))
	a, b := randPlane(100, rng), randPlane(100, rng)
	m := fullMask(100)
	want := New(100)
	Nor(want, a, b, m)
	got := a.Clone()
	Nor(got, got, b, m)
	if !got.Equal(want) {
		t.Fatal("aliased NOR differs from non-aliased NOR")
	}
}

func TestString(t *testing.T) {
	p := New(4)
	p.Set(1, true)
	p.Set(3, true)
	if got := p.String(); got != "0101" {
		t.Fatalf("String() = %q, want %q", got, "0101")
	}
}

func TestPopCountPatterns(t *testing.T) {
	// Word-boundary patterns that exercised the old hand-rolled popcount.
	p := New(130)
	if got := p.PopCount(); got != 0 {
		t.Errorf("empty PopCount = %d", got)
	}
	p.Fill(true)
	if got := p.PopCount(); got != 130 {
		t.Errorf("full PopCount = %d, want 130", got)
	}
	p.Set(64, false)
	p.Set(129, false)
	if got := p.PopCount(); got != 128 {
		t.Errorf("PopCount = %d, want 128", got)
	}
}

func TestPlanesOver(t *testing.T) {
	planes := PlanesOver(100, 8, make([]uint64, 2*8))
	if len(planes) != 8 {
		t.Fatalf("len = %d", len(planes))
	}
	for i, p := range planes {
		if p.Len() != 100 {
			t.Fatalf("plane %d lanes = %d", i, p.Len())
		}
		if p.AnySet() {
			t.Fatalf("plane %d not zero", i)
		}
	}
	// Planes must be independent despite the shared backing.
	planes[3].Fill(true)
	for i, p := range planes {
		if i != 3 && p.AnySet() {
			t.Fatalf("plane %d aliased plane 3", i)
		}
	}
	if planes[3].PopCount() != 100 {
		t.Fatal("filled slab plane lost bits")
	}
	if got := PlanesOver(10, 0, nil); len(got) != 0 {
		t.Fatalf("PlanesOver(10, 0) = %d planes", len(got))
	}
}

func BenchmarkNor4096(b *testing.B) {
	p, q, r := New(4096), New(4096), New(4096)
	m := fullMask(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Nor(r, p, q, m)
	}
}

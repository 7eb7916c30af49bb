package bitvec

import (
	"math/rand"
	"testing"
)

// The word kernels must be bit-identical to the Plane kernels. Each case
// runs the plane op and the word op on independent copies of the same
// random state and compares the results, masked and unmasked. (Lane counts
// that leave a tail are covered where the tail invariant is maintained: the
// executor parity test in internal/vrf.)

const wordLanes = 256 // 4 words per plane

func randWords(n int, rng *rand.Rand) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func planeOf(ws []uint64) Plane {
	return PlanesOver(wordLanes, 1, ws)[0]
}

func TestWordKernelsMatchPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := wordLanes / 64
	for _, masked := range []bool{true, false} {
		name := "masked"
		mask := randWords(w, rng)
		if !masked {
			name = "unmasked"
			mask = make([]uint64, w)
			for i := range mask {
				mask[i] = ^uint64(0)
			}
		}
		t.Run(name, func(t *testing.T) {
			type op struct {
				name  string
				plane func(dst, a, b, c, m Plane)
				words func(dst, a, b, c, m []uint64)
			}
			cases := []op{
				{"nor",
					func(d, a, b, c, m Plane) { Nor(d, a, b, m) },
					func(d, a, b, c, m []uint64) { NorWords(d, a, b, m) }},
				{"and",
					func(d, a, b, c, m Plane) { And(d, a, b, m) },
					func(d, a, b, c, m []uint64) { AndWords(d, a, b, m) }},
				{"or",
					func(d, a, b, c, m Plane) { Or(d, a, b, m) },
					func(d, a, b, c, m []uint64) { OrWords(d, a, b, m) }},
				{"xor",
					func(d, a, b, c, m Plane) { Xor(d, a, b, m) },
					func(d, a, b, c, m []uint64) { XorWords(d, a, b, m) }},
				{"not",
					func(d, a, b, c, m Plane) { Not(d, a, m) },
					func(d, a, b, c, m []uint64) { NotWords(d, a, m) }},
				{"copy",
					func(d, a, b, c, m Plane) { Copy(d, a, m) },
					func(d, a, b, c, m []uint64) { CopyWords(d, a, m) }},
				{"maj",
					func(d, a, b, c, m Plane) { Maj(d, a, b, c, m) },
					func(d, a, b, c, m []uint64) { MajWords(d, a, b, c, m) }},
				{"mux",
					func(d, a, b, c, m Plane) { Mux(d, a, b, c, m) },
					func(d, a, b, c, m []uint64) { MuxWords(d, a, b, c, m) }},
				{"set0",
					func(d, a, b, c, m Plane) { SetAll(d, false, m) },
					func(d, a, b, c, m []uint64) { ClearWords(d, m) }},
				{"set1",
					func(d, a, b, c, m Plane) { SetAll(d, true, m) },
					func(d, a, b, c, m []uint64) { SetWords(d, m) }},
				{"condwr",
					func(d, a, b, c, m Plane) {
						one := New(wordLanes)
						one.Fill(true)
						And(d, a, m, one)
					},
					func(d, a, b, c, m []uint64) { AndIntoWords(d, a, m) }},
			}
			for _, tc := range cases {
				dst, a, b, c := randWords(w, rng), randWords(w, rng), randWords(w, rng), randWords(w, rng)
				dstP := append([]uint64(nil), dst...)
				tc.plane(planeOf(dstP), planeOf(a), planeOf(b), planeOf(c), planeOf(mask))
				tc.words(dst, a, b, c, mask)
				for i := range dst {
					if dst[i] != dstP[i] {
						t.Errorf("%s: word %d: words=%#x planes=%#x", tc.name, i, dst[i], dstP[i])
					}
				}
			}

			// FADD writes two outputs.
			sum, cout := randWords(w, rng), randWords(w, rng)
			a, b, cin := randWords(w, rng), randWords(w, rng), randWords(w, rng)
			sumP, coutP := append([]uint64(nil), sum...), append([]uint64(nil), cout...)
			FullAdd(planeOf(sumP), planeOf(coutP), planeOf(a), planeOf(b), planeOf(cin), planeOf(mask))
			FullAddWords(sum, cout, a, b, cin, mask)
			for i := range sum {
				if sum[i] != sumP[i] || cout[i] != coutP[i] {
					t.Errorf("fadd: word %d: words=(%#x,%#x) planes=(%#x,%#x)", i, sum[i], cout[i], sumP[i], coutP[i])
				}
			}
		})
	}
}

// naiveTranspose moves a tile one bit at a time: the 4096-step loop
// Transpose64 replaces.
func naiveTranspose(in *[64]uint64) (out [64]uint64) {
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			out[c] |= (in[r] >> uint(c) & 1) << uint(r)
		}
	}
	return out
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	var tiles [][64]uint64
	var identity, zero, full [64]uint64
	for i := range identity {
		identity[i] = 1 << uint(i)
		full[i] = ^uint64(0)
	}
	tiles = append(tiles, identity, zero, full)
	for r := 0; r < 64; r++ {
		for _, c := range []int{0, 1, 31, 32, 62, 63, r} {
			var one [64]uint64
			one[r] = 1 << uint(c)
			tiles = append(tiles, one)
		}
	}
	for i := 0; i < 200; i++ {
		var x [64]uint64
		for j := range x {
			x[j] = rng.Uint64()
			if i%2 == 1 {
				x[j] &= rng.Uint64() & rng.Uint64() // sparse tiles too
			}
		}
		tiles = append(tiles, x)
	}
	for i, in := range tiles {
		got := in
		Transpose64(&got)
		if want := naiveTranspose(&in); got != want {
			t.Fatalf("tile %d: Transpose64 differs from the bit-at-a-time transpose", i)
		}
		Transpose64(&got)
		if got != in {
			t.Fatalf("tile %d: Transpose64 applied twice is not the identity", i)
		}
	}
	// The identity matrix is symmetric, so it is its own transpose; a single
	// bit at (r, c) lands at (c, r).
	got := identity
	Transpose64(&got)
	if got != identity {
		t.Fatal("Transpose64 moved the identity tile")
	}
	var one [64]uint64
	one[5] = 1 << 40
	Transpose64(&one)
	if one[40] != 1<<5 {
		t.Fatalf("bit (5,40) landed at row 40 = %#x, want bit 5", one[40])
	}
}

func BenchmarkTranspose64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tile [64]uint64
	for i := range tile {
		tile[i] = rng.Uint64()
	}
	b.SetBytes(64 * 8)
	for i := 0; i < b.N; i++ {
		Transpose64(&tile)
	}
}

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

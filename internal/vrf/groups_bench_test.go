package vrf_test

import (
	"fmt"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/recipe"
	"mpu/internal/vrf"
)

// BenchmarkRunCompiledGroups times one RACER kernel call over a round of one
// to four VRFs: what a chunk of a fanned-out round costs on the goroutine
// that runs it. A group body advances its VRFs in lockstep, so a round of
// three costs less than three rounds of one; docs/PERF.md ("Small rounds
// split by VRF range") reads its table to size the 2+1 split.
//
//	go test ./internal/vrf -run '^$' -bench RunCompiledGroups -count 5
func BenchmarkRunCompiledGroups(b *testing.B) {
	spec := backends.RACER()
	vals := make([]uint64, spec.Lanes)
	for i := range vals {
		vals[i] = uint64(i*i+7) % (1 << 20)
	}
	for _, in := range []isa.Instr{isa.QRDiv(0, 1, 2), isa.Mul(0, 1, 2), isa.Add(0, 1, 2)} {
		_, rs, err := recipe.ExpandResolved(spec.Caps, in)
		if err != nil {
			b.Fatal(err)
		}
		k := vrf.CompileResolved(rs, spec.Lanes)
		for n := 1; n <= 4; n++ {
			b.Run(fmt.Sprintf("%s/%dvrf", in.Op, n), func(b *testing.B) {
				vs := make([]*vrf.VRF, n)
				for i := range vs {
					vs[i] = vrf.New(spec.Lanes)
					vs[i].WriteReg(0, vals)
					vs[i].WriteReg(1, vals[i:])
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vrf.RunCompiledGroups(k, vs)
				}
			})
		}
	}
}

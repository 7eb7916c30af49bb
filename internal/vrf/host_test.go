package vrf

import (
	"fmt"
	"math/rand"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/recipe"
)

// The engine runs an instruction's host stream, the reference interpreter
// its recipe: for every datapath opcode on every back end, with its three
// register operands distinct and aliased in each way an instruction can
// alias them, at a single lane, ragged below, at and above one word, and
// four words, under all-ones, partial and empty masks, the compiled host
// stream must leave every word — registers, scratch, temps, cond — and
// MicroOps as ExecAllResolved on the recipe stream leaves them. The compiled
// side runs rounds of one to four VRFs through RunCompiledGroups (every group
// loop at one word per plane), each VRF from its own random state.
func TestHostStreamExact(t *testing.T) {
	aliases := [][3]uint8{{1, 2, 3}, {1, 2, 1}, {1, 2, 2}, {1, 1, 2}, {1, 1, 1}, {0, 63, 31}, {63, 63, 0}}
	rng := rand.New(rand.NewSource(46))
	var compared int
	for _, spec := range []*backends.Spec{backends.RACER(), backends.MIMDRAM(), backends.DualityCache(), backends.SIMDRAM()} {
		for op := isa.Op(0); int(op) < isa.NumOps; op++ {
			if !recipe.IsDatapathOp(op) {
				continue
			}
			for ai, al := range aliases {
				in := isa.Instr{Op: op, A: al[0], B: al[1], C: al[2]}
				rops, host, err := recipe.ExpandHost(spec.Caps, in)
				if err != nil {
					t.Fatalf("%s %s: %v", spec.Name, op, err)
				}
				for _, lanes := range []int{1, 63, 64, 65, 256} {
					c := CompileHost(host, uint64(len(rops)), lanes)
					for mode := maskAll; mode <= maskEmpty; mode++ {
						name := fmt.Sprintf("%s/%s/alias%d/lanes%d/%s", spec.Name, op, ai, lanes, mode)
						round := 1 + compared%4
						refs, got := make([]*VRF, round), make([]*VRF, round)
						for i := range refs {
							refs[i], got[i] = New(lanes), New(lanes)
							seed := rng.Int63()
							randomize(refs[i], rand.New(rand.NewSource(seed)), mode)
							randomize(got[i], rand.New(rand.NewSource(seed)), mode)
							refs[i].ExecAllResolved(rops)
						}
						RunCompiledGroups(c, got)
						for i, ref := range refs {
							if got[i].MicroOps != ref.MicroOps {
								t.Fatalf("%s vrf %d: MicroOps %d, reference %d", name, i, got[i].MicroOps, ref.MicroOps)
							}
							for w := range ref.words {
								if ref.words[w] != got[i].words[w] {
									t.Fatalf("%s vrf %d: word %d (slot %d): recipe=%#x host=%#x",
										name, i, w, w/ref.wpl, ref.words[w], got[i].words[w])
								}
							}
						}
						compared++
					}
				}
			}
		}
	}
	t.Logf("%d comparisons", compared)
}

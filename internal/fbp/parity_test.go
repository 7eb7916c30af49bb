package fbp_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/fbp"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

// The parity tests are the compiler's subsumption proof: the .fbp-expressed
// editdistance ring and llmencode pipeline must produce byte-identical
// programs — and, run on identical inputs, byte-identical machine.Stats —
// to the hand-wired Build*Programs on every back end. Any divergence in
// emission order, layout, or collective shape shows up here first.

// paritySpecs is all 4 back ends: the 3 of the paper's main evaluation plus
// the SIMDRAM portability demo.
func paritySpecs(t *testing.T) []*backends.Spec {
	t.Helper()
	specs := backends.All()
	sim, err := backends.ByName("simdram")
	if err != nil {
		t.Fatal(err)
	}
	return append(specs, sim)
}

func loadExample(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/pipelines/" + name + ".fbp")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func compileExample(t *testing.T, spec *backends.Spec, name string) *fbp.Compiled {
	t.Helper()
	c, err := fbp.CompileSource(loadExample(t, name), fbp.Options{Spec: spec})
	if err != nil {
		t.Fatalf("%s on %s: %v", name, spec.Name, err)
	}
	return c
}

func sameProgramSet(t *testing.T, label string, got, want []isa.Program) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d programs, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := isa.EncodeProgram(got[i]), isa.EncodeProgram(want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: mpu%d program differs from the hand-wired build (%d vs %d bytes encoded)",
				label, i, len(g), len(w))
		}
	}
}

func runStats(t *testing.T, spec *backends.Spec, progs []isa.Program, write func(t *testing.T, m *machine.Machine)) []byte {
	t.Helper()
	m, err := machine.New(machine.Config{Spec: spec, Mode: machine.ModeMPU, NumMPUs: len(progs)})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range progs {
		if err := m.LoadProgram(id, p); err != nil {
			t.Fatal(err)
		}
	}
	write(t, m)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func broadcast(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// The apps' register maps: editdistance keeps the resident chunk, the
// visiting query and the best score in r0..r2; llmencode keeps d features
// in r0.., and W1 then W2 row-major from r4.
const (
	edChunk, edQuery, edBest = 0, 1, 2
	llmX, llmW1, llmD        = 0, 4, 4
)

// writeEditDistanceInputs mirrors RunEditDistance's data load (same rng
// stream) for the default 8×4 configuration.
func writeEditDistanceInputs(t *testing.T, spec *backends.Spec, m *machine.Machine) {
	t.Helper()
	const mpus, vrfs = 8, 4
	lanes := spec.Lanes
	addrs := make([]controlpath.VRFAddr, vrfs)
	for v := range addrs {
		addrs[v] = controlpath.VRFAddr{RFH: uint8(v % spec.RFHsPerMPU), VRF: uint8(v / spec.RFHsPerMPU)}
	}
	rng := rand.New(rand.NewSource(7))
	n := vrfs * lanes
	for id := 0; id < mpus; id++ {
		chunks := make([]uint64, n)
		queries := make([]uint64, n)
		for i := range chunks {
			chunks[i] = rng.Uint64()
			queries[i] = rng.Uint64()
		}
		for v := 0; v < vrfs; v++ {
			lo := v * lanes
			if err := m.WriteVector(id, addrs[v], edChunk, chunks[lo:lo+lanes]); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteVector(id, addrs[v], edQuery, queries[lo:lo+lanes]); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteVector(id, addrs[v], edBest, broadcast(lanes, 1<<20)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// writeLLMEncodeInputs mirrors RunLLMEncode's data load for the default
// coordinator+3-workers, 2-VRF configuration.
func writeLLMEncodeInputs(t *testing.T, spec *backends.Spec, m *machine.Machine) {
	t.Helper()
	const workers, vrfs = 3, 2
	const d = llmD
	per := workers + 1
	lanes := spec.Lanes
	computeAddrs, _ := apps.ColumnLayout(vrfs)
	rng := rand.New(rand.NewSource(7))
	var w1, w2 [d][d]uint64
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			w1[i][j] = uint64(rng.Intn(4))
			w2[i][j] = uint64(rng.Intn(4))
		}
	}
	nTok := vrfs * lanes
	xs := make([][][d]uint64, per)
	for batch := 0; batch < per; batch++ {
		xs[batch] = make([][d]uint64, nTok)
		for tok := range xs[batch] {
			for f := 0; f < d; f++ {
				xs[batch][tok][f] = uint64(rng.Intn(2 * apps.Q))
			}
		}
	}
	const coord = 0
	for v := 0; v < vrfs; v++ {
		a := computeAddrs[v]
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if err := m.WriteVector(coord, a, llmW1+i*d+j, broadcast(lanes, w1[i][j])); err != nil {
					t.Fatal(err)
				}
				if err := m.WriteVector(coord, a, llmW1+d*d+i*d+j, broadcast(lanes, w2[i][j])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for batch := 0; batch < per; batch++ {
		for v := 0; v < vrfs; v++ {
			a := computeAddrs[v]
			if batch > 0 {
				a = controlpath.VRFAddr{RFH: uint8(v), VRF: uint8(batch)}
			}
			for f := 0; f < d; f++ {
				vals := make([]uint64, lanes)
				for l := 0; l < lanes; l++ {
					vals[l] = xs[batch][v*lanes+l][f]
				}
				if err := m.WriteVector(coord, a, llmX+f, vals); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestPipelineParityEditDistance(t *testing.T) {
	for _, spec := range paritySpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c := compileExample(t, spec, "editdistance_ring")
			want, err := apps.BuildEditDistancePrograms(apps.EditDistanceConfig{Spec: spec, Mode: machine.ModeMPU})
			if err != nil {
				t.Fatal(err)
			}
			sameProgramSet(t, "editdistance", c.Programs, want)

			write := func(t *testing.T, m *machine.Machine) { writeEditDistanceInputs(t, spec, m) }
			got := runStats(t, spec, c.Programs, write)
			ref := runStats(t, spec, want, write)
			if !bytes.Equal(got, ref) {
				t.Fatalf("stats differ:\nfbp:  %s\nhand: %s", got, ref)
			}
		})
	}
}

func TestPipelineParityLLMEncode(t *testing.T) {
	for _, spec := range paritySpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c := compileExample(t, spec, "llmencode")
			want, err := apps.BuildLLMEncodePrograms(apps.LLMEncodeConfig{Spec: spec, Mode: machine.ModeMPU})
			if err != nil {
				t.Fatal(err)
			}
			sameProgramSet(t, "llmencode", c.Programs, want)

			write := func(t *testing.T, m *machine.Machine) { writeLLMEncodeInputs(t, spec, m) }
			got := runStats(t, spec, c.Programs, write)
			ref := runStats(t, spec, want, write)
			if !bytes.Equal(got, ref) {
				t.Fatalf("stats differ:\nfbp:  %s\nhand: %s", got, ref)
			}
		})
	}
}

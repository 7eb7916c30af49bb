package machine_test

// Snapshot compatibility across the storage collapse. The fixtures under
// testdata/snapcompat were written by the commit that still had two VRF
// plane layouts and three replay modes (machine.Config{Spec, ModeMPU,
// NumMPUs: 1, Workers: 1, ActiveVRFsOverride: 1}; a three-VRF ensemble of
// ADD / SETMASK / SUB / UNMASK / XOR preempted twice, so the body's trace is
// installed, lowered, and one round short of done), together with the
// stats and final-state digest that commit went on to produce:
//
//   - word-aligned geometries (RACER's 64 lanes, SIMDRAM's 256) must
//     restore, re-encode to the same bytes, and resume to the same result;
//   - the retired per-register layout (a 48-lane snapshot) must be refused
//     with an error.
//
// The ghost-lane tests pin the check the single flat layout needs at lane
// counts that leave a tail: a set bit at or beyond the lane count in any
// plane is refused, and the machine is left untouched.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "snapcompat", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func compatConfig(spec *backends.Spec) machine.Config {
	return machine.Config{Spec: spec, Mode: machine.ModeMPU, NumMPUs: 1, Workers: 1, ActiveVRFsOverride: 1}
}

func TestSnapshotCompatFixtures(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *backends.Spec
	}{{"racer64", backends.RACER()}, {"simdram256", backends.SIMDRAM()}} {
		data := readFixture(t, tc.name+".snap.gz")
		var want struct {
			Stats json.RawMessage `json:"stats"`
			Final string          `json:"final_snapshot_sha256"`
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "snapcompat", tc.name+".want.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(compatConfig(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(data); err != nil {
			t.Fatalf("%s: restoring the parent commit's snapshot: %v", tc.name, err)
		}
		if again := m.Snapshot(); !bytes.Equal(again, data) {
			t.Fatalf("%s: restored snapshot re-encodes to different bytes (%d vs %d)", tc.name, len(again), len(data))
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.name, err)
		}
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var wantStats bytes.Buffer
		if err := json.Compact(&wantStats, want.Stats); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantStats.Bytes()) {
			t.Errorf("%s: resumed stats diverge from the parent commit's:\n got: %s\nwant: %s", tc.name, got, wantStats.Bytes())
		}
		if sum := sha256.Sum256(m.Snapshot()); hex.EncodeToString(sum[:]) != want.Final {
			t.Errorf("%s: final architectural state diverges from the parent commit's", tc.name)
		}
	}
}

func TestRestoreRejectsRetiredPlaneLayout(t *testing.T) {
	m, err := machine.New(compatConfig(fuzzSpec()))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	err = m.Restore(readFixture(t, "ragged48.snap.gz"))
	if err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("restore of a per-register-layout snapshot: %v, want the retired-layout error", err)
	}
	if !bytes.Equal(before, m.Snapshot()) {
		t.Error("failed restore mutated the machine")
	}
}

// reseal recomputes a mutated stream's trailing checksum, so the mutation
// reaches the decoder instead of dying at the integrity check.
func reseal(data []byte) []byte {
	h := fnv.New64a()
	h.Write(data[:len(data)-8])
	binary.LittleEndian.PutUint64(data[len(data)-8:], h.Sum64())
	return data
}

// ghostLaneMutants returns one mutant of a 48-lane snapshot per plane word
// equal to pattern, each with lane bit 48 — one past the last lane — set in
// that word.
func ghostLaneMutants(data []byte, pattern uint64) [][]byte {
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], pattern)
	var mutants [][]byte
	for off := 0; ; {
		i := bytes.Index(data[off:], le[:])
		if i < 0 {
			return mutants
		}
		mut := append([]byte(nil), data...)
		mut[off+i+6] |= 1 // bit 48 of the little-endian word
		mutants = append(mutants, reseal(mut))
		off += i + 8
	}
}

// allLanes48 is a 48-lane plane with every lane set: each VRF's
// constant-one plane and (unmasked) mask plane.
const allLanes48 = uint64(1)<<48 - 1

func TestRestoreRejectsGhostLanes(t *testing.T) {
	cfg := compatConfig(fuzzSpec())
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble("COMPUTE rfh0 vrf0\nCOMPUTE rfh0 vrf1\nADD r0 r1 r2\nCOMPUTE_DONE\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	// A marker pattern locates one register plane in the stream: r5 bit 0.
	const marker = uint64(0x0000_a5c3_96e1_5a3d)
	vals := make([]uint64, cfg.Spec.Lanes)
	for l := range vals {
		vals[l] = marker >> uint(l) & 1
	}
	for v := 0; v < 2; v++ {
		if err := m.WriteVector(0, controlpath.VRFAddr{VRF: uint8(v)}, 5, vals); err != nil {
			t.Fatal(err)
		}
	}
	data := m.Snapshot()
	mutants := append(ghostLaneMutants(data, marker), ghostLaneMutants(data, allLanes48)...)
	if len(mutants) != 6 { // per VRF: the marker plane, the one plane, the mask plane
		t.Fatalf("located %d plane words to corrupt, want 6", len(mutants))
	}

	fresh, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(data); err != nil {
		t.Fatalf("clean 48-lane snapshot: %v", err)
	}
	for i, mut := range mutants {
		err := fresh.Restore(mut)
		if err == nil || !strings.Contains(err.Error(), "beyond lane 48") {
			t.Errorf("mutant %d: restore: %v, want a bits-beyond-lane-48 error", i, err)
		}
		if !bytes.Equal(fresh.Snapshot(), data) {
			t.Fatalf("mutant %d: failed restore mutated the machine", i)
		}
	}
}

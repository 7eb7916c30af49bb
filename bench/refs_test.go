package main

import (
	"regexp"
	"strings"
	"testing"
)

func tinyDigest(t *testing.T, w *workloadDef, seed int64) string {
	t.Helper()
	inst, err := w.setup(seed, &tinySizes)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	defer inst.close()
	return inst.refs().digest()
}

// The seed really reaches the inputs, and nothing else does.
func TestReferenceTablesFollowTheSeed(t *testing.T) {
	for _, w := range allWorkloads {
		a, b, c := tinyDigest(t, w, 1), tinyDigest(t, w, 1), tinyDigest(t, w, 2)
		if a != b {
			t.Errorf("%s: two set-ups with seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same reference table", w.name)
		}
	}
}

// Every workload has a digest pinned for seed 1 (the benchmark compares it
// at full size on every run with that seed).
func TestGoldenDigestsArePinned(t *testing.T) {
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range allWorkloads {
		b, err := goldenFS.ReadFile(goldenName(w.name, 1))
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if !hex.MatchString(strings.TrimSpace(string(b))) {
			t.Errorf("%s: pinned digest %q is not a SHA-256", w.name, b)
		}
	}
	if err := checkGolden("sim-replay", 1, &fullSizes, strings.Repeat("0", 64)); err == nil {
		t.Error("a digest that differs from the pinned one passed")
	}
	if err := checkGolden("sim-replay", 12345, &fullSizes, strings.Repeat("0", 64)); err != nil {
		t.Errorf("a seed with no pinned digest failed: %v", err)
	}
}

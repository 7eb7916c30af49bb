package router

import (
	"fmt"
	"testing"
)

func TestRingCandidatesDeterministicAndDistinct(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3"}
	r := newRing(names, 64)
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("racer|mpu|kernel%d", k)
		a := r.candidates(key, 3)
		b := r.candidates(key, 3)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("key %q: candidates not deterministic: %v vs %v", key, a, b)
		}
		if len(a) != 3 {
			t.Fatalf("key %q: want 3 candidates, got %v", key, a)
		}
		seen := map[int]bool{}
		for _, n := range a {
			if seen[n] {
				t.Fatalf("key %q: duplicate node in candidate set %v", key, a)
			}
			seen[n] = true
		}
	}
}

// TestRingBalance pins that the ring spreads a key population across every
// node: with 64 virtual points per node no node owns a wildly outsized
// share, and none is starved.
func TestRingBalance(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3"}
	r := newRing(names, 64)
	owns := make([]int, len(names))
	const keys = 4000
	for k := 0; k < keys; k++ {
		owns[r.candidates(fmt.Sprintf("racer|mpu|prog%d", k), 1)[0]]++
	}
	for i, c := range owns {
		if c == 0 {
			t.Fatalf("node %d owns no keys: %v", i, owns)
		}
		if c > keys/2 {
			t.Fatalf("node %d owns %d of %d keys — ring is degenerate: %v", i, c, keys, owns)
		}
	}
}

// TestRingStability pins minimal disruption: adding a node moves only a
// fraction of the key space (the consistent-hashing property the cache
// affinity argument rests on).
func TestRingStability(t *testing.T) {
	r3 := newRing([]string{"n0", "n1", "n2"}, 64)
	r4 := newRing([]string{"n0", "n1", "n2", "n3"}, 64)
	const keys = 2000
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("racer|mpu|prog%d", k)
		before := r3.candidates(key, 1)[0]
		after := r4.candidates(key, 1)[0]
		if after != 3 && after != before {
			t.Fatalf("key %q moved between surviving nodes: %d -> %d", key, before, after)
		}
		if after != before {
			moved++
		}
	}
	// Expect ~1/4 of keys to move to the new node; allow a generous band.
	if moved < keys/10 || moved > keys/2 {
		t.Fatalf("adding a node moved %d/%d keys (want ~1/4)", moved, keys)
	}
}

func TestShardKeyIgnoresDataShape(t *testing.T) {
	a := shardKey(&shardFields{Workload: "gcd", Backend: "racer", Mode: "mpu"})
	b := shardKey(&shardFields{Workload: "gcd", Backend: "RACER"})
	if a != b {
		t.Fatalf("mode default / backend case changed the key: %q vs %q", a, b)
	}
	c := shardKey(&shardFields{Workload: "relu", Backend: "racer"})
	if a == c {
		t.Fatalf("different programs share a key: %q", a)
	}
	d := shardKey(&shardFields{Binary: "AAAA", Backend: "racer"})
	e := shardKey(&shardFields{Binary: "AAAB", Backend: "racer"})
	if d == e {
		t.Fatalf("different binaries share a key: %q", d)
	}
}

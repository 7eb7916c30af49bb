package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over node indices. Each node contributes
// replicas virtual points; a key owns the first point clockwise from its
// hash, and its candidate set is the first distinct nodes from there. The
// point of hashing on (backend, mode, program-hash) rather than the whole
// request is cache affinity: identical programs — whatever their elements or
// seed — land on the node whose batching coalescer, expansion kernels, and
// per-core trace caches already hold them, so adding nodes shards the program working
// set instead of spraying it.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int
}

// newRing builds the ring: replicas virtual points per node, hashed from
// "name#i" so the layout depends only on node names, not list order.
func newRing(names []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &ring{points: make([]ringPoint, 0, len(names)*replicas)}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", name, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node // stable under hash collisions
	})
	return r
}

// candidates returns up to n distinct node indices in ring order starting at
// the key's owner. The first entry is the primary owner; the rest are the
// fallback/hedge set, deterministic for a given key and node set.
func (r *ring) candidates(key string, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[int]bool{}
	var out []int
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ringHash is fnv64 with a 64-bit avalanche finalizer on top: FNV-1a alone
// diffuses short, similar strings ("n0#17", "n0#18") poorly into the upper
// bits that decide ring order, which skews point placement badly.
func ringHash(s string) uint64 {
	h := fnv64(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

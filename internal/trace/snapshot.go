package trace

import "sort"

// CacheEntry is the exported form of one cache slot, used by machine
// snapshots. It carries the memoized classification verdict and recording
// outcome exactly as the private entry does; Tr is shared, not copied —
// installed traces are immutable once recorded (Prog excepted, which the
// restoring machine recomputes, and the flat Ops, built on first use).
type CacheEntry struct {
	Key        Key
	Classified bool // Eligible's verdict has been memoized
	Eligible   bool // ClassifyBody proved the body straight-line/static
	Done       bool // a recording attempt concluded (Tr may still be nil)
	Tr         *Trace
}

// SnapshotEntries returns every cache slot ordered by key (BodyStart, then
// BodyLen) — a canonical order independent of map iteration, so two
// machines in the same state serialize identically. Every trace it hands
// out is flat: the codec reads Step.Ops.
func (c *Cache) SnapshotEntries() []CacheEntry {
	out := make([]CacheEntry, 0, len(c.m))
	for k, e := range c.m {
		if e.tr != nil {
			e.tr.Flatten()
		}
		out = append(out, CacheEntry{Key: k, Classified: e.classified, Eligible: e.eligible, Done: e.done, Tr: e.tr})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.BodyStart != out[j].Key.BodyStart {
			return out[i].Key.BodyStart < out[j].Key.BodyStart
		}
		return out[i].Key.BodyLen < out[j].Key.BodyLen
	})
	return out
}

// RestoreEntries replaces the cache contents with the given slots.
func (c *Cache) RestoreEntries(entries []CacheEntry) {
	c.m = make(map[Key]*cacheEntry, len(entries))
	for _, e := range entries {
		c.m[e.Key] = &cacheEntry{classified: e.Classified, eligible: e.Eligible, done: e.Done, tr: e.Tr}
	}
}

// Package controlpath implements the hardware building blocks of the MPU
// control path (§VI): the thermal-aware scheduler that batches VRF
// activations (Fig. 10), the recipe-table model with its pointer-table and
// template-lookup optimizations (Fig. 9), the playback buffer, the
// return-address stack backing JUMP/RETURN, and the data transfer
// controller's target map. The machine package wires these into a full MPU.
//
// Concurrency contract: every stateful structure here (RecipeCache,
// PlaybackBuffer, the return stack) is owned by exactly ONE core and is
// never locked — the machine's phase-barrier scheduler runs cores on
// separate goroutines, and each core touches only its own control path.
// Batches and the other pure functions are safe from any goroutine. Adding
// cross-core sharing to this package means adding synchronization AND a
// deterministic merge, or the worker-count stats parity breaks.
package controlpath

import "fmt"

// VRFAddr names one VRF within an MPU.
type VRFAddr struct {
	RFH, VRF uint8
}

func (a VRFAddr) String() string { return fmt.Sprintf("rfh%d.vrf%d", a.RFH, a.VRF) }

// Batches implements the Fig. 10 scheduling algorithm: the ensemble's VRFs
// are queued per RF holder and activated in rounds of at most limit VRFs per
// RFH. VRFs in different RFHs activate concurrently, so round r contains the
// r-th wave from every RFH queue. The returned slice has one entry per
// round, in activation order.
func Batches(vrfs []VRFAddr, limit int) [][]VRFAddr {
	if limit <= 0 {
		panic(fmt.Sprintf("controlpath: activation limit %d must be positive", limit))
	}
	queues := map[uint8][]VRFAddr{}
	var order []uint8
	seen := map[VRFAddr]bool{}
	for _, a := range vrfs {
		if seen[a] {
			continue // duplicate COMPUTE of the same VRF activates once
		}
		seen[a] = true
		if _, ok := queues[a.RFH]; !ok {
			order = append(order, a.RFH)
		}
		queues[a.RFH] = append(queues[a.RFH], a)
	}
	var rounds [][]VRFAddr
	for r := 0; ; r++ {
		var round []VRFAddr
		for _, rfh := range order {
			q := queues[rfh]
			lo := r * limit
			if lo >= len(q) {
				continue
			}
			hi := lo + limit
			if hi > len(q) {
				hi = len(q)
			}
			round = append(round, q[lo:hi]...)
		}
		if len(round) == 0 {
			return rounds
		}
		rounds = append(rounds, round)
	}
}

// RecipeCacheConfig selects the Fig. 9 optimizations and capacities
// (Table III: 1024 template-lookup entries, 20 pointer-table entries).
type RecipeCacheConfig struct {
	CapacityMicroOps int  // recipe-table capacity in micro-op templates
	PointerTable     bool // share common recipe subsequences
	TemplateLookup   bool // cache recipes from binary storage on demand
	MissPenaltyPer   int  // extra cycles per micro-op fetched on a miss
}

// DefaultRecipeCacheConfig returns the evaluated configuration.
func DefaultRecipeCacheConfig() RecipeCacheConfig {
	return RecipeCacheConfig{
		CapacityMicroOps: 4096,
		PointerTable:     true,
		TemplateLookup:   true,
		MissPenaltyPer:   2,
	}
}

// RecipeCache models decode-side stalls of the I2M recipe table. Recipes are
// identified by opcode; the functional expansion itself lives in
// internal/recipe — this model only accounts for the cycles the decoder
// stalls while a recipe is brought into the table.
type RecipeCache struct {
	cfg      RecipeCacheConfig
	resident map[uint8]int // opcode -> stored size (micro-ops)
	lru      []uint8
	used     int

	Hits, Misses uint64
	StallCycles  int64
}

// NewRecipeCache builds a cache with the given configuration.
func NewRecipeCache(cfg RecipeCacheConfig) *RecipeCache {
	if cfg.CapacityMicroOps <= 0 {
		panic("controlpath: recipe cache capacity must be positive")
	}
	return &RecipeCache{cfg: cfg, resident: map[uint8]int{}}
}

// Lookup charges the decode cost for one instruction whose recipe has the
// given micro-op count, returning the stall cycles incurred.
func (c *RecipeCache) Lookup(opcode uint8, microOps int) int64 {
	stored := microOps
	if c.cfg.PointerTable {
		// Common subsequences (adder chains, gate idioms) are shared via the
		// pointer table, compressing the stored template substantially.
		stored = microOps/3 + 1
	}
	if size, ok := c.resident[opcode]; ok && size == stored {
		c.Hits++
		c.touch(opcode)
		return 0
	}
	c.Misses++
	if !c.cfg.TemplateLookup {
		// Without the template-lookup table the decoder re-walks binary
		// storage for every occurrence and nothing becomes resident.
		stall := int64(c.cfg.MissPenaltyPer) * int64(stored)
		c.StallCycles += stall
		return stall
	}
	// Evict LRU entries until the recipe fits.
	for c.used+stored > c.cfg.CapacityMicroOps && len(c.lru) > 0 {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		c.used -= c.resident[victim]
		delete(c.resident, victim)
	}
	if stored <= c.cfg.CapacityMicroOps {
		c.resident[opcode] = stored
		c.used += stored
		c.lru = append(c.lru, opcode)
	}
	stall := int64(c.cfg.MissPenaltyPer) * int64(stored)
	c.StallCycles += stall
	return stall
}

// Reset returns the cache to its just-constructed state — contents,
// recency order, and the accounting counters. Machine.Reset calls it when a
// pooled machine is recycled, so a warm run charges exactly the stalls a
// fresh machine would.
func (c *RecipeCache) Reset() {
	c.resident = map[uint8]int{}
	c.lru = nil
	c.used = 0
	c.Hits, c.Misses, c.StallCycles = 0, 0, 0
}

// ResetCounters zeroes the hit/miss/stall accounting while keeping the
// resident recipes and their recency order. Machine.Rewind uses it: a
// steady-state re-invocation of a resident kernel starts a fresh account
// but decodes against the table the previous run warmed.
func (c *RecipeCache) ResetCounters() {
	c.Hits, c.Misses, c.StallCycles = 0, 0, 0
}

// touch moves a resident opcode to the most recent end of the LRU order, in
// place: an interpreted round calls it once per datapath instruction.
func (c *RecipeCache) touch(opcode uint8) {
	for i, op := range c.lru {
		if op == opcode {
			copy(c.lru[i:], c.lru[i+1:])
			c.lru[len(c.lru)-1] = opcode
			return
		}
	}
}

// PlaybackBuffer models the CC's instruction replay storage (Table III: 1024
// entries). Ensemble bodies that exceed it must be refetched from the ISU on
// every replay round.
type PlaybackBuffer struct {
	Capacity  int
	Overflows uint64
}

// NewPlaybackBuffer returns a buffer with the Table III capacity.
func NewPlaybackBuffer() *PlaybackBuffer { return &PlaybackBuffer{Capacity: 1024} }

// Reset clears the overflow count (machine recycling).
func (b *PlaybackBuffer) Reset() { b.Overflows = 0 }

// Fits records an ensemble body of n instructions and reports whether it can
// be replayed from the buffer.
func (b *PlaybackBuffer) Fits(n int) bool {
	if n > b.Capacity {
		b.Overflows++
		return false
	}
	return true
}

// ReturnStack is the control path's return-address stack for JUMP/RETURN.
type ReturnStack struct {
	addrs []int
	limit int
}

// NewReturnStack returns a stack with the given depth limit.
func NewReturnStack(limit int) *ReturnStack { return &ReturnStack{limit: limit} }

// Reset drops every saved frame (machine recycling).
func (s *ReturnStack) Reset() { s.addrs = s.addrs[:0] }

// Push saves a return address.
func (s *ReturnStack) Push(pc int) error {
	if len(s.addrs) >= s.limit {
		return fmt.Errorf("controlpath: return stack overflow (depth %d)", s.limit)
	}
	s.addrs = append(s.addrs, pc)
	return nil
}

// Pop restores the most recent return address.
func (s *ReturnStack) Pop() (int, error) {
	if len(s.addrs) == 0 {
		return 0, fmt.Errorf("controlpath: RETURN with empty return stack")
	}
	pc := s.addrs[len(s.addrs)-1]
	s.addrs = s.addrs[:len(s.addrs)-1]
	return pc, nil
}

// Depth reports the current nesting depth.
func (s *ReturnStack) Depth() int { return len(s.addrs) }

// RFHPair is one source→destination entry in the DTC target map.
type RFHPair struct {
	Src, Dst uint8
}

// TargetMap is the DTC state configured by a transfer ensemble's MOVE
// header (§VI-D).
type TargetMap struct {
	pairs []RFHPair
}

// Add appends an RFH pair from a MOVE instruction.
func (t *TargetMap) Add(src, dst uint8) { t.pairs = append(t.pairs, RFHPair{src, dst}) }

// Pairs returns the configured pairs in header order.
func (t *TargetMap) Pairs() []RFHPair { return t.pairs }

// Reset clears the map at MOVE_DONE.
func (t *TargetMap) Reset() { t.pairs = t.pairs[:0] }

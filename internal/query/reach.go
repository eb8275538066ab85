package query

import (
	"sync"

	"repro/internal/obs"
)

// reachShardCount is the number of independently locked shards of one plan's
// reach memo. Workers classifying disjoint log-row ranges hit the memo from
// every goroutine of the pool, so it is sharded by key hash to keep the hot
// path a short critical section instead of one contended mutex.
const reachShardCount = 8

// reachCache is a bounded concurrent memo of forward-propagation results
// (start ID -> reachable end-ID set) for one compiled closed plan. It
// replaces the unbounded sync.Map the prepared-plan cache used to retain for
// the life of a plan entry: entries are capped and evicted with a clock
// (second-chance) sweep, so a plan that classifies a hospital-scale log pins
// a bounded working set of propagation results instead of one per distinct
// start value forever. Eviction never changes results — propagate is
// deterministic, so an evicted entry is simply recomputed on the next miss;
// the differential tests run the cached and evicted paths against each
// other.
type reachCache struct {
	evictions *obs.Counter // engine-wide eviction counter, shared by all plans
	shards    [reachShardCount]reachShard
}

type reachShard struct {
	mu sync.Mutex
	// cap bounds this shard's resident entries; 0 means unbounded (the
	// pre-bounding behavior, available via SetReachMemoCap(0)). It is
	// guarded by mu because SetReachMemoCap re-caps live caches.
	cap     int
	entries map[uint32]*reachEntry
	ring    []uint32 // clock ring over resident keys
	hand    int      // next ring position the clock sweep inspects
}

type reachEntry struct {
	set valueSet
	ref bool // second-chance bit: set on every hit, cleared by the sweep
}

// newReachCache builds a memo capped at roughly bound entries across all
// shards (bound <= 0 means unbounded), charging evictions to the given
// engine-wide counter.
func newReachCache(bound int, evictions *obs.Counter) *reachCache {
	c := &reachCache{evictions: evictions}
	for i := range c.shards {
		c.shards[i].cap = perShardCap(bound)
		c.shards[i].entries = make(map[uint32]*reachEntry)
	}
	return c
}

// perShardCap spreads a whole-cache bound across the shards (0 stays 0,
// meaning unbounded).
func perShardCap(bound int) int {
	if bound <= 0 {
		return 0
	}
	return (bound + reachShardCount - 1) / reachShardCount
}

// setCap re-bounds a live cache: the new cap applies immediately, and shards
// over the new bound evict down via the same clock policy the insert path
// uses (clear reference bits, evict unreferenced entries), so an engine
// whose cap is lowered mid-life releases memory without rebuilding its
// plans. Raising the cap (or passing 0) just lifts the bound. Eviction
// deletes map entries during the sweep and compacts the ring once at the
// end — O(resident entries), never per-eviction ring surgery — so re-capping
// a large warm memo stays linear.
func (c *reachCache) setCap(bound int) {
	per := perShardCap(bound)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.cap = per
		if s.cap > 0 && len(s.entries) > s.cap {
			// Clock sweep: the first lap clears reference bits, so within two
			// laps enough unreferenced entries are found and deleted.
			n := len(s.ring)
			for len(s.entries) > s.cap {
				k := s.ring[s.hand]
				if e, ok := s.entries[k]; ok {
					if e.ref {
						e.ref = false
					} else {
						delete(s.entries, k)
						c.evictions.Add(1)
					}
				}
				s.hand = (s.hand + 1) % n
			}
			// Compact the ring once: survivors keep their clock order and the
			// hand keeps its position among them.
			ring := make([]uint32, 0, len(s.entries))
			hand := 0
			for j, k := range s.ring {
				if _, ok := s.entries[k]; !ok {
					continue
				}
				if j < s.hand {
					hand++
				}
				ring = append(ring, k)
			}
			if hand >= len(ring) {
				hand = 0
			}
			s.ring, s.hand = ring, hand
		}
		s.mu.Unlock()
	}
}

// shard picks the shard for a key: dictionary IDs are dense, so the low
// bits spread them evenly.
func (c *reachCache) shard(v uint32) *reachShard { return &c.shards[v%reachShardCount] }

// get returns the memoized set for v and marks it recently used.
func (c *reachCache) get(v uint32) (valueSet, bool) {
	s := c.shard(v)
	s.mu.Lock()
	e, ok := s.entries[v]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	e.ref = true
	set := e.set
	s.mu.Unlock()
	return set, true
}

// put installs set for v, evicting one resident entry via the clock sweep if
// the shard is at capacity. Racing workers may propagate the same start
// value concurrently; the first put wins and later ones are dropped, which
// is fine because propagate is deterministic.
func (c *reachCache) put(v uint32, set valueSet) {
	s := c.shard(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[v]; ok {
		return
	}
	if s.cap > 0 && len(s.entries) >= s.cap {
		// Clock sweep: clear reference bits until an unreferenced entry is
		// found (at most two passes — after one full sweep every bit is
		// clear) and replace it in place.
		for {
			k := s.ring[s.hand]
			e := s.entries[k]
			if e.ref {
				e.ref = false
				s.hand = (s.hand + 1) % len(s.ring)
				continue
			}
			delete(s.entries, k)
			s.ring[s.hand] = v
			s.entries[v] = &reachEntry{set: set, ref: true}
			s.hand = (s.hand + 1) % len(s.ring)
			c.evictions.Add(1)
			return
		}
	}
	s.ring = append(s.ring, v)
	s.entries[v] = &reachEntry{set: set, ref: true}
}

// len returns the resident entry count across all shards.
func (c *reachCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

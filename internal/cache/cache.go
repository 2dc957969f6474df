// Package cache implements the cache structures the paper's system is built
// from: a set-associative, true-LRU tag array with way-partition-aware
// victim selection (used for the private L1s and the shared L2), a
// per-application auxiliary tag store with LRU-stack-position hit profiles
// (used by ASM, PTCA, UCP and ASM-Cache), a Bloom-filter pollution filter
// (used by FST), and a simple MSHR file.
//
// The structures here are purely functional tag state; all timing lives in
// the sim package.
package cache

import "fmt"

// NoApp marks a line not owned by any application (invalid lines).
const NoApp = -1

// Line is one cache line's tag state.
type Line struct {
	Tag   uint64
	App   int16 // owning application (core) id
	Valid bool
	Dirty bool
}

// Victim describes the line displaced by an insertion.
type Victim struct {
	Valid    bool   // a valid line was evicted
	Dirty    bool   // ... and it was dirty (needs writeback)
	App      int16  // owner of the evicted line
	LineAddr uint64 // full line address of the evicted line
}

// Cache is a set-associative tag array with true LRU replacement and
// optional way partitioning among applications. Storage is flat (one slab
// for lines, one for the per-set LRU stacks) for locality: the shared L2
// tag array is probed on every private-cache miss.
type Cache struct {
	lines    []Line  // numSets*ways, indexed set*ways+way
	lru      []uint8 // per-set stacks: lru[set*ways+pos] = way at stack pos
	numSets  uint64
	ways     int
	alloc    []int // ways allocated per app; nil means unpartitioned
	hits     []uint64
	misses   []uint64
	occupied []uint64 // valid lines owned per app (whole cache)
}

// New returns a cache with the given geometry. Both arguments must be
// positive and numSets must be a power of two (so set indexing is a mask).
func New(numSets, ways, numApps int) *Cache {
	if numSets <= 0 || ways <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: bad geometry sets=%d ways=%d", numSets, ways))
	}
	c := &Cache{
		lines:    make([]Line, numSets*ways),
		lru:      make([]uint8, numSets*ways),
		numSets:  uint64(numSets),
		ways:     ways,
		hits:     make([]uint64, numApps),
		misses:   make([]uint64, numApps),
		occupied: make([]uint64, numApps),
	}
	// Every set starts the same — invalid, unowned lines under the identity
	// LRU stack — so one set is written and the rest are copies of it,
	// doubling the initialised prefix each time: the shared L2 alone is
	// 32 K lines, and every cold job builds ten of them.
	for w := 0; w < ways; w++ {
		c.lines[w].App = NoApp
		c.lru[w] = uint8(w)
	}
	for n := ways; n < len(c.lines); n *= 2 {
		copy(c.lines[n:], c.lines[:n])
		copy(c.lru[n:], c.lru[:n])
	}
	return c
}

// index splits a line address into set index and tag.
func (c *Cache) index(lineAddr uint64) (uint64, uint64) {
	return lineAddr & (c.numSets - 1), lineAddr / c.numSets
}

// lineAddr reconstructs a line address from a set index and tag.
func (c *Cache) lineAddr(setIdx, tag uint64) uint64 {
	return tag*c.numSets + setIdx
}

// SetPartition installs a way allocation (one entry per app). The sum of
// allocations may be at most the associativity; remaining ways are
// effectively shared slack. Passing nil removes partitioning. The partition
// is enforced lazily by victim selection: over-quota apps lose lines as
// insertions occur, as in UCP.
func (c *Cache) SetPartition(alloc []int) {
	if alloc == nil {
		c.alloc = nil
		return
	}
	total := 0
	for _, a := range alloc {
		if a < 0 {
			panic("cache: negative way allocation")
		}
		total += a
	}
	if total > c.ways {
		panic(fmt.Sprintf("cache: allocation %d exceeds %d ways", total, c.ways))
	}
	c.alloc = append(c.alloc[:0], alloc...)
}

// Partition returns the current way allocation, or nil if unpartitioned.
func (c *Cache) Partition() []int { return c.alloc }

// Lookup probes the cache. On a hit the line is moved to MRU and, for
// writes, marked dirty. It returns whether the probe hit.
func (c *Cache) Lookup(app int, lineAddr uint64, isWrite bool) bool {
	setIdx, tag := c.index(lineAddr)
	base := int(setIdx) * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.Valid && ln.Tag == tag {
			if isWrite {
				ln.Dirty = true
			}
			c.touch(base, uint8(w))
			c.hits[app]++
			return true
		}
	}
	c.misses[app]++
	return false
}

// Peek reports whether lineAddr is present without updating LRU state or
// hit/miss counters.
func (c *Cache) Peek(lineAddr uint64) bool {
	setIdx, tag := c.index(lineAddr)
	base := int(setIdx) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].Valid && c.lines[base+w].Tag == tag {
			return true
		}
	}
	return false
}

// Insert places lineAddr for app, selecting a victim according to the
// current partition, and returns the displaced line (if any). Inserting a
// line that is already present only refreshes its LRU position.
func (c *Cache) Insert(app int, lineAddr uint64, dirty bool) Victim {
	setIdx, tag := c.index(lineAddr)
	base := int(setIdx) * c.ways

	// Already present (e.g., racing fill): refresh.
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.Valid && ln.Tag == tag {
			ln.Dirty = ln.Dirty || dirty
			c.touch(base, uint8(w))
			return Victim{}
		}
	}

	w := c.victimWay(base, app)
	ln := &c.lines[base+int(w)]
	var v Victim
	if ln.Valid {
		v = Victim{
			Valid:    true,
			Dirty:    ln.Dirty,
			App:      ln.App,
			LineAddr: c.lineAddr(setIdx, ln.Tag),
		}
		c.occupied[ln.App]--
	}
	*ln = Line{Tag: tag, App: int16(app), Valid: true, Dirty: dirty}
	c.occupied[app]++
	c.touch(base, w)
	return v
}

// victimWay picks the way to evict for an insertion by app. base is the
// set's offset into the flat slabs.
func (c *Cache) victimWay(base int, app int) uint8 {
	lru := c.lru[base : base+c.ways]
	// Invalid lines first, LRU-most preferred.
	for i := c.ways - 1; i >= 0; i-- {
		w := lru[i]
		if !c.lines[base+int(w)].Valid {
			return w
		}
	}
	if c.alloc == nil || app >= len(c.alloc) {
		return lru[c.ways-1] // global LRU
	}
	// Partitioned: count per-app occupancy in this set.
	var occ [64]int
	for w := 0; w < c.ways; w++ {
		a := c.lines[base+w].App
		if a >= 0 && int(a) < len(occ) {
			occ[a]++
		}
	}
	if occ[app] >= c.alloc[app] && c.alloc[app] > 0 {
		// App is at/over its quota: evict its own LRU line.
		for i := c.ways - 1; i >= 0; i-- {
			w := lru[i]
			if int(c.lines[base+int(w)].App) == app {
				return w
			}
		}
	}
	// Under quota (or quota zero): evict LRU line of the most over-quota
	// app; fall back to global LRU.
	for i := c.ways - 1; i >= 0; i-- {
		w := lru[i]
		a := int(c.lines[base+int(w)].App)
		if a >= 0 && a < len(c.alloc) && occ[a] > c.alloc[a] {
			return w
		}
	}
	for i := c.ways - 1; i >= 0; i-- {
		w := lru[i]
		a := int(c.lines[base+int(w)].App)
		if a != app {
			return w
		}
	}
	return lru[c.ways-1]
}

// touch moves way w to the MRU position of the set at base.
func (c *Cache) touch(base int, w uint8) {
	lru := c.lru[base : base+c.ways]
	// Find w in the order and rotate it to the front.
	for i, x := range lru {
		if x == w {
			copy(lru[1:i+1], lru[:i])
			lru[0] = w
			return
		}
	}
}

// Hits returns the hit count for app.
func (c *Cache) Hits(app int) uint64 { return c.hits[app] }

// Misses returns the miss count for app.
func (c *Cache) Misses(app int) uint64 { return c.misses[app] }

// Occupancy returns the number of valid lines owned by app across the
// whole cache.
func (c *Cache) Occupancy(app int) uint64 { return c.occupied[app] }

// ResetStats clears hit/miss counters (occupancy is preserved).
func (c *Cache) ResetStats() {
	for i := range c.hits {
		c.hits[i], c.misses[i] = 0, 0
	}
}

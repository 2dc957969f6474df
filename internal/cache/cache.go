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

import (
	"fmt"
	"math/bits"
)

// lineAddrBits bounds every line address a cache is handed: a 64-bit byte
// address divided by the 64-byte line size. The tag word's layout relies
// on it (see Cache).
const lineAddrBits = 58

// LineAddrLimit is one past the largest line address a cache accepts. A
// caller that computes line addresses rather than dividing a byte address
// by the line size (a prefetcher running ahead of a stream) must drop any
// at or above it.
const LineAddrLimit uint64 = 1 << lineAddrBits

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
//
// A line is one word, (tag+1) << tagShift | owner << 1 | dirty, where
// tagShift = ownerBits+1 and ownerBits = bits.Len(numApps-1). A word of 0
// is an invalid line, so a fresh tag array needs no initialisation, and a
// probe for tag t is a single compare of word >> tagShift against t+1.
// Every line address a caller passes must be below LineAddrLimit.
type Cache struct {
	lines     []uint64 // numSets*ways tag words, indexed set*ways+way
	lru       []uint8  // per-set stacks: lru[set*ways+pos] = way at stack pos
	setMask   uint64   // numSets-1
	setBits   uint     // log2(numSets)
	tagShift  uint     // ownerBits+1: where the tag field starts
	ownerMask uint64   // 1<<ownerBits - 1
	ways      int
	alloc     []int // ways allocated per app; nil means unpartitioned
	occ       []int // victimWay's per-set occupancy count, one per app
	hits      []uint64
	misses    []uint64
	occupied  []uint64 // valid lines owned per app (whole cache)
}

// ownerBits returns the width of a tag word's owner field.
func ownerBits(numApps int) int { return bits.Len(uint(max(numApps, 1) - 1)) }

// CheckGeometry reports whether New accepts a cache of numSets sets and
// the given associativity shared by numApps applications: both sizes
// positive, numSets a power of two (set indexing is a mask), and a tag
// word wide enough for every line address below 2^58 next to the owner
// field, which means bits.Len(numApps-1) ≤ 4 + log2(numSets).
func CheckGeometry(numSets, ways, numApps int) error {
	if numSets <= 0 || ways <= 0 || numSets&(numSets-1) != 0 {
		return fmt.Errorf("cache: bad geometry sets=%d ways=%d (sets must be a power of two)", numSets, ways)
	}
	tagBits := lineAddrBits - bits.TrailingZeros(uint(numSets)) + 1 // tag+1 ≤ 2^(58−setBits)
	if ob := ownerBits(numApps); tagBits+ob+1 > 64 {
		return fmt.Errorf("cache: %d sets cannot tag lines of %d applications: a %d-bit tag, %d owner bits and a dirty bit overflow 64 bits",
			numSets, numApps, tagBits, ob)
	}
	return nil
}

// New returns a cache with the given geometry; it panics on one that
// CheckGeometry rejects.
func New(numSets, ways, numApps int) *Cache {
	if err := CheckGeometry(numSets, ways, numApps); err != nil {
		panic(err.Error())
	}
	ob := uint(ownerBits(numApps))
	c := &Cache{
		lines:     make([]uint64, numSets*ways),
		lru:       make([]uint8, numSets*ways),
		setMask:   uint64(numSets - 1),
		setBits:   uint(bits.TrailingZeros(uint(numSets))),
		tagShift:  ob + 1,
		ownerMask: 1<<ob - 1,
		ways:      ways,
		occ:       make([]int, numApps),
		hits:      make([]uint64, numApps),
		misses:    make([]uint64, numApps),
		occupied:  make([]uint64, numApps),
	}
	// Every set starts under the identity LRU stack, so one set is written
	// and the rest are copies of it, doubling the initialised prefix each
	// time: the shared L2 alone is 32 K lines, and every cold job builds
	// ten of them.
	for w := 0; w < ways; w++ {
		c.lru[w] = uint8(w)
	}
	for n := ways; n < len(c.lru); n *= 2 {
		copy(c.lru[n:], c.lru[:n])
	}
	return c
}

// find returns the offset of lineAddr's set into the flat slabs, the tag
// field a word holding lineAddr carries (tag+1), and the way holding it,
// or -1 when it is absent.
func (c *Cache) find(lineAddr uint64) (base int, key uint64, way int) {
	base, key = int(lineAddr&c.setMask)*c.ways, lineAddr>>c.setBits+1
	shift := c.tagShift & 63 // always below 64: the mask spares each probe a range check
	for w, word := range c.lines[base : base+c.ways] {
		if word>>shift == key {
			return base, key, w
		}
	}
	return base, key, -1
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
	base, _, w := c.find(lineAddr)
	if w < 0 {
		c.misses[app]++
		return false
	}
	if isWrite {
		c.lines[base+w] |= 1
	}
	c.touch(base, uint8(w))
	c.hits[app]++
	return true
}

// Peek reports whether lineAddr is present without updating LRU state or
// hit/miss counters.
func (c *Cache) Peek(lineAddr uint64) bool {
	_, _, w := c.find(lineAddr)
	return w >= 0
}

// Insert places lineAddr for app, selecting a victim according to the
// current partition, and returns the displaced line (if any). Inserting a
// line that is already present only refreshes its LRU position.
func (c *Cache) Insert(app int, lineAddr uint64, dirty bool) Victim {
	base, key, w := c.find(lineAddr)
	if w >= 0 { // already present (e.g., racing fill): refresh
		if dirty {
			c.lines[base+w] |= 1
		}
		c.touch(base, uint8(w))
		return Victim{}
	}

	way := c.victimWay(base, app)
	word := &c.lines[base+int(way)]
	var v Victim
	if old := *word; old != 0 {
		owner := c.owner(old)
		v = Victim{
			Valid:    true,
			Dirty:    old&1 != 0,
			App:      int16(owner),
			LineAddr: (old>>c.tagShift-1)<<c.setBits | lineAddr&c.setMask,
		}
		c.occupied[owner]--
	}
	*word = key<<c.tagShift | uint64(app)<<1
	if dirty {
		*word |= 1
	}
	c.occupied[app]++
	c.touch(base, way)
	return v
}

// owner returns the owning application of a valid tag word.
func (c *Cache) owner(word uint64) int { return int(word >> 1 & c.ownerMask) }

// victimWay picks the way to evict for an insertion by app. base is the
// set's offset into the flat slabs.
func (c *Cache) victimWay(base int, app int) uint8 {
	lru := c.lru[base : base+c.ways]
	set := c.lines[base : base+c.ways]
	// Invalid lines first, LRU-most preferred.
	for i := c.ways - 1; i >= 0; i-- {
		w := lru[i]
		if set[w] == 0 {
			return w
		}
	}
	if c.alloc == nil || app >= len(c.alloc) {
		return lru[c.ways-1] // global LRU
	}
	// Partitioned: count per-app occupancy in this set (every line is
	// valid by now).
	occ := c.occ
	clear(occ)
	for _, word := range set {
		occ[c.owner(word)]++
	}
	if occ[app] >= c.alloc[app] && c.alloc[app] > 0 {
		// App is at/over its quota: evict its own LRU line.
		for i := c.ways - 1; i >= 0; i-- {
			w := lru[i]
			if c.owner(set[w]) == app {
				return w
			}
		}
	}
	// Under quota (or quota zero): evict LRU line of the most over-quota
	// app; fall back to global LRU.
	for i := c.ways - 1; i >= 0; i-- {
		w := lru[i]
		a := c.owner(set[w])
		if a < len(c.alloc) && occ[a] > c.alloc[a] {
			return w
		}
	}
	for i := c.ways - 1; i >= 0; i-- {
		w := lru[i]
		if c.owner(set[w]) != app {
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

package cache

import "fmt"

// This file keeps the struct-per-line tag arrays this package shipped
// before every line became one packed word (DESIGN.md, "one word per cache
// line"): refCache and refAuxTagStore are kept verbatim, bar their names, as
// the references TestCacheMatchesReference, TestATSMatchesReference and
// FuzzCacheMatchesReference hold Cache and AuxTagStore to.

// refNoApp marks a line not owned by any application (invalid lines).
const refNoApp = -1

// refLine is one cache line's tag state.
type refLine struct {
	Tag   uint64
	App   int16 // owning application (core) id
	Valid bool
	Dirty bool
}

// refCache is a set-associative tag array with true LRU replacement and
// optional way partitioning among applications. Storage is flat (one slab
// for lines, one for the per-set LRU stacks) for locality: the shared L2
// tag array is probed on every private-cache miss.
type refCache struct {
	lines    []refLine // numSets*ways, indexed set*ways+way
	lru      []uint8   // per-set stacks: lru[set*ways+pos] = way at stack pos
	numSets  uint64
	ways     int
	alloc    []int // ways allocated per app; nil means unpartitioned
	hits     []uint64
	misses   []uint64
	occupied []uint64 // valid lines owned per app (whole cache)
}

// New returns a cache with the given geometry. Both arguments must be
// positive and numSets must be a power of two (so set indexing is a mask).
func newRefCache(numSets, ways, numApps int) *refCache {
	if numSets <= 0 || ways <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: bad geometry sets=%d ways=%d", numSets, ways))
	}
	c := &refCache{
		lines:    make([]refLine, numSets*ways),
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
		c.lines[w].App = refNoApp
		c.lru[w] = uint8(w)
	}
	for n := ways; n < len(c.lines); n *= 2 {
		copy(c.lines[n:], c.lines[:n])
		copy(c.lru[n:], c.lru[:n])
	}
	return c
}

// index splits a line address into set index and tag.
func (c *refCache) index(lineAddr uint64) (uint64, uint64) {
	return lineAddr & (c.numSets - 1), lineAddr / c.numSets
}

// lineAddr reconstructs a line address from a set index and tag.
func (c *refCache) lineAddr(setIdx, tag uint64) uint64 {
	return tag*c.numSets + setIdx
}

// SetPartition installs a way allocation (one entry per app). The sum of
// allocations may be at most the associativity; remaining ways are
// effectively shared slack. Passing nil removes partitioning. The partition
// is enforced lazily by victim selection: over-quota apps lose lines as
// insertions occur, as in UCP.
func (c *refCache) SetPartition(alloc []int) {
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
func (c *refCache) Partition() []int { return c.alloc }

// Lookup probes the cache. On a hit the line is moved to MRU and, for
// writes, marked dirty. It returns whether the probe hit.
func (c *refCache) Lookup(app int, lineAddr uint64, isWrite bool) bool {
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
func (c *refCache) Peek(lineAddr uint64) bool {
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
func (c *refCache) Insert(app int, lineAddr uint64, dirty bool) Victim {
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
	*ln = refLine{Tag: tag, App: int16(app), Valid: true, Dirty: dirty}
	c.occupied[app]++
	c.touch(base, w)
	return v
}

// victimWay picks the way to evict for an insertion by app. base is the
// set's offset into the flat slabs.
func (c *refCache) victimWay(base int, app int) uint8 {
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
func (c *refCache) touch(base int, w uint8) {
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
func (c *refCache) Hits(app int) uint64 { return c.hits[app] }

// Misses returns the miss count for app.
func (c *refCache) Misses(app int) uint64 { return c.misses[app] }

// Occupancy returns the number of valid lines owned by app across the
// whole cache.
func (c *refCache) Occupancy(app int) uint64 { return c.occupied[app] }

// ResetStats clears hit/miss counters (occupancy is preserved).
func (c *refCache) ResetStats() {
	for i := range c.hits {
		c.hits[i], c.misses[i] = 0, 0
	}
}

// refAuxTagStore models the expected state of the shared cache had one
// application been running alone on the system (Pomerene et al.; Qureshi &
// Patt). It is a per-application LRU tag directory with the same geometry
// as the shared cache, optionally set-sampled to cut hardware cost
// (Section 4.4 of the paper).
//
// Every probe that maps to a sampled set records the LRU stack position of
// the hit (0 = MRU). Hits at position p would be hits in any cache with at
// least p+1 ways, so the position profile simultaneously provides:
//   - ASM / PTCA contention-miss identification (hit in ATS, miss in cache);
//   - UCP's marginal-utility curves;
//   - ASM-refCache's quantum-hits_n for every candidate allocation n.
//
// Storage is flat (one slab per field, indexed set*ways+way) — the ATS is
// probed on every demand access of every app, so locality matters.
type refAuxTagStore struct {
	tags    []uint64
	valid   []bool
	lru     []uint8 // per-set stack: lru[set*ways+pos] = way at stack pos
	numSets uint64
	ways    int
	stride  uint64 // probe sets where setIdx % stride == 0; 1 = full ATS

	probes  uint64   // accesses mapping to sampled sets
	hits    uint64   // hits in sampled sets
	posHits []uint64 // hits by LRU stack position, sampled sets only
}

// newRefAuxTagStore returns an ATS mirroring a cache with numSets sets and
// the given associativity. sampledSets selects how many sets are modeled;
// pass numSets (or 0) for a full ATS, or e.g. 64 for the paper's sampled
// configuration. numSets must be a power of two and divisible by
// sampledSets.
func newRefAuxTagStore(numSets, ways, sampledSets int) *refAuxTagStore {
	if sampledSets <= 0 || sampledSets > numSets {
		sampledSets = numSets
	}
	if numSets%sampledSets != 0 {
		panic("cache: sampledSets must divide numSets")
	}
	a := &refAuxTagStore{
		tags:    make([]uint64, sampledSets*ways),
		valid:   make([]bool, sampledSets*ways),
		lru:     make([]uint8, sampledSets*ways),
		numSets: uint64(numSets),
		ways:    ways,
		stride:  uint64(numSets / sampledSets),
		posHits: make([]uint64, ways),
	}
	for s := 0; s < sampledSets; s++ {
		for w := 0; w < ways; w++ {
			a.lru[s*ways+w] = uint8(w)
		}
	}
	return a
}

// Sampled reports whether the ATS is set-sampled (i.e., covers fewer sets
// than the cache it mirrors).
func (a *refAuxTagStore) Sampled() bool { return a.stride > 1 }

// SampledSets returns the number of modeled sets.
func (a *refAuxTagStore) SampledSets() int { return len(a.tags) / a.ways }

// Access probes and updates the ATS for one shared-cache access.
// It returns sampled=false when the address does not map to a modeled set
// (nothing is recorded). On sampled accesses it returns whether the access
// would have hit had the app run alone, and the LRU stack position of the
// hit (-1 on a miss).
func (a *refAuxTagStore) Access(lineAddr uint64) (sampled, hit bool, stackPos int) {
	setIdx := lineAddr & (a.numSets - 1)
	if setIdx%a.stride != 0 {
		return false, false, -1
	}
	base := int(setIdx/a.stride) * a.ways
	tag := lineAddr / a.numSets
	a.probes++

	lru := a.lru[base : base+a.ways]
	for pos, w := range lru {
		i := base + int(w)
		if a.valid[i] && a.tags[i] == tag {
			a.hits++
			a.posHits[pos]++
			// Move to MRU.
			copy(lru[1:pos+1], lru[:pos])
			lru[0] = w
			return true, true, pos
		}
	}
	// Miss: install at MRU, evicting the LRU way.
	w := lru[a.ways-1]
	i := base + int(w)
	a.tags[i], a.valid[i] = tag, true
	copy(lru[1:], lru[:a.ways-1])
	lru[0] = w
	return true, false, -1
}

// Install inserts a line into the directory without recording a probe.
// The sim layer uses it for prefetch fills: a prefetcher trained on the
// app's own access stream would have fetched the same lines had the app
// run alone, so the alone-state directory must reflect them — otherwise
// every demand hit on a prefetched line is misclassified as a contention
// miss.
func (a *refAuxTagStore) Install(lineAddr uint64) {
	setIdx := lineAddr & (a.numSets - 1)
	if setIdx%a.stride != 0 {
		return
	}
	base := int(setIdx/a.stride) * a.ways
	tag := lineAddr / a.numSets
	lru := a.lru[base : base+a.ways]
	for pos, w := range lru {
		i := base + int(w)
		if a.valid[i] && a.tags[i] == tag {
			copy(lru[1:pos+1], lru[:pos])
			lru[0] = w
			return
		}
	}
	w := lru[a.ways-1]
	i := base + int(w)
	a.tags[i], a.valid[i] = tag, true
	copy(lru[1:], lru[:a.ways-1])
	lru[0] = w
}

// HitFraction returns the fraction of sampled probes that hit, i.e. the
// ats-hit-fraction of Section 4.4. With zero probes it returns 0.
func (a *refAuxTagStore) HitFraction() float64 {
	if a.probes == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.probes)
}

// MissFraction returns 1 - HitFraction when probes exist, else 0.
func (a *refAuxTagStore) MissFraction() float64 {
	if a.probes == 0 {
		return 0
	}
	return float64(a.probes-a.hits) / float64(a.probes)
}

// Probes returns the number of sampled probes since the last reset.
func (a *refAuxTagStore) Probes() uint64 { return a.probes }

// Hits returns the number of sampled hits since the last reset.
func (a *refAuxTagStore) Hits() uint64 { return a.hits }

// HitFractionAtWays returns the fraction of sampled probes that would have
// hit in a cache restricted to n ways (hits at stack positions < n). This
// is the way-utility curve used by UCP and ASM-refCache.
func (a *refAuxTagStore) HitFractionAtWays(n int) float64 {
	if a.probes == 0 {
		return 0
	}
	if n > a.ways {
		n = a.ways
	}
	var h uint64
	for p := 0; p < n; p++ {
		h += a.posHits[p]
	}
	return float64(h) / float64(a.probes)
}

// PositionHits returns a copy of the per-stack-position hit counts.
func (a *refAuxTagStore) PositionHits() []uint64 {
	return append([]uint64(nil), a.posHits...)
}

// ResetStats clears probe/hit counters but keeps the tag state (the
// directory must stay warm across quanta; only the statistics are
// per-quantum).
func (a *refAuxTagStore) ResetStats() {
	a.probes, a.hits = 0, 0
	for i := range a.posHits {
		a.posHits[i] = 0
	}
}

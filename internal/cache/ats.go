package cache

import "math/bits"

// AuxTagStore models the expected state of the shared cache had one
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
//   - ASM-Cache's quantum-hits_n for every candidate allocation n.
//
// Storage is flat (one slab per field, indexed set*ways+way) — the ATS is
// probed on every demand access of every app, so locality matters. A line
// is the Cache's tag word with no owner and never dirty: (tag+1) << 1,
// with 0 for an invalid line. Line addresses must be below LineAddrLimit.
type AuxTagStore struct {
	tags       []uint64 // tag words, 0 = invalid
	lru        []uint8  // per-set stack: lru[set*ways+pos] = way at stack pos
	setMask    uint64   // numSets-1
	setBits    uint     // log2(numSets)
	strideMask uint64   // probe sets whose index has these bits clear; 0 = full ATS
	strideBits uint     // log2(numSets / sampledSets)
	ways       int

	probes  uint64   // accesses mapping to sampled sets
	hits    uint64   // hits in sampled sets
	posHits []uint64 // hits by LRU stack position, sampled sets only
}

// NewAuxTagStore returns an ATS mirroring a cache with numSets sets and
// the given associativity. sampledSets selects how many sets are modeled;
// pass numSets (or 0) for a full ATS, or e.g. 64 for the paper's sampled
// configuration. numSets must be a power of two and divisible by
// sampledSets.
func NewAuxTagStore(numSets, ways, sampledSets int) *AuxTagStore {
	if err := CheckGeometry(numSets, ways, 1); err != nil {
		panic(err.Error())
	}
	if sampledSets <= 0 || sampledSets > numSets {
		sampledSets = numSets
	}
	if numSets%sampledSets != 0 {
		panic("cache: sampledSets must divide numSets")
	}
	stride := numSets / sampledSets // a power of two, as numSets is
	a := &AuxTagStore{
		tags:       make([]uint64, sampledSets*ways),
		lru:        make([]uint8, sampledSets*ways),
		setMask:    uint64(numSets - 1),
		setBits:    uint(bits.TrailingZeros(uint(numSets))),
		strideMask: uint64(stride - 1),
		strideBits: uint(bits.TrailingZeros(uint(stride))),
		ways:       ways,
		posHits:    make([]uint64, ways),
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
func (a *AuxTagStore) Sampled() bool { return a.strideMask != 0 }

// SampledSets returns the number of modeled sets.
func (a *AuxTagStore) SampledSets() int { return len(a.tags) / a.ways }

// Access probes and updates the ATS for one shared-cache access.
// It returns sampled=false when the address does not map to a modeled set
// (nothing is recorded). On sampled accesses it returns whether the access
// would have hit had the app run alone, and the LRU stack position of the
// hit (-1 on a miss).
func (a *AuxTagStore) Access(lineAddr uint64) (sampled, hit bool, stackPos int) {
	sampled, pos := a.fill(lineAddr)
	if !sampled {
		return false, false, -1
	}
	a.probes++
	if pos < 0 {
		return true, false, -1
	}
	a.hits++
	a.posHits[pos]++
	return true, true, pos
}

// Install inserts a line into the directory without recording a probe.
// The sim layer uses it for prefetch fills: a prefetcher trained on the
// app's own access stream would have fetched the same lines had the app
// run alone, so the alone-state directory must reflect them — otherwise
// every demand hit on a prefetched line is misclassified as a contention
// miss.
func (a *AuxTagStore) Install(lineAddr uint64) { a.fill(lineAddr) }

// fill moves lineAddr to the MRU position of its modeled set, installing
// it over the set's LRU way when absent. It returns sampled=false, and
// touches nothing, when lineAddr maps to a set the ATS does not model;
// otherwise the stack position the line was found at, or -1 on a miss.
func (a *AuxTagStore) fill(lineAddr uint64) (sampled bool, pos int) {
	setIdx := lineAddr & a.setMask
	if setIdx&a.strideMask != 0 {
		return false, -1
	}
	base := int(setIdx>>a.strideBits) * a.ways
	word := (lineAddr>>a.setBits + 1) << 1
	lru := a.lru[base : base+a.ways]
	pos = -1
	for p, w := range lru {
		if a.tags[base+int(w)] == word {
			pos = p
			break
		}
	}
	at := pos
	if pos < 0 {
		at = a.ways - 1 // miss: evict the LRU way
		a.tags[base+int(lru[at])] = word
	}
	w := lru[at]
	copy(lru[1:at+1], lru[:at])
	lru[0] = w
	return true, pos
}

// HitFraction returns the fraction of sampled probes that hit, i.e. the
// ats-hit-fraction of Section 4.4. With zero probes it returns 0.
func (a *AuxTagStore) HitFraction() float64 {
	if a.probes == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.probes)
}

// MissFraction returns 1 - HitFraction when probes exist, else 0.
func (a *AuxTagStore) MissFraction() float64 {
	if a.probes == 0 {
		return 0
	}
	return float64(a.probes-a.hits) / float64(a.probes)
}

// Probes returns the number of sampled probes since the last reset.
func (a *AuxTagStore) Probes() uint64 { return a.probes }

// Hits returns the number of sampled hits since the last reset.
func (a *AuxTagStore) Hits() uint64 { return a.hits }

// HitFractionAtWays returns the fraction of sampled probes that would have
// hit in a cache restricted to n ways (hits at stack positions < n). This
// is the way-utility curve used by UCP and ASM-Cache.
func (a *AuxTagStore) HitFractionAtWays(n int) float64 {
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
func (a *AuxTagStore) PositionHits() []uint64 {
	return append([]uint64(nil), a.posHits...)
}

// ResetStats clears probe/hit counters but keeps the tag state (the
// directory must stay warm across quanta; only the statistics are
// per-quantum).
func (a *AuxTagStore) ResetStats() {
	a.probes, a.hits = 0, 0
	for i := range a.posHits {
		a.posHits[i] = 0
	}
}

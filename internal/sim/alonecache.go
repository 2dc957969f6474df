package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"asmsim/internal/telemetry"
)

// AloneCurveCache is a process-wide, concurrency-safe cache of alone-run
// ground-truth curves. A curve is the monotone step function
//
//	instructions retired -> first cycle at which the alone run has
//	retired at least that many instructions
//
// of one application running alone on one (canonicalized) configuration.
// Instead of every SlowdownTracker ticking a private single-core replica
// to each milestone — re-simulating the same benchmark once per workload
// mix — the cache simulates each (config, stream) pair once on a lean
// solo replica (newSystem's lean mode), records the retiring cycles as
// run-length segments while extending lazily on demand under a per-entry
// lock, and answers every CyclesAt query from any mix or worker by binary
// search.
//
// Sharing is sound because curve identity is exact: instruction streams
// are pure functions of their AppSource.Key (for generator-backed
// sources, the (spec, seed) pair — see SourcesFromSpecs), and the
// canonical alone configuration (Config.aloneCurveConfig) retains every
// timing-relevant knob while normalizing away the ones a solo run cannot
// observe. Cached answers are bit-identical to a private AloneProfile's.
//
// The zero value is not ready; use NewAloneCurveCache. All methods are
// safe for concurrent use. A nil *AloneCurveCache is accepted by the
// tracker constructors and simply disables sharing.
type AloneCurveCache struct {
	mu      sync.Mutex
	entries map[aloneKey]*aloneCurve

	saved atomic.Uint64 // replica cycles avoided versus private replicas
	// Totals over the listed entries only. Written under mu (so a Reset
	// orders against every extension's accounting), read lock-free.
	points   atomic.Int64 // logical curve points
	segments atomic.Int64 // stored run-length segments
	tel      atomic.Pointer[aloneCacheTel]
}

// aloneKey identifies one curve: the canonical alone-config fingerprint
// plus the instruction-stream identity.
type aloneKey struct {
	cfg string
	app string
}

// aloneCacheTel holds resolved telemetry handles (see SetTelemetry).
type aloneCacheTel struct {
	hits           *telemetry.Counter
	misses         *telemetry.Counter
	extensions     *telemetry.Counter
	extendedCycles *telemetry.Counter
	savedCycles    *telemetry.Gauge
	entries        *telemetry.Gauge
	points         *telemetry.Gauge
	segments       *telemetry.Gauge
}

// NewAloneCurveCache returns an empty cache.
func NewAloneCurveCache() *AloneCurveCache {
	return &AloneCurveCache{entries: map[aloneKey]*aloneCurve{}}
}

// SetTelemetry publishes the cache's counters under the "alone_cache"
// scope of r: hits (queries answered without simulating), misses (curves
// built), extensions (queries that had to advance a replica),
// extended_cycles (replica cycles actually simulated), and the
// saved_cycles / entries / points / segments gauges (points are logical
// curve points, segments the stored records that track memory). A nil
// registry disables telemetry. Safe to call concurrently with queries.
func (c *AloneCurveCache) SetTelemetry(r *telemetry.Registry) {
	if c == nil || r == nil {
		return
	}
	sc := r.Scope("alone_cache")
	t := &aloneCacheTel{
		hits:           sc.Counter("hits"),
		misses:         sc.Counter("misses"),
		extensions:     sc.Counter("extensions"),
		extendedCycles: sc.Counter("extended_cycles"),
		savedCycles:    sc.Gauge("saved_cycles"),
		entries:        sc.Gauge("entries"),
		points:         sc.Gauge("points"),
		segments:       sc.Gauge("segments"),
	}
	t.savedCycles.Set(int64(c.saved.Load()))
	c.mu.Lock()
	t.entries.Set(int64(len(c.entries)))
	t.points.Set(c.points.Load())
	t.segments.Set(c.segments.Load())
	c.tel.Store(t)
	c.mu.Unlock()
}

// Cursor returns a per-tracker-slot view of app's alone curve under cfg,
// creating the curve entry (and its lazily-ticked replica) on first use.
// Each slot needs its own cursor because saved-cycle accounting tracks
// the slot's previous milestone. Sources without a stream key cannot be
// cached and return an error; callers fall back to a private replica.
func (c *AloneCurveCache) Cursor(cfg Config, app AppSource) (*AloneCursor, error) {
	if app.Key == "" {
		return nil, fmt.Errorf("sim: source %q has no stream key; alone curve not shareable", app.Name)
	}
	alone := cfg.aloneCurveConfig()
	key := aloneKey{cfg: alone.Fingerprint(), app: app.Key}
	c.mu.Lock()
	cv := c.entries[key]
	c.mu.Unlock()
	if cv != nil {
		return &AloneCursor{curve: cv}, nil
	}
	// Build the replica (megabytes of cache arrays) outside the cache-wide
	// lock so concurrent tracker set-ups do not queue behind one
	// allocation; if another goroutine listed the same key meanwhile, its
	// curve wins and this replica is dropped.
	sys, err := newSystem(alone, []AppSource{app}, true)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cv = c.entries[key]; cv == nil {
		cv = &aloneCurve{cache: c, key: key, sys: sys}
		c.entries[key] = cv
		if t := c.tel.Load(); t != nil {
			t.misses.Inc()
			t.entries.Set(int64(len(c.entries)))
		}
	}
	return &AloneCursor{curve: cv}, nil
}

// Len returns the number of cached curves.
func (c *AloneCurveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Points returns the total number of logical curve points (one per
// retiring replica cycle) across the listed entries. Memory tracks the
// far smaller number of stored segments (24 bytes each, see curveSeg).
func (c *AloneCurveCache) Points() int64 { return c.points.Load() }

// SavedCycles returns the cumulative replica cycles that cache hits
// avoided simulating compared to per-tracker private replicas.
func (c *AloneCurveCache) SavedCycles() uint64 { return c.saved.Load() }

// Reset drops all cached curves, bounding memory between independent
// sweeps. Outstanding cursors keep their (now unlisted) curves working;
// those curves no longer count towards Points or the gauges.
func (c *AloneCurveCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[aloneKey]*aloneCurve{}
	c.points.Store(0)
	c.segments.Store(0)
	if t := c.tel.Load(); t != nil {
		t.entries.Set(0)
		t.points.Set(0)
		t.segments.Set(0)
	}
}

// grew accounts one extension of cv — points and segs are what it added —
// towards the cache totals, provided cv is still listed: a curve dropped
// by Reset lives on for its cursors but is no longer the cache's memory.
func (c *AloneCurveCache) grew(cv *aloneCurve, points, segs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[cv.key] != cv {
		return
	}
	p, s := c.points.Add(points), c.segments.Add(segs)
	if t := c.tel.Load(); t != nil {
		t.points.Set(p)
		t.segments.Set(s)
	}
}

// observe records one query's accounting: delta is the alone-cycle
// advance the query represents, ticked the replica cycles actually
// simulated to cover it. Their difference is work a private replica
// would have re-simulated.
func (c *AloneCurveCache) observe(delta, ticked uint64) {
	if delta > ticked {
		c.saved.Add(delta - ticked)
	}
	t := c.tel.Load()
	if t == nil {
		return
	}
	if ticked > 0 {
		t.extensions.Inc()
		t.extendedCycles.Add(ticked)
	} else {
		t.hits.Inc()
	}
	t.savedCycles.Set(int64(c.saved.Load()))
}

// curveSeg is one run of a curve: the n points (instr0+k*w, cycle0+k)
// for k in [0,n) — a core retiring w instructions on each of n
// consecutive cycles. A core at steady state retires its full width every
// cycle, so runs are long: a compute-bound app stores about one segment
// per thousand points, a memory-bound one (which retires on few cycles to
// begin with) one per handful.
type curveSeg struct {
	instr0, cycle0 uint64
	w, n           uint32
}

// lastInstr returns the instruction count of the segment's last point.
func (s *curveSeg) lastInstr() uint64 { return s.instr0 + uint64(s.n-1)*uint64(s.w) }

// aloneCurve is one cached (instructions -> cycles) step curve plus the
// lean replica that extends it.
type aloneCurve struct {
	cache *AloneCurveCache
	key   aloneKey

	mu     sync.RWMutex
	sys    *System
	segs   []curveSeg
	last   uint64 // instruction count of the last recorded point
	points int64  // logical points recorded (sum of segs[i].n)
}

// cyclesAt returns the first cycle with at least n instructions retired,
// extending the curve if needed, plus the replica cycles ticked to get
// there. The fast path answers from the recorded prefix under a read
// lock; only uncovered queries take the write lock and tick the replica.
func (c *aloneCurve) cyclesAt(n uint64) (cyc, ticked uint64) {
	if n == 0 {
		return 0, 0
	}
	c.mu.RLock()
	if c.last >= n {
		cyc = c.lookup(n)
		c.mu.RUnlock()
		return cyc, 0
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last >= n { // another cursor extended past n meanwhile
		return c.lookup(n), 0
	}
	sys, prev := c.sys, c.last
	start, segs0, points0 := sys.Cycle(), len(c.segs), c.points
	for prev < n {
		// Step, not Tick: memory-bound stretches take the skip-ahead fast
		// path. A skip window retires nothing, so every retirement still
		// lands on its exact cycle; ticked counts the replica cycles
		// simulated (skipped ones included — they are covered work).
		sys.Step()
		if r := sys.Retired(0); r > prev {
			c.append(r, sys.Cycle())
			prev = r
		}
	}
	c.last = prev
	// Lock order: a curve's mu, then the cache's (never the reverse).
	c.cache.grew(c, c.points-points0, int64(len(c.segs)-segs0))
	// The point just recorded is the first at or past n.
	return sys.Cycle(), sys.Cycle() - start
}

// lookup returns the cycle of the first point with instr >= n: binary
// search for the first segment ending at or past n, then the position
// inside its run. Callers hold c.mu and have checked c.last >= n.
func (c *aloneCurve) lookup(n uint64) uint64 {
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].lastInstr() >= n })
	s := &c.segs[i]
	if n <= s.instr0 {
		return s.cycle0
	}
	w := uint64(s.w)
	return s.cycle0 + (n-s.instr0+w-1)/w
}

// append records the point (instr, cycle), extending the last segment's
// run when the point continues it. Callers hold c.mu for writing and
// append strictly increasing instr and cycle.
func (c *aloneCurve) append(instr, cycle uint64) {
	c.points++
	if m := len(c.segs); m > 0 {
		s := &c.segs[m-1]
		// Only the very next cycle can continue a run; a stall gap (or a
		// full counter) starts a new segment.
		if cycle == s.cycle0+uint64(s.n) && s.n < math.MaxUint32 {
			d := instr - s.instr0
			if s.n == 1 && d <= math.MaxUint32 {
				s.w, s.n = uint32(d), 2 // the second point fixes the run's width
				return
			}
			if s.n > 1 && d == uint64(s.n)*uint64(s.w) {
				s.n++
				return
			}
		}
	}
	c.segs = append(c.segs, curveSeg{instr0: instr, cycle0: cycle, n: 1})
}

// AloneCursor is one tracker slot's handle on a shared alone curve. It
// remembers the slot's previous answer so the cache can account saved
// cycles; the curve itself is shared and concurrency-safe.
type AloneCursor struct {
	curve *aloneCurve
	last  uint64
}

// CyclesAt returns the cycle at which the alone run has retired at least
// instr instructions — the same contract and bit-identical values as
// AloneProfile.CyclesAt. Queries must be non-decreasing per cursor (they
// are: cumulative milestones only grow).
func (cu *AloneCursor) CyclesAt(instr uint64) uint64 {
	cyc, ticked := cu.curve.cyclesAt(instr)
	cu.curve.cache.observe(cyc-cu.last, ticked)
	cu.last = cyc
	return cyc
}

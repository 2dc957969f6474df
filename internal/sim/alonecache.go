package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/pprof"
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
// It is the only ground-truth back end: instead of re-simulating the same
// benchmark once per workload mix, the cache simulates each (config,
// stream) pair once on a lean solo replica (newSystem's lean mode),
// records the retiring cycles as run-length segments while extending
// lazily on demand under a per-entry lock, and answers every CyclesAt
// query from any mix or worker by binary search. A tracker that follows
// its shared run (SlowdownTracker.Follow) additionally has each curve
// extended on a goroutine of its own while the shared run is still
// simulating, so the quantum-boundary query finds its prefix already
// covered (see aloneCurve.want).
//
// Sharing is sound because curve identity is exact: instruction streams
// are pure functions of their AppSource.Key (the (spec, seed) pair — see
// SourcesFromSpecs), and the canonical alone configuration
// (Config.aloneCurveConfig) retains every timing-relevant knob while
// normalizing away the ones a solo run cannot observe. Cached answers are bit-identical to stepping a full solo
// replica of the shared run's configuration to each milestone.
//
// The zero value is not ready; use NewAloneCurveCache. All methods are
// safe for concurrent use.
type AloneCurveCache struct {
	mu      sync.Mutex
	entries map[aloneKey]*aloneCurve

	// Saved-cycle accounting: queried sums every cursor's alone-cycle
	// advance (what a replica per tracker slot would have simulated),
	// extended the replica cycles actually simulated, whoever stepped them.
	queried  atomic.Uint64
	extended atomic.Uint64
	// Totals over the entries' curves. Written under mu, read lock-free.
	points   atomic.Int64 // logical curve points
	segments atomic.Int64 // stored run-length segments
	tel      atomic.Pointer[aloneCacheTel]

	// labels carries the pprof label sim=alone that chase goroutines run
	// under, built once so labelling a chase allocates nothing: a CPU
	// profile taken with -tagignore=sim=alone shows the shared run alone.
	labels context.Context
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
	return &AloneCurveCache{
		entries: map[aloneKey]*aloneCurve{},
		labels:  pprof.WithLabels(context.Background(), pprof.Labels("sim", "alone")),
	}
}

// SetTelemetry publishes the cache's counters under the "alone_cache"
// scope of r: hits (queries that stepped no replica themselves), misses
// (curves built), extensions (write-lock slices that advanced a replica,
// at most extendSlice instructions each, on behalf of a query or a
// follower), extended_cycles (replica cycles actually simulated), and the
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
	t.savedCycles.Set(int64(c.SavedCycles()))
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
// the slot's previous milestone. A source without a stream key has no
// identity to share a curve under and is an error.
func (c *AloneCurveCache) Cursor(cfg Config, app AppSource) (*AloneCursor, error) {
	if app.Key == "" {
		return nil, fmt.Errorf("sim: alone curve for %q: source has no stream key", app.Name)
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
	fresh, err := c.newCurve(alone, app)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cv = c.entries[key]; cv == nil {
		cv = fresh
		c.entries[key] = cv
		if t := c.tel.Load(); t != nil {
			t.misses.Inc()
			t.entries.Set(int64(len(c.entries)))
		}
	}
	return &AloneCursor{curve: cv}, nil
}

// newCurve returns an empty curve of app alone under cfg, on a lean
// replica, without listing it.
func (c *AloneCurveCache) newCurve(cfg Config, app AppSource) (*aloneCurve, error) {
	sys, err := newSystem(cfg, []AppSource{app}, true)
	if err != nil {
		return nil, err
	}
	cv := &aloneCurve{cache: c, sys: sys}
	sys.cores[0].OnRetire(cv.retired)
	return cv, nil
}

// Len returns the number of cached curves.
func (c *AloneCurveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Points returns the total number of logical curve points (one per
// retiring replica cycle) across the entries. Memory tracks the
// far smaller number of stored segments (about 4 bytes each, see
// aloneCurve.enc).
func (c *AloneCurveCache) Points() int64 { return c.points.Load() }

// SavedCycles returns the cumulative replica cycles the cache avoided
// simulating compared to a replica per tracker slot: the sum of every
// cursor's alone-cycle advance minus the cycles its replicas were stepped.
// It does not depend on who stepped them; while a followed run is between
// boundaries its curves can be ahead of its queries, which reads as 0.
func (c *AloneCurveCache) SavedCycles() uint64 {
	q, e := c.queried.Load(), c.extended.Load()
	if q < e {
		return 0
	}
	return q - e
}

// grew accounts one extension slice of a curve: the replica cycles it
// simulated and the points and segments it added towards the cache
// totals. A curve that extends is listed; a Cursor race loser is dropped
// before it extends.
func (c *AloneCurveCache) grew(cycles uint64, points, segs int64) {
	c.extended.Add(cycles)
	t := c.tel.Load()
	if t != nil {
		t.extensions.Inc()
		t.extendedCycles.Add(cycles)
		t.savedCycles.Set(int64(c.SavedCycles()))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, s := c.points.Add(points), c.segments.Add(segs)
	if t != nil {
		t.points.Set(p)
		t.segments.Set(s)
	}
}

// observe records one query's accounting: delta is the alone-cycle
// advance the query represents — the cycles a slot's own replica would have
// simulated for it — and stepped whether the query itself had to advance
// the curve's replica.
func (c *AloneCurveCache) observe(delta uint64, stepped bool) {
	c.queried.Add(delta)
	if t := c.tel.Load(); t != nil {
		if !stepped {
			t.hits.Inc()
		}
		t.savedCycles.Set(int64(c.SavedCycles()))
	}
}

// curveSeg is one run of a curve: the n points (instr0+k*w, cycle0+k)
// for k in [0,n) — a core retiring w instructions on each of n
// consecutive cycles (w is 0 while n is 1). A core at steady state
// retires its full width every cycle, so runs are long: a compute-bound
// app has about one segment per thousand points, a memory-bound one
// (which retires on few cycles to begin with) one per handful.
type curveSeg struct {
	instr0, cycle0 uint64
	w, n           uint64
}

// lastInstr returns the instruction count of the segment's last point.
func (s *curveSeg) lastInstr() uint64 { return s.instr0 + (s.n-1)*s.w }

// lastCycle returns the cycle of the segment's last point.
func (s *curveSeg) lastCycle() uint64 { return s.cycle0 + s.n - 1 }

// cycleAt returns the cycle of the segment's first point with instr >= n,
// for n up to lastInstr.
func (s *curveSeg) cycleAt(n uint64) uint64 {
	if n <= s.instr0 {
		return s.cycle0
	}
	return s.cycle0 + (n-s.instr0+s.w-1)/s.w
}

// markEvery is the number of closed segments between two checkpoints of
// a curve's coded segments: a lookup decodes at most this many.
const markEvery = 64

// curveMark is a position in a curve's coded segments: a byte offset and
// the last point of the segment before it (0, 0 at the start), which the
// next segment's deltas are taken from.
type curveMark struct {
	off          int
	instr, cycle uint64
}

// curveReader decodes closed segments forward from a mark.
type curveReader struct {
	enc []byte
	curveMark
}

func (r *curveReader) uvarint() uint64 {
	x, k := binary.Uvarint(r.enc[r.off:])
	r.off += k
	return x
}

// next decodes the segment at the reader's mark and moves past it.
func (r *curveReader) next() curveSeg {
	s := curveSeg{instr0: r.instr + r.uvarint(), cycle0: r.cycle + r.uvarint(), n: r.uvarint()}
	if s.n > 1 {
		s.w = r.uvarint()
	}
	r.instr, r.cycle = s.lastInstr(), s.lastCycle()
	return s
}

// extendSlice is the most instructions one hold of a curve's write lock
// extends it by. A follower extending towards a far milestone must not
// keep another mix's boundary query — usually already covered — waiting
// for all of it: at 30–150 ns per alone instruction a slice is 2–10 ms.
// It is a latency bound, not a throughput knob (2^12, 2^16 and unsliced
// measured the same on the benchmark ledger).
const extendSlice = 1 << 16

// aloneCurve is one cached (instructions -> cycles) step curve plus the
// lean solo replica that extends it.
type aloneCurve struct {
	cache *AloneCurveCache

	mu  sync.RWMutex
	sys *System
	// The recorded points. Closed segments are coded back to back in enc
	// as uvarints: the instruction and cycle gaps from the previous
	// segment's last point, n, and w when n > 1 — 3 to 5 bytes where a
	// curveSeg takes 32. The open segment stays decoded in tail (n = 0
	// before the first point) so append can lengthen its run in place.
	// marks holds the position before every markEvery-th closed segment,
	// end the position after the last one.
	enc    []byte
	marks  []curveMark
	end    curveMark
	closed int // closed segments coded in enc
	tail   curveSeg
	points int64 // logical points recorded (sum of the segments' n)
	// last is the instruction count of the last recorded point. Written
	// under mu; atomic so that want can test coverage without queueing
	// behind an extension slice.
	last atomic.Uint64

	// target is the instruction count the running extension stops at.
	target uint64

	// Following (see want): the highest milestone a shared run has
	// announced, and whether a chase goroutine is extending towards it.
	wanted  atomic.Uint64
	chasing atomic.Bool
}

// cyclesAt returns the first cycle with at least n instructions retired,
// extending the curve if needed, and whether this call stepped the
// replica. Covered queries answer from the recorded prefix under a read
// lock.
func (c *aloneCurve) cyclesAt(n uint64) (cyc uint64, stepped bool) {
	if n == 0 {
		return 0, false
	}
	stepped = c.extendTo(n)
	c.mu.RLock()
	cyc = c.lookup(n)
	c.mu.RUnlock()
	return cyc, stepped
}

// extendTo steps the replica until the curve covers n instructions and
// reports whether this call did any of the stepping. It is the only
// routine that advances a curve: boundary queries and chase goroutines
// both come through here, taking the write lock for at most extendSlice
// instructions at a time, so whichever of them holds it the replica sees
// the same Step sequence and the curve the same points.
func (c *aloneCurve) extendTo(n uint64) (stepped bool) {
	for c.last.Load() < n {
		c.mu.Lock()
		prev := c.last.Load()
		if prev >= n { // someone else extended past n meanwhile
			c.mu.Unlock()
			break
		}
		target := n
		if target-prev > extendSlice {
			target = prev + extendSlice
		}
		sys := c.sys
		start, segs0, points0 := sys.Cycle(), c.segments(), c.points
		// c.retired records each retiring cycle and stops the replica
		// after the one reaching target (jumped cycles are covered work).
		c.target = target
		sys.advance(math.MaxUint64)
		c.last.Store(sys.Retired(0))
		// Lock order: a curve's mu, then the cache's (never the reverse).
		c.cache.grew(sys.Cycle()-start, c.points-points0, int64(c.segments()-segs0))
		c.mu.Unlock()
		stepped = true
	}
	return stepped
}

// want announces that a shared run has retired n instructions of this
// curve's stream, so a boundary query at or past n is coming: it raises
// the wanted milestone and, if the curve does not cover it yet and no
// chase is running, starts one. It takes no lock and never blocks — it is
// called from the shared run's own loop.
func (c *aloneCurve) want(n uint64) {
	for {
		w := c.wanted.Load()
		if n <= w || c.wanted.CompareAndSwap(w, n) {
			break
		}
	}
	if c.last.Load() < n && c.chasing.CompareAndSwap(false, true) {
		go c.chase()
	}
}

// chase extends the curve to the wanted milestone and exits once it has
// caught up; the goroutine owns the chasing flag while it runs. After
// clearing the flag it looks once more: a hint that arrived in between saw
// the flag set and started nothing. It runs under the cache's sim=alone
// profiler label.
func (c *aloneCurve) chase() {
	pprof.SetGoroutineLabels(c.cache.labels)
	for {
		c.extendTo(c.wanted.Load())
		c.chasing.Store(false)
		if c.last.Load() >= c.wanted.Load() || !c.chasing.CompareAndSwap(false, true) {
			return
		}
	}
}

// retired is the replica core's OnRetire hook: it records each retiring
// cycle's point and ends the advance after the cycle reaching the running
// extension's target. Callers hold c.mu for writing.
func (c *aloneCurve) retired(cycle, n uint64) bool {
	c.append(n, cycle+1)
	if n < c.target {
		return false
	}
	c.sys.end = cycle + 1
	return true
}

// lookup returns the cycle of the first point with instr >= n: the open
// segment's if n is past the closed ones, else a binary search for the
// last checkpoint before n and a decode forward from it (at most
// markEvery segments) to the first segment ending at or past n. Callers
// hold c.mu and have checked c.last >= n.
func (c *aloneCurve) lookup(n uint64) uint64 {
	if n > c.end.instr {
		return c.tail.cycleAt(n)
	}
	i := sort.Search(len(c.marks), func(i int) bool { return c.marks[i].instr >= n }) - 1
	r := curveReader{c.enc, c.marks[i]}
	for {
		if s := r.next(); s.lastInstr() >= n {
			return s.cycleAt(n)
		}
	}
}

// append records the point (instr, cycle), extending the open segment's
// run when the point continues it. Callers hold c.mu for writing and
// append strictly increasing instr and cycle.
func (c *aloneCurve) append(instr, cycle uint64) {
	c.points++
	t := &c.tail
	if t.n > 0 {
		// Only the very next cycle can continue a run; a stall gap starts
		// a new segment. n*w cannot wrap onto d: instr is past lastInstr.
		if cycle == t.cycle0+t.n {
			d := instr - t.instr0
			if t.n == 1 {
				t.w, t.n = d, 2 // the second point fixes the run's width
				return
			}
			if d == t.n*t.w {
				t.n++
				return
			}
		}
		c.closeTail()
	}
	*t = curveSeg{instr0: instr, cycle0: cycle, n: 1}
}

// closeTail codes the open segment onto enc, after a checkpoint if it is
// the first of a block of markEvery. Callers hold c.mu for writing.
func (c *aloneCurve) closeTail() {
	if c.closed%markEvery == 0 {
		c.marks = append(c.marks, c.end)
	}
	t := &c.tail
	c.enc = binary.AppendUvarint(c.enc, t.instr0-c.end.instr)
	c.enc = binary.AppendUvarint(c.enc, t.cycle0-c.end.cycle)
	c.enc = binary.AppendUvarint(c.enc, t.n)
	if t.n > 1 {
		c.enc = binary.AppendUvarint(c.enc, t.w)
	}
	c.end = curveMark{off: len(c.enc), instr: t.lastInstr(), cycle: t.lastCycle()}
	c.closed++
}

// segments returns the number of segments recorded, the open one
// included.
func (c *aloneCurve) segments() int {
	if c.tail.n == 0 {
		return c.closed
	}
	return c.closed + 1
}

// AloneCursor is one tracker slot's handle on a shared alone curve. It
// remembers the slot's previous answer so the cache can account saved
// cycles; the curve itself is shared and concurrency-safe.
type AloneCursor struct {
	curve *aloneCurve
	last  uint64
}

// CyclesAt returns the cycle at which the alone run has retired at least
// instr instructions: the cycle of the replica step that first brought
// its retired count to instr (0 for instr 0). Queries must be
// non-decreasing per cursor (they are: cumulative milestones only grow).
func (cu *AloneCursor) CyclesAt(instr uint64) uint64 {
	cyc, stepped := cu.curve.cyclesAt(instr)
	cu.curve.cache.observe(cyc-cu.last, stepped)
	cu.last = cyc
	return cyc
}

package sim

import (
	"asmsim/internal/evtrace"
	"asmsim/internal/workload"
)

// SlowdownTracker converts a shared run's per-quantum retired-instruction
// counts into ground-truth slowdowns. The paper's accuracy metric
// (Section 5) computes IPC_alone "for the same amount of work completed
// ... as that completed in the shared run for each quantum": every app
// slot answers that from a cursor on an alone-run curve — the cycles the
// app needs to retire a given number of instructions with the whole
// system to itself, on the same configuration as the shared run. Because
// workload generators are pure functions of (spec, seed), a curve's
// replica replays byte-identical work.
type SlowdownTracker struct {
	cfg  Config
	apps []AppSource
	// shared is the caller's curve cache, nil when the tracker made its
	// own; AttachAloneTracer leaves a tracker served from it alone.
	shared    *AloneCurveCache
	cursors   []*AloneCursor
	lastCycle []uint64 // alone cycles at the previous quantum's milestone
	total     []uint64 // cumulative shared-run retired instructions
}

// NewSlowdownTrackerShared builds ground-truth trackers for each spec
// under cfg, serving the alone runs from cache's curves. A nil cache gives
// the tracker a private one; pass one cache to several trackers under
// configurations with equal alone-curve keys to pay each benchmark's alone
// run once. Answers are bit-identical either way.
func NewSlowdownTrackerShared(cfg Config, specs []workload.Spec, cache *AloneCurveCache) (*SlowdownTracker, error) {
	return newSlowdownTracker(cfg, SourcesFromSpecs(specs, cfg.streamSeed()), cache)
}

// newSlowdownTracker is NewSlowdownTrackerShared over AppSources; every
// source needs a stream key (see AloneCurveCache.Cursor).
func newSlowdownTracker(cfg Config, apps []AppSource, cache *AloneCurveCache) (*SlowdownTracker, error) {
	t := &SlowdownTracker{
		cfg:       cfg,
		apps:      apps,
		shared:    cache,
		cursors:   make([]*AloneCursor, len(apps)),
		lastCycle: make([]uint64, len(apps)),
		total:     make([]uint64, len(apps)),
	}
	if cache == nil {
		cache = NewAloneCurveCache()
	}
	for i, app := range apps {
		cu, err := cache.Cursor(cfg, app)
		if err != nil {
			return nil, err
		}
		t.cursors[i] = cu
	}
	return t, nil
}

// AttachAloneTracer has every slot of a tracker with a private cache
// replay its alone run traced into tr, so the CPI stack's "mem-alone"
// segment can be measured instead of derived
// (evtrace.Summary.CPIStacksMeasured); a tracker served from a caller's
// shared cache traces nothing. Each slot is a full replica under
// soloConfig, a single-app trace series (evtrace.SplitByApp), stepped
// only by the tracker's own queries, never by a follower, so the
// interleaved trace is the same on every run. It returns the number of
// slots traced. Call before Follow and the first ActualSlowdowns.
func (t *SlowdownTracker) AttachAloneTracer(tr *evtrace.Tracer) int {
	if t == nil || tr == nil || t.shared != nil {
		return 0
	}
	own := NewAloneCurveCache() // the replaced curves go with their cursors
	n := 0
	for a, app := range t.apps {
		cv, err := own.newCurve(t.cfg.soloConfig(), app, false)
		if err != nil {
			continue // the shared run's config validated; a solo copy of it cannot fail
		}
		cv.sys.SetTracer(tr)
		t.cursors[a] = &AloneCursor{curve: cv}
		n++
	}
	return n
}

// Follow has the tracker's curves extended while sys — the shared run
// whose quantum stats feed ActualSlowdowns, from its first quantum on —
// is still simulating: every progressStride cycles of RunQuantaCtx each
// slot announces its core's retired-instruction count to its curve, which
// extends itself to that milestone on a goroutine of its own
// (aloneCurve.want) through the same routine a query uses. A hint is never
// speculative: retired counts only grow, so the next boundary's milestone
// is at or past it, and the boundary query simply finds that prefix
// covered. Answers, curve contents and cache accounting are those of an
// unfollowed run. Traced slots (AttachAloneTracer) stay synchronous. Call
// before the run starts; a system advanced by Run or RunQuanta is never
// followed.
func (t *SlowdownTracker) Follow(sys *System) {
	sys.progress = func() {
		for a, cu := range t.cursors {
			if cu.curve.sys.tracer == nil { // traced replicas step on the caller's goroutine only
				cu.curve.want(sys.Retired(a))
			}
		}
	}
}

// ActualSlowdowns consumes one quantum's stats from the shared run and
// returns the ground-truth slowdown of every app for that quantum:
// shared cycles (Q) divided by the alone cycles needed for the same
// instructions.
func (t *SlowdownTracker) ActualSlowdowns(st *QuantumStats) []float64 {
	out := make([]float64, len(t.cursors))
	for a, cu := range t.cursors {
		t.total[a] += st.Apps[a].Retired
		cyc := cu.CyclesAt(t.total[a])
		delta := cyc - t.lastCycle[a]
		t.lastCycle[a] = cyc
		if delta == 0 {
			out[a] = 1
			continue
		}
		sd := float64(st.Cycles) / float64(delta)
		if sd < 1 {
			// The shared run can never beat the alone run on identical
			// work; values below 1 are warm-up artifacts of slightly
			// different cache states. Clamp as the paper's metric implies.
			sd = 1
		}
		out[a] = sd
	}
	return out
}

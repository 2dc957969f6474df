package sim

import "asmsim/internal/workload"

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
	cursors   []*AloneCursor
	lastCycle []uint64 // alone cycles at the previous quantum's milestone
	total     []uint64 // cumulative shared-run retired instructions
}

// NewSlowdownTrackerShared builds ground-truth trackers for each spec
// under cfg, serving the alone runs from cache's curves; cache must not be
// nil. Pass one cache to several trackers under configurations with equal
// alone-curve keys to pay each benchmark's alone run once. Answers are
// bit-identical either way.
func NewSlowdownTrackerShared(cfg Config, specs []workload.Spec, cache *AloneCurveCache) (*SlowdownTracker, error) {
	return newSlowdownTracker(cfg, SourcesFromSpecs(specs, cfg.streamSeed()), cache)
}

// newSlowdownTracker is NewSlowdownTrackerShared over AppSources; every
// source needs a stream key (see AloneCurveCache.Cursor).
func newSlowdownTracker(cfg Config, apps []AppSource, cache *AloneCurveCache) (*SlowdownTracker, error) {
	t := &SlowdownTracker{
		cursors:   make([]*AloneCursor, len(apps)),
		lastCycle: make([]uint64, len(apps)),
		total:     make([]uint64, len(apps)),
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

// Follow has the tracker's curves extended while sys — the shared run
// whose quantum stats feed ActualSlowdowns, from its first quantum on —
// is still simulating: every progressStride cycles of RunQuantaCtx each
// slot announces its core's retired-instruction count to its curve, which
// extends itself to that milestone on a goroutine of its own
// (aloneCurve.want) through the same routine a query uses. A hint is never
// speculative: retired counts only grow, so the next boundary's milestone
// is at or past it, and the boundary query simply finds that prefix
// covered. Answers, curve contents and cache accounting are those of an
// unfollowed run. Call before the run starts; a system advanced by Run or
// RunQuanta is never followed.
func (t *SlowdownTracker) Follow(sys *System) {
	sys.progress = func() {
		for a, cu := range t.cursors {
			cu.curve.want(sys.Retired(a))
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

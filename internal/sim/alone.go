package sim

import (
	"asmsim/internal/evtrace"
	"asmsim/internal/workload"
)

// AloneProfile computes the ground-truth alone-run cycle counts for one
// application: the cycles the app needs to retire a given number of
// instructions when it has the whole system to itself (full shared cache,
// all memory bandwidth), on the same configuration as the shared run.
//
// The paper's accuracy metric (Section 5) computes IPC_alone "for the same
// amount of work completed ... as that completed in the shared run for
// each quantum"; AloneProfile provides exactly that by lazily advancing a
// single-core replica simulation to each instruction milestone. Because
// workload generators are pure functions of (spec, seed), the replica
// replays byte-identical work.
type AloneProfile struct {
	sys  *System
	core int
}

// NewAloneProfile builds the single-core replica for spec under cfg.
// The replica keeps cfg's cache and memory organization but disables
// epoch prioritization (meaningless with one app) and uses FR-FCFS.
func NewAloneProfile(cfg Config, spec workload.Spec) (*AloneProfile, error) {
	return NewAloneProfileFromSource(cfg, SourcesFromSpecs([]workload.Spec{spec}, cfg.streamSeed())[0])
}

// NewAloneProfileFromSource is NewAloneProfile for a custom instruction
// source (e.g., a recorded trace).
func NewAloneProfileFromSource(cfg Config, app AppSource) (*AloneProfile, error) {
	alone := cfg
	alone.Cores = 1
	alone.EpochPriority = false
	alone.Epoch = 0
	alone.Policy = PolicyFRFCFS
	sys, err := NewWithSources(alone, []AppSource{app})
	if err != nil {
		return nil, err
	}
	return &AloneProfile{sys: sys}, nil
}

// CyclesAt returns the cycle at which the alone run has retired at least
// instr instructions, advancing the replica as needed. Queries must be
// non-decreasing across calls (they are: cumulative retired-instruction
// milestones only grow). The replica advances via Step so memory-bound
// stretches take the skip-ahead fast path; a skip window retires nothing,
// so the milestone cannot be overshot.
func (p *AloneProfile) CyclesAt(instr uint64) uint64 {
	for p.sys.Retired(p.core) < instr {
		p.sys.Step()
	}
	return p.sys.Cycle()
}

// System exposes the replica for experiments that need alone-run
// measurements beyond cycle counts (e.g., Figure 6's actual alone miss
// service times).
func (p *AloneProfile) System() *System { return p.sys }

// SlowdownTracker converts a shared run's per-quantum retired-instruction
// counts into ground-truth slowdowns. Each app slot is backed either by a
// private AloneProfile replica, or — when a shared AloneCurveCache is
// supplied — by a cursor on the cache's memoized curve, which answers the
// same queries bit-identically without re-simulating the alone run.
type SlowdownTracker struct {
	profiles  []*AloneProfile // private replicas (nil for cached slots)
	cursors   []*AloneCursor  // shared-curve cursors (nil for private slots)
	lastCycle []uint64        // alone cycles at the previous quantum's milestone
	total     []uint64        // cumulative shared-run retired instructions
}

// NewSlowdownTracker builds ground-truth trackers for each spec under cfg.
func NewSlowdownTracker(cfg Config, specs []workload.Spec) (*SlowdownTracker, error) {
	return NewSlowdownTrackerShared(cfg, specs, nil)
}

// NewSlowdownTrackerShared is NewSlowdownTracker serving the alone-run
// ground truth from cache (nil disables sharing and behaves exactly like
// NewSlowdownTracker).
func NewSlowdownTrackerShared(cfg Config, specs []workload.Spec, cache *AloneCurveCache) (*SlowdownTracker, error) {
	return NewSlowdownTrackerFromSourcesShared(cfg, SourcesFromSpecs(specs, cfg.streamSeed()), cache)
}

// NewSlowdownTrackerFromSources is NewSlowdownTracker for custom
// instruction sources. Duplicate names replay identical streams, but each
// slot advances to its own milestones, so each keeps its own replica
// cursor.
func NewSlowdownTrackerFromSources(cfg Config, apps []AppSource) (*SlowdownTracker, error) {
	return NewSlowdownTrackerFromSourcesShared(cfg, apps, nil)
}

// NewSlowdownTrackerFromSourcesShared is NewSlowdownTrackerFromSources
// with an optional shared curve cache. Sources without a stream key
// (custom traces) silently fall back to private replicas.
func NewSlowdownTrackerFromSourcesShared(cfg Config, apps []AppSource, cache *AloneCurveCache) (*SlowdownTracker, error) {
	t := &SlowdownTracker{
		profiles:  make([]*AloneProfile, len(apps)),
		cursors:   make([]*AloneCursor, len(apps)),
		lastCycle: make([]uint64, len(apps)),
		total:     make([]uint64, len(apps)),
	}
	for i, app := range apps {
		if cache != nil && app.Key != "" {
			cu, err := cache.Cursor(cfg, app)
			if err != nil {
				return nil, err
			}
			t.cursors[i] = cu
			continue
		}
		p, err := NewAloneProfileFromSource(cfg, app)
		if err != nil {
			return nil, err
		}
		t.profiles[i] = p
	}
	return t, nil
}

// AttachAloneTracer wires tr into every private alone-run replica so the
// ground-truth replays export the same span/attribution telemetry as the
// shared run (under the same sampling knob), letting the CPI-stack
// "mem-alone" segment be measured from the replay instead of derived by
// subtraction (evtrace.Summary.CPIStacksMeasured). Each replica is a
// single-app system, so its per-quantum snapshots carry a one-element
// Apps set; when several replicas share one tracer the interleaved
// series is recovered per app with evtrace.SplitByApp. Slots served from
// a shared curve cache have no replica to trace and are skipped; the
// number of replicas actually traced is returned (0 with a fully cached
// tracker or a nil tracer). Call before the first ActualSlowdowns.
func (t *SlowdownTracker) AttachAloneTracer(tr *evtrace.Tracer) int {
	if t == nil || tr == nil {
		return 0
	}
	n := 0
	for _, p := range t.profiles {
		if p != nil {
			p.sys.SetTracer(tr)
			n++
		}
	}
	return n
}

// Follow has the tracker's shared curves extended while sys — the shared
// run whose quantum stats feed ActualSlowdowns, from its first quantum on
// — is still simulating: every progressStride cycles of RunQuantaCtx each
// cursor-backed slot announces its core's retired-instruction count to its
// curve, which extends itself to that milestone on a goroutine of its own
// (aloneCurve.want) through the same routine a query uses. A hint is never
// speculative: retired counts only grow, so the next boundary's milestone
// is at or past it, and the boundary query simply finds that prefix
// covered. Answers, curve contents and cache accounting are those of an
// unfollowed run. Slots on private replicas (keyless sources, traced
// alone runs) have no shared curve and stay synchronous. Call before the
// run starts; a system advanced by Run or RunQuanta is never followed.
func (t *SlowdownTracker) Follow(sys *System) {
	sys.progress = func() {
		for a, cu := range t.cursors {
			if cu != nil {
				cu.curve.want(sys.Retired(a))
			}
		}
	}
}

// cyclesAt answers slot a's milestone query from its cursor or replica.
func (t *SlowdownTracker) cyclesAt(a int, instr uint64) uint64 {
	if cu := t.cursors[a]; cu != nil {
		return cu.CyclesAt(instr)
	}
	return t.profiles[a].CyclesAt(instr)
}

// ActualSlowdowns consumes one quantum's stats from the shared run and
// returns the ground-truth slowdown of every app for that quantum:
// shared cycles (Q) divided by the alone cycles needed for the same
// instructions.
func (t *SlowdownTracker) ActualSlowdowns(st *QuantumStats) []float64 {
	out := make([]float64, len(t.profiles))
	for a := range t.profiles {
		t.total[a] += st.Apps[a].Retired
		cyc := t.cyclesAt(a, t.total[a])
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

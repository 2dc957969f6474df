package sim

import "asmsim/internal/telemetry"

// AppQuantum holds one application's counters for one quantum. The slowdown
// models are pure functions over these counters; the sim layer accumulates
// the superset that ASM (Table 1 + Section 4.3), FST, PTCA, MISE, UCP and
// ASM-Cache need.
type AppQuantum struct {
	// Retired is the number of instructions retired this quantum.
	Retired uint64
	// MemStallCycles is the cycles retirement was blocked on a memory
	// instruction (MISE's alpha numerator).
	MemStallCycles uint64

	// Demand shared-cache traffic over the whole quantum.
	L2Accesses uint64
	L2Hits     uint64
	L2Misses   uint64

	// Whole-quantum outstanding-transaction time integrals: cycles with at
	// least one outstanding L2 hit / miss in service (ASM-Cache's
	// quantum-hit-time / quantum-miss-time, Section 7.1).
	QuantumHitTime  uint64
	QuantumMissTime uint64

	// MLPIntegral sums the app's outstanding miss count over all cycles;
	// MLPIntegral / QuantumMissTime is the average miss-level parallelism.
	MLPIntegral uint64

	// Table 1 epoch metrics, counted only during the app's assigned epochs.
	EpochCount    uint64
	EpochAccesses uint64
	EpochHits     uint64
	EpochMisses   uint64
	EpochHitTime  uint64
	EpochMissTime uint64
	// Epoch ATS probe outcomes (sampled sets only).
	EpochATSProbes uint64
	EpochATSHits   uint64

	// Whole-quantum ATS probe outcomes (sampled sets only) plus the
	// LRU-stack way-profile for UCP/ASM-Cache: ATSHitsAtWay[p] counts hits
	// at stack position p.
	ATSProbes    uint64
	ATSHits      uint64
	ATSHitsAtWay []uint64

	// QueueingCycles is ASM's Section 4.3 counter: cycles during the app's
	// epochs in which it had an outstanding request but the previous
	// memory command issued belonged to another app.
	QueueingCycles uint64

	// MemInterfCycles is the STFM-style per-app interference estimate
	// (parallelism-scaled), which FST and PTCA use for the main-memory
	// component of their per-request accounting.
	MemInterfCycles float64

	// Per-request contention-miss accounting at the shared cache.
	// PF* uses FST's pollution filter; ATS* uses PTCA's auxiliary tag
	// store (counted only for requests mapping to sampled sets).
	PFContentionMisses  uint64
	PFContentionExtra   float64 // sum of (miss latency - hit latency)
	ATSContentionMisses uint64
	ATSContentionExtra  float64
	SampledDemandMisses uint64 // demand misses that mapped to sampled ATS sets

	// Whole-quantum miss service accounting.
	MissCount      uint64
	MissLatencySum uint64
	// PerReqInterfSum totals the per-request interference cycles of
	// completed misses (Figure 6's per-request estimates derive from it).
	PerReqInterfSum uint64
	// SampledPerReqInterf totals per-request interference cycles of the
	// misses that mapped to sampled ATS sets only. Sampled PTCA scales
	// this up by the set ratio (Section 2.2: "the interference cycles for
	// the requests that map to the sampled sets are counted and scaled").
	SampledPerReqInterf uint64

	// Writebacks and prefetch traffic (not part of CAR).
	Writebacks     uint64
	PrefetchIssued uint64
	PrefetchUseful uint64
}

// TelemetryCounters projects the quantum's counters into the flat,
// JSON-stable form the telemetry recorder streams (the ATSHitsAtWay
// profile is summarized by ATSHits; the full way profile stays a
// model-layer concern).
func (a *AppQuantum) TelemetryCounters() telemetry.AppCounters {
	return telemetry.AppCounters{
		Retired:             a.Retired,
		MemStallCycles:      a.MemStallCycles,
		L2Accesses:          a.L2Accesses,
		L2Hits:              a.L2Hits,
		L2Misses:            a.L2Misses,
		QuantumHitTime:      a.QuantumHitTime,
		QuantumMissTime:     a.QuantumMissTime,
		MLPIntegral:         a.MLPIntegral,
		EpochCount:          a.EpochCount,
		EpochAccesses:       a.EpochAccesses,
		EpochHits:           a.EpochHits,
		EpochMisses:         a.EpochMisses,
		EpochHitTime:        a.EpochHitTime,
		EpochMissTime:       a.EpochMissTime,
		QueueingCycles:      a.QueueingCycles,
		MemInterfCycles:     a.MemInterfCycles,
		MissCount:           a.MissCount,
		MissLatencySum:      a.MissLatencySum,
		PerReqInterfSum:     a.PerReqInterfSum,
		PFContentionMisses:  a.PFContentionMisses,
		ATSContentionMisses: a.ATSContentionMisses,
		Writebacks:          a.Writebacks,
		PrefetchIssued:      a.PrefetchIssued,
		PrefetchUseful:      a.PrefetchUseful,
	}
}

// EmitRecords hands rec one QuantumRecord per app of st: base's run
// labels (TraceID, Mix, Scheme), the app's benchmark name and counters,
// its actual slowdown when actual is non-nil, every estimator's estimate
// from est, and the quantum's end cycle. It is the one place quantum
// records are built from QuantumStats. A nil rec costs nothing.
func EmitRecords(rec telemetry.Recorder, base telemetry.QuantumRecord, benches []string, st *QuantumStats, actual []float64, est map[string][]float64) {
	if rec == nil {
		return
	}
	for a := range st.Apps {
		r := base
		r.App, r.Bench, r.Quantum = a, benches[a], st.Quantum
		r.EndCycle = uint64(st.Quantum+1) * st.Cycles
		if actual != nil {
			r.Actual = actual[a]
		}
		if len(est) > 0 {
			r.Estimates = make(map[string]float64, len(est))
			for name, v := range est {
				r.Estimates[name] = v[a]
			}
		}
		r.Counters = st.Apps[a].TelemetryCounters()
		rec.Record(&r)
	}
}

// QuantumStats is the per-quantum snapshot handed to models and policies.
type QuantumStats struct {
	// Quantum is the zero-based quantum index.
	Quantum int
	// Cycles is the quantum length Q.
	Cycles uint64
	// EpochLen is the epoch length E (0 when epoch priority is off).
	EpochLen uint64
	// L2HitLatency is the shared-cache hit latency in cycles.
	L2HitLatency uint64
	// ATSScale is the set-sampling scale factor (total sets / sampled
	// sets); 1 for an unsampled ATS.
	ATSScale float64
	// L2Ways is the shared-cache associativity.
	L2Ways int

	// Apps holds one entry per application slot.
	Apps []AppQuantum
}

// NumApps returns the number of application slots.
func (q *QuantumStats) NumApps() int { return len(q.Apps) }

// CARShared returns app's measured shared-cache access rate for the
// quantum: accesses per cycle (Section 4.1).
func (q *QuantumStats) CARShared(app int) float64 {
	if q.Cycles == 0 {
		return 0
	}
	return float64(q.Apps[app].L2Accesses) / float64(q.Cycles)
}

// IPC returns app's measured instructions per cycle for the quantum.
func (q *QuantumStats) IPC(app int) float64 {
	if q.Cycles == 0 {
		return 0
	}
	return float64(q.Apps[app].Retired) / float64(q.Cycles)
}

// MPKI returns app's shared-cache misses per kilo-instruction.
func (q *QuantumStats) MPKI(app int) float64 {
	a := &q.Apps[app]
	if a.Retired == 0 {
		return 0
	}
	return float64(a.L2Misses) * 1000 / float64(a.Retired)
}

// AvgMissLatency returns app's mean miss service latency this quantum.
func (q *QuantumStats) AvgMissLatency(app int) float64 {
	a := &q.Apps[app]
	if a.MissCount == 0 {
		return 0
	}
	return float64(a.MissLatencySum) / float64(a.MissCount)
}

// AvgMLP returns app's average outstanding misses over cycles with at
// least one outstanding miss (>= 1 when any miss occurred).
func (q *QuantumStats) AvgMLP(app int) float64 {
	a := &q.Apps[app]
	if a.QuantumMissTime == 0 {
		return 1
	}
	m := float64(a.MLPIntegral) / float64(a.QuantumMissTime)
	if m < 1 {
		return 1
	}
	return m
}

// Clone deep-copies the snapshot. Consumers that mutate a snapshot (e.g.
// a test estimator feeding the models non-finite counters) must work on a
// clone so sibling listeners keep seeing pristine counters.
func (q *QuantumStats) Clone() *QuantumStats { return q.clone() }

// clone deep-copies the snapshot so listeners may retain it.
func (q *QuantumStats) clone() *QuantumStats {
	cp := *q
	cp.Apps = make([]AppQuantum, len(q.Apps))
	copy(cp.Apps, q.Apps)
	for i := range cp.Apps {
		cp.Apps[i].ATSHitsAtWay = append([]uint64(nil), q.Apps[i].ATSHitsAtWay...)
	}
	return &cp
}

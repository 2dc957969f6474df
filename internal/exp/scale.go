package exp

import (
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
)

// Scale sets the size of every experiment: how many random workloads per
// data point, how many quanta are simulated and measured, and the
// quantum/epoch lengths.
type Scale struct {
	// Workloads is the number of random workload mixes per data point
	// (the paper uses 100).
	Workloads int
	// WarmupQuanta are simulated but excluded from statistics (cold
	// caches make the first quantum's ground truth unrepresentative).
	WarmupQuanta int
	// MeasuredQuanta are the quanta included in statistics.
	MeasuredQuanta int
	// Quantum and Epoch are ASM's Q and E in cycles.
	Quantum uint64
	Epoch   uint64
	// Seed drives workload-mix construction and all simulations.
	Seed uint64
	// Telemetry optionally observes the sweep: a Recorder receives one
	// record per (app, quantum) with counters, actual and estimated
	// slowdowns; Metrics receives per-item and per-scheme wall-time
	// histograms, worker-utilization counters and simulator counters; Progress
	// receives live item start/finish updates; Trace and Attribution
	// observe every shared run's interference (alone runs are never
	// traced). The zero value disables all observation.
	Telemetry telemetry.Options
	// AloneCache shares alone-run ground-truth curves across every run
	// of the sweep (and across sweeps, when the same cache is passed to
	// several experiments): each benchmark's alone run is simulated once
	// per distinct configuration instead of once per mix. nil gives every
	// run a private cache, re-simulating each alone run per mix. Quick()
	// and Full() populate it.
	AloneCache *sim.AloneCurveCache
}

// Quick returns the scaled-down configuration used by `go test -bench`
// and `cmd/experiments -quick`: same code paths, minutes instead of
// hours.
func Quick() Scale { return baseScale(false).withAloneCache() }

// Full returns a configuration close to the paper's (100 workloads,
// Q = 5M cycles, 100M-cycle runs). An accuracy figure at 8 workloads
// takes about 90 s on 2 vCPU, so about 20 min at 100 (an estimate).
func Full() Scale { return baseScale(true).withAloneCache() }

// baseScale returns the knobs of Full, or of Quick, without an
// alone-curve cache.
func baseScale(full bool) Scale {
	if full {
		return Scale{
			Workloads:      100,
			WarmupQuanta:   2,
			MeasuredQuanta: 18,
			Quantum:        5_000_000,
			Epoch:          10_000,
			Seed:           42,
		}
	}
	return Scale{
		Workloads:      6,
		WarmupQuanta:   1,
		MeasuredQuanta: 3,
		Quantum:        1_000_000,
		Epoch:          10_000,
		Seed:           42,
	}
}

// withAloneCache returns sc with a fresh alone-curve cache.
func (sc Scale) withAloneCache() Scale {
	sc.AloneCache = sim.NewAloneCurveCache()
	return sc
}

// BaseConfig returns the paper's Table 2 system at this scale's quantum
// and epoch lengths.
func (sc Scale) BaseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Quantum = sc.Quantum
	cfg.Epoch = sc.Epoch
	cfg.Seed = sc.Seed
	return cfg
}

// TotalQuanta returns warmup + measured quanta.
func (sc Scale) TotalQuanta() int { return sc.WarmupQuanta + sc.MeasuredQuanta }

// scaleQuantumForCores grows the quantum with the core count (capped at
// 2x) so every app still receives a usable number of priority epochs per
// quantum. The paper's Q = 5M cycles provides ~31 epochs per app even at
// 16 cores; quick-scale quanta starve ASM of epochs at high core counts
// without this adjustment, which would measure epoch-count noise rather
// than model error.
func scaleQuantumForCores(sc Scale, cores int) Scale {
	factor := uint64(cores / 4)
	if factor < 1 {
		factor = 1
	}
	if factor > 2 {
		factor = 2
	}
	out := sc
	out.Quantum = sc.Quantum * factor
	return out
}

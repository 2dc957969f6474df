package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asmsim/internal/core"
	"asmsim/internal/metrics"
	"asmsim/internal/sim"
	"asmsim/internal/stats"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// Sample is one (application, quantum) accuracy observation: the actual
// slowdown from the alone-run ground truth and every estimator's estimate.
type Sample struct {
	Bench   string
	App     int
	Quantum int
	Actual  float64
	Est     map[string]float64
}

// Error returns the paper's error metric for the named estimator on this
// sample, |estimated - actual| / actual * 100, and whether the sample is
// valid for that estimator. A sample with no such estimate or a
// non-positive actual slowdown cannot be scored — callers must skip it,
// not average in a zero (which would silently deflate reported error).
// The arithmetic delegates to metrics.Error so the two error metrics in
// the codebase cannot drift apart.
func (s Sample) Error(estimator string) (float64, bool) {
	e, ok := s.Est[estimator]
	if !ok {
		return 0, false
	}
	return metrics.Error(e, s.Actual)
}

// EstimatorSet builds fresh estimator instances for one workload run
// (estimators carry per-run state such as previous-quantum fallbacks).
type EstimatorSet func() []core.Estimator

// MixRun is one run of a workload mix: the one code path behind
// RunAccuracy, RunPolicy, asmsim.Run and the cluster's machine rounds.
// Optional fields left zero observe and estimate nothing.
type MixRun struct {
	Config sim.Config // Cores is set from Mix
	Mix    workload.Mix
	Scheme string // labels the quantum records (RunPolicy's scheme)
	// Telemetry observes the shared run and receives one record per
	// (app, quantum), warmup included.
	Telemetry telemetry.Options
	// Attach is called with the system after Observe, before the run:
	// partitioners and bandwidth policies install here.
	Attach func(*sim.System)
	// Estimators are evaluated on each quantum's snapshot.
	Estimators []core.Estimator
	// GroundTruth measures actual slowdowns on alone curves from
	// AloneCache (nil: private to the run) that follow the shared run.
	GroundTruth bool
	AloneCache  *sim.AloneCurveCache
	// Warmup quanta run before Measured ones. OnQuantum receives each
	// measured quantum's stats, actual slowdowns (nil without GroundTruth)
	// and estimates by estimator name, in a map reused across quanta.
	Warmup, Measured int
	OnQuantum        func(st *sim.QuantumStats, actual []float64, est map[string][]float64)
}

// Run simulates the mix under ctx. Cancellation reaches the simulator's
// cycle loop (sim.RunQuantaCtx), so a cancelled or expired run stops
// within a few thousand cycles — mid-quantum — rather than finishing its
// current quantum. It returns the simulated system, or nil when the run
// could not be set up; a system returned with an error was stopped by
// ctx.
func (r MixRun) Run(ctx context.Context) (*sim.System, error) {
	specs := r.Mix.Specs()
	cfg := r.Config
	cfg.Cores = len(specs)
	sys, err := sim.New(cfg, specs)
	if err != nil {
		return nil, err
	}
	sys.Observe(r.Telemetry)
	if r.Attach != nil {
		r.Attach(sys)
	}
	var tracker *sim.SlowdownTracker
	if r.GroundTruth {
		cache := r.AloneCache
		if cache == nil {
			cache = sim.NewAloneCurveCache()
		}
		cache.SetTelemetry(r.Telemetry.Metrics.Scope("sim"))
		if tracker, err = sim.NewSlowdownTrackerShared(cfg, specs, cache); err != nil {
			return nil, err
		}
		tracker.Follow(sys)
	}
	labels := telemetry.QuantumRecord{TraceID: r.Telemetry.TraceID, Mix: r.Mix.String(), Scheme: r.Scheme}
	benches := sys.Names()
	est := make(map[string][]float64, len(r.Estimators))
	sys.AddQuantumListener(func(_ *sim.System, st *sim.QuantumStats) {
		var actual []float64
		if tracker != nil {
			actual = tracker.ActualSlowdowns(st)
		}
		for _, e := range r.Estimators {
			est[e.Name()] = e.Estimate(st)
		}
		sim.EmitRecords(r.Telemetry.Recorder, labels, benches, st, actual, est)
		if st.Quantum >= r.Warmup && r.OnQuantum != nil {
			r.OnQuantum(st, actual, est)
		}
	})
	return sys, sys.RunQuantaCtx(ctx, r.Warmup+r.Measured)
}

// runItem runs one sweep item's mix at the scale: it adds the scale's
// observers, alone cache and quanta to r and names the run (label) in
// every error, a recovered panic included. ctx is the only bound on the
// run's wall time.
func (sc Scale) runItem(ctx context.Context, label string, r MixRun) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: run %s panicked: %v", label, p)
		}
	}()
	r.Telemetry, r.AloneCache, r.GroundTruth = sc.Telemetry, sc.AloneCache, true
	r.Warmup, r.Measured = sc.WarmupQuanta, sc.MeasuredQuanta
	if _, err := r.Run(ctx); err != nil {
		return fmt.Errorf("exp: run %s: %w", label, err)
	}
	return nil
}

// RunAccuracy runs one workload mix under cfg, evaluating the estimators
// against alone-run ground truth, and returns one sample per app per
// measured quantum. It honors ctx cancellation (returning the samples
// gathered so far alongside the context error) and recovers panics into
// errors naming the mix.
func RunAccuracy(ctx context.Context, cfg sim.Config, mix workload.Mix, newEst EstimatorSet, sc Scale) (samples []Sample, err error) {
	ests := newEst()
	err = sc.runItem(ctx, mix.String(), MixRun{
		Config:     cfg,
		Mix:        mix,
		Estimators: ests,
		OnQuantum: func(st *sim.QuantumStats, actual []float64, est map[string][]float64) {
			// Only the small per-sample Est maps are allocated per quantum
			// (they escape into the returned samples).
			if samples == nil {
				samples = make([]Sample, 0, sc.MeasuredQuanta*len(actual))
			}
			for a := range actual {
				s := Sample{
					Bench:   mix.Names[a],
					App:     a,
					Quantum: st.Quantum,
					Actual:  actual[a],
					Est:     make(map[string]float64, len(ests)),
				}
				for name, v := range est {
					s.Est[name] = v[a]
				}
				samples = append(samples, s)
			}
		},
	})
	return samples, err
}

// Errors returns one estimator's error on every sample that can be
// scored, in sample order; samples that cannot be scored are excluded
// rather than counted as zero.
func Errors(samples []Sample, estimator string) []float64 {
	var out []float64
	for _, s := range samples {
		if e, ok := s.Error(estimator); ok {
			out = append(out, e)
		}
	}
	return out
}

// MeanError averages the error of one estimator over the valid samples.
func MeanError(samples []Sample, estimator string) float64 {
	return stats.Mean(Errors(samples, estimator))
}

// ErrorsByBench groups per-sample errors by benchmark name, excluding
// samples that cannot be scored.
func ErrorsByBench(samples []Sample, estimator string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range samples {
		e, ok := s.Error(estimator)
		if !ok {
			continue
		}
		out[s.Bench] = append(out[s.Bench], e)
	}
	return out
}

// Scheme is one resource-management configuration for the Section 7
// policy experiments: a config mutation (scheduler, epoch mode, sampling)
// plus listeners to attach (partitioners, epoch-weight policies).
type Scheme struct {
	Name      string
	Configure func(*sim.Config)
	Attach    func(*sim.System)
}

// PolicyOutcome summarizes one workload run under a scheme.
type PolicyOutcome struct {
	// AppSlowdowns is each app's actual slowdown over the measured
	// window (harmonic mean of per-quantum slowdowns, equivalent to
	// total-shared-time / total-alone-time).
	AppSlowdowns []float64
	// MaxSlowdown is the unfairness metric (Section 7.1.2).
	MaxSlowdown float64
	// HarmonicSpeedup is the system-performance metric.
	HarmonicSpeedup float64
}

// RunPolicy runs one workload mix under a scheme and measures actual
// slowdowns against the alone-run ground truth. Like RunAccuracy it
// honors ctx cancellation and recovers panics into errors naming the
// mix.
func RunPolicy(ctx context.Context, cfg sim.Config, mix workload.Mix, scheme Scheme, sc Scale) (PolicyOutcome, error) {
	if scheme.Configure != nil {
		scheme.Configure(&cfg)
	}
	defer sc.Telemetry.Metrics.Scope("exp").Scope("scheme").Timer(scheme.Name).Start()()
	// Ground truth needs no baseline config of its own: an alone curve
	// always runs the unmanaged system (one core, FR-FCFS, no epochs) with
	// the full cache and all bandwidth, whatever the scheme configures.
	n := len(mix.Names)
	invSum := make([]float64, n) // sum of 1/slowdown per quantum
	count := 0
	err := sc.runItem(ctx, fmt.Sprintf("%s (%s)", mix, scheme.Name), MixRun{
		Config: cfg,
		Mix:    mix,
		Scheme: scheme.Name,
		Attach: scheme.Attach,
		OnQuantum: func(_ *sim.QuantumStats, actual []float64, _ map[string][]float64) {
			count++
			for a, sd := range actual {
				invSum[a] += 1 / sd
			}
		},
	})
	if err != nil {
		return PolicyOutcome{}, err
	}
	if count == 0 {
		return PolicyOutcome{}, fmt.Errorf("exp: no measured quanta")
	}
	out := PolicyOutcome{AppSlowdowns: make([]float64, n)}
	for a := range out.AppSlowdowns {
		out.AppSlowdowns[a] = float64(count) / invSum[a]
	}
	out.MaxSlowdown = metrics.MaxSlowdown(out.AppSlowdowns)
	out.HarmonicSpeedup = metrics.HarmonicSpeedup(out.AppSlowdowns)
	return out, nil
}

// sweepMixes runs one sweep item per mix on forEach's workers, under cfg
// with a per-mix Seed (decorrelating the epoch lotteries) and the sweep's
// StreamSeed (keeping each benchmark's instruction stream identical in
// every mix, so the alone-run curve cache shares one curve per benchmark
// across the sweep). It returns every mix's result in mix order, or
// forEach's error: a sweep is whole or it fails.
func sweepMixes[T any](ctx context.Context, cfg sim.Config, mixes []workload.Mix, sc Scale, run func(sim.Config, workload.Mix) (T, error)) ([]T, error) {
	results := make([]T, len(mixes))
	err := forEach(ctx, len(mixes),
		func(i int) string { return mixes[i].String() },
		sc.Telemetry,
		func(i int) (err error) {
			c := cfg
			c.Seed = sc.Seed + uint64(i)*1000
			c.StreamSeed = sc.Seed
			results[i], err = run(c, mixes[i])
			return err
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// forEach runs fn for every index in [0, n) on up to GOMAXPROCS workers,
// which claim items in index order. Once an item fails or ctx is done no
// further item is claimed; items already in flight finish. A worker
// panic is recovered into an error naming the item. forEach returns the
// error of the lowest failed index — an item claimed before a failure
// always runs, so a deterministic failure gives the same error on every
// run — or else, when ctx stopped the sweep short, ctx's error wrapped.
//
// obs optionally observes the sweep: Progress receives item start/finish
// updates, Metrics receives per-item wall-time timers (aggregate
// "exp.item" plus one per item label) and worker-utilization gauges.
// The zero Options observes nothing.
func forEach(ctx context.Context, n int, label func(int) string, obs telemetry.Options, fn func(int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var busyNs atomic.Int64
	call := func(i int) (err error) {
		var item string
		if label != nil {
			item = label(i)
		}
		obs.Progress.StartItem(item)
		begin := time.Now()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("exp: item %d (%s) panicked: %v", i, item, r)
			}
			d := time.Since(begin)
			busyNs.Add(int64(d))
			if m := obs.Metrics.Scope("exp"); m != nil {
				m.Timer("item").Observe(d)
				if item != "" {
					m.Scope("item").Timer(item).Observe(d)
				}
				if err != nil {
					m.Counter("items_failed").Inc()
				} else {
					m.Counter("items_done").Inc()
				}
			}
			obs.Progress.DoneItem(item, err)
		}()
		return fn(i)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	obs.Progress.Add(n)
	start := time.Now()
	defer func() {
		// Worker utilization: busy time over the sweep's worker capacity.
		// Counters accumulate across sweeps so the cumulative utilization
		// of a whole invocation can be derived from one snapshot.
		m := obs.Metrics.Scope("exp")
		if m == nil || workers == 0 {
			return
		}
		capacity := int64(time.Since(start)) * int64(workers)
		m.Counter("busy_ns").Add(uint64(busyNs.Load()))
		m.Counter("capacity_ns").Add(uint64(capacity))
		m.Gauge("workers").Set(int64(workers))
		if capacity > 0 {
			m.Gauge("worker_utilization_pct").Set(100 * busyNs.Load() / capacity)
		}
	}()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		failed   = -1 // lowest failed index
		firstErr error
	)
	// claim returns the next index, or -1 once ctx is done, an item
	// failed or every item is claimed. A failure is recorded under the
	// lock claims take, so no item is claimed after it. A sweep whose
	// every item was claimed is complete even if ctx ended as the last
	// one finished.
	claim := func() int {
		if ctx.Err() != nil {
			return -1
		}
		mu.Lock()
		defer mu.Unlock()
		if next >= n || failed >= 0 {
			return -1
		}
		next++
		return next - 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				if err := call(i); err != nil {
					mu.Lock()
					if failed < 0 || i < failed {
						failed, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	switch {
	case failed >= 0:
		return firstErr
	case next < n:
		return fmt.Errorf("exp: sweep stopped after %d of %d items: %w", next, n, ctx.Err())
	}
	return nil
}

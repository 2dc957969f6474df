package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asmsim/internal/core"
	"asmsim/internal/faults"
	"asmsim/internal/metrics"
	"asmsim/internal/sim"
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

// runQuanta advances sys under ctx. Cancellation propagates into the
// simulator's cycle loop (sim.RunQuantaCtx), so a cancelled or expired
// run stops within a few thousand cycles — mid-quantum — rather than
// finishing its current quantum or its whole sweep item.
func runQuanta(ctx context.Context, sys *sim.System, n int) error {
	return sys.RunQuantaCtx(ctx, n)
}

// withRunTimeout applies the scale's per-run timeout, when set.
func withRunTimeout(ctx context.Context, sc Scale) (context.Context, context.CancelFunc) {
	if sc.RunTimeout > 0 {
		return context.WithTimeout(ctx, sc.RunTimeout)
	}
	return ctx, func() {}
}

// RunAccuracy runs one workload mix under cfg, evaluating the estimators
// against alone-run ground truth, and returns one sample per app per
// measured quantum. It honors ctx cancellation and the scale's per-run
// timeout (returning the samples gathered so far alongside the context
// error), recovers panics into errors naming the mix, and routes
// estimator input through the scale's fault injector when one is
// configured.
func RunAccuracy(ctx context.Context, cfg sim.Config, mix workload.Mix, newEst EstimatorSet, sc Scale) (samples []Sample, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := withRunTimeout(ctx, sc)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			samples = nil
			err = fmt.Errorf("exp: run %s panicked: %v", mix, r)
		}
	}()
	inj := faults.New(sc.Faults)
	if ferr := inj.FailRun(mix.String()); ferr != nil {
		return nil, fmt.Errorf("exp: run %s: %w", mix, ferr)
	}
	specs := mix.Specs()
	cfg.Cores = len(specs)
	sys, err := sim.New(cfg, specs)
	if err != nil {
		return nil, err
	}
	sys.Observe(sc.Telemetry)
	sc.AloneCache.SetTelemetry(sc.Telemetry.Metrics.Scope("sim"))
	tracker, err := sim.NewSlowdownTrackerShared(cfg, specs, sc.AloneCache)
	if err != nil {
		return nil, err
	}
	tracker.Follow(sys)
	ests := newEst()
	labels := telemetry.QuantumRecord{TraceID: sc.Telemetry.TraceID, Mix: mix.String()}
	benches := sys.Names()
	// The estimates map and samples slice are reused/pre-sized across
	// quanta: only the small per-sample Est maps are allocated per
	// quantum (they escape into the returned samples).
	estimates := make(map[string][]float64, len(ests))
	if m := sc.MeasuredQuanta; m > 0 {
		samples = make([]Sample, 0, m*len(specs))
	}
	sys.AddQuantumListener(func(_ *sim.System, st *sim.QuantumStats) {
		// Ground truth reads the pristine counters; the estimators see the
		// possibly-corrupted snapshot, as real models would on a machine
		// with a flaky counter readout.
		actual := tracker.ActualSlowdowns(st)
		stEst, _ := inj.CorruptStats(mix.String(), st)
		for _, e := range ests {
			estimates[e.Name()] = e.Estimate(stEst)
		}
		// The recorder sees every quantum, warmup included: the
		// per-quantum trajectory is exactly what it exists to expose.
		sim.EmitRecords(sc.Telemetry.Recorder, labels, benches, st, actual, estimates)
		if st.Quantum < sc.WarmupQuanta {
			return
		}
		for a := range specs {
			s := Sample{
				Bench:   specs[a].Name,
				App:     a,
				Quantum: st.Quantum,
				Actual:  actual[a],
				Est:     make(map[string]float64, len(ests)),
			}
			for name, v := range estimates {
				s.Est[name] = v[a]
			}
			samples = append(samples, s)
		}
	})
	if err := runQuanta(ctx, sys, sc.TotalQuanta()); err != nil {
		return samples, fmt.Errorf("exp: run %s: %w", mix, err)
	}
	return samples, nil
}

// MeanError averages the error of one estimator over the valid samples;
// samples that cannot be scored are excluded rather than counted as zero.
func MeanError(samples []Sample, estimator string) float64 {
	sum, n := 0.0, 0
	for _, s := range samples {
		e, ok := s.Error(estimator)
		if !ok {
			continue
		}
		sum += e
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
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
// honors ctx cancellation and the per-run timeout and recovers panics
// into errors naming the mix.
func RunPolicy(ctx context.Context, cfg sim.Config, mix workload.Mix, scheme Scheme, sc Scale) (out PolicyOutcome, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := withRunTimeout(ctx, sc)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			out = PolicyOutcome{}
			err = fmt.Errorf("exp: run %s (%s) panicked: %v", mix, scheme.Name, r)
		}
	}()
	inj := faults.New(sc.Faults)
	if ferr := inj.FailRun(mix.String() + "/" + scheme.Name); ferr != nil {
		return PolicyOutcome{}, fmt.Errorf("exp: run %s (%s): %w", mix, scheme.Name, ferr)
	}
	specs := mix.Specs()
	cfg.Cores = len(specs)
	if scheme.Configure != nil {
		scheme.Configure(&cfg)
	}
	sys, err := sim.New(cfg, specs)
	if err != nil {
		return PolicyOutcome{}, err
	}
	sys.Observe(sc.Telemetry)
	if scheme.Attach != nil {
		scheme.Attach(sys)
	}
	defer sc.Telemetry.Metrics.Scope("exp").Scope("scheme").Timer(scheme.Name).Start()()
	// Ground truth always uses the unmanaged baseline system: the alone
	// run has the full cache and all bandwidth regardless of policy.
	base := cfg
	base.EpochPriority = false
	base.Epoch = 0
	base.Policy = sim.PolicyFRFCFS
	sc.AloneCache.SetTelemetry(sc.Telemetry.Metrics.Scope("sim"))
	tracker, err := sim.NewSlowdownTrackerShared(base, specs, sc.AloneCache)
	if err != nil {
		return PolicyOutcome{}, err
	}
	tracker.Follow(sys)
	n := len(specs)
	invSum := make([]float64, n) // sum of 1/slowdown per quantum
	count := 0
	labels := telemetry.QuantumRecord{TraceID: sc.Telemetry.TraceID, Mix: mix.String(), Scheme: scheme.Name}
	benches := sys.Names()
	sys.AddQuantumListener(func(_ *sim.System, st *sim.QuantumStats) {
		actual := tracker.ActualSlowdowns(st)
		sim.EmitRecords(sc.Telemetry.Recorder, labels, benches, st, actual, nil)
		if st.Quantum < sc.WarmupQuanta {
			return
		}
		count++
		for a, sd := range actual {
			invSum[a] += 1 / sd
		}
	})
	if err := runQuanta(ctx, sys, sc.TotalQuanta()); err != nil {
		return PolicyOutcome{}, fmt.Errorf("exp: run %s (%s): %w", mix, scheme.Name, err)
	}
	if count == 0 {
		return PolicyOutcome{}, fmt.Errorf("exp: no measured quanta")
	}
	out = PolicyOutcome{AppSlowdowns: make([]float64, n)}
	for a := range out.AppSlowdowns {
		out.AppSlowdowns[a] = float64(count) / invSum[a]
	}
	out.MaxSlowdown = maxOf(out.AppSlowdowns)
	out.HarmonicSpeedup = harmonicSpeedup(out.AppSlowdowns)
	return out, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func harmonicSpeedup(slowdowns []float64) float64 {
	sum := 0.0
	for _, s := range slowdowns {
		sum += s
	}
	if sum == 0 {
		return 0
	}
	return float64(len(slowdowns)) / sum
}

// forEach runs fn for every index in [0, n) on up to GOMAXPROCS workers.
// Unlike a fail-fast pool it keeps going past individual failures: every
// failure is recorded with its index and the label's workload name,
// worker panics are recovered into errors instead of crashing the
// process, and new items stop being scheduled once ctx is cancelled
// (in-flight items finish). Failures come back sorted by index; cancelled
// reports whether the sweep stopped early.
//
// obs optionally observes the sweep: Progress receives item start/finish
// updates, Metrics receives per-item wall-time timers (aggregate
// "exp.item" plus one per item label) and worker-utilization gauges.
// The zero Options observes nothing.
func forEach(ctx context.Context, n int, label func(int) string, obs telemetry.Options, fn func(int) error) (failures []ItemError, cancelled bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := func(i int) string {
		if label == nil {
			return ""
		}
		return label(i)
	}
	var busyNs atomic.Int64
	call := func(i int) (err error) {
		item := name(i)
		obs.Progress.StartItem(item)
		begin := time.Now()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
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
	record := func(i int, err error) ItemError {
		return ItemError{Index: i, Name: name(i), Err: err}
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
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return failures, true
			}
			if err := call(i); err != nil {
				failures = append(failures, record(i, err))
			}
		}
		return failures, false
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					mu.Lock()
					cancelled = true
					mu.Unlock()
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := call(i); err != nil {
					mu.Lock()
					failures = append(failures, record(i, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
	return failures, cancelled
}

package exp

import (
	"context"
	"runtime"
	"testing"

	"asmsim/internal/sim"
	"asmsim/internal/workload"
)

// benchSweepScale is the ≥8-mix accuracy sweep the alone-cache speedup
// target is measured on: a 4-benchmark pool means every benchmark's
// alone run would be re-simulated ~8 times without the cache.
func benchSweepScale() Scale {
	return Scale{
		Workloads:      8,
		WarmupQuanta:   1,
		MeasuredQuanta: 2,
		Quantum:        300_000,
		Epoch:          10_000,
		Seed:           42,
	}
}

// BenchmarkSweepAccuracySharedAlone measures the multi-mix accuracy
// sweep with the shared alone-run curve cache (a fresh cache per
// iteration, as one experiment invocation would see it).
func BenchmarkSweepAccuracySharedAlone(b *testing.B) {
	pool := sweepPool(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSweep(b, pool)
	}
}

// memSweepPool is the memory-intensive pool: the paper's high-MPKI
// benchmarks, whose cores sleep on outstanding misses for most of their
// cycles — the workload class whose long idle stretches the advance loop
// jumps.
func memSweepPool(tb testing.TB) []workload.Spec {
	return specPool(tb, "mcf", "libquantum", "soplex", "milc")
}

// runSweep runs one benchmark sweep over 4-app mixes drawn from pool, on
// a fresh alone cache.
func runSweep(tb testing.TB, pool []workload.Spec) {
	sc := benchSweepScale()
	mixes := workload.RandomMixes(pool, 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	sc.AloneCache = sim.NewAloneCurveCache()
	samples, err := accuracySweep(context.Background(), cfg, mixes, estAll, sc)
	if err != nil {
		tb.Fatal(err)
	}
	if len(samples) == 0 {
		tb.Fatal("sweep produced no samples")
	}
}

// BenchmarkSweepAccuracyMemIntensive measures the accuracy sweep over
// memory-intensive mixes, the workload class whose cores sleep on
// outstanding misses and the advance loop jumps over.
func BenchmarkSweepAccuracyMemIntensive(b *testing.B) {
	pool := memSweepPool(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSweep(b, pool)
	}
}

// TestSweepAccuracyAllocs holds one sweep of each sweep benchmark to an
// object and a byte budget: the highest cost measured over several sweeps
// × 1.15, rounded up. The counters are process-wide and the sweep's
// workers race for the alone curves, so the cost varies by a few percent
// from sweep to sweep. The NewSystem row holds what every accuracy run
// builds before its first cycle — the paper's default 4-core system and
// its slowdown tracker's four alone replicas — to the same kind of
// budget. Tag arrays dominate it: five 2 MB L2s and four full ATSs.
func TestSweepAccuracyAllocs(t *testing.T) {
	sweep := func(pool func(testing.TB) []workload.Spec) func(testing.TB) func() {
		return func(tb testing.TB) func() {
			p := pool(tb)
			return func() { runSweep(tb, p) }
		}
	}
	newSystem := func(tb testing.TB) func() {
		cfg, specs := sim.DefaultConfig(), memSweepPool(tb)
		return func() {
			if _, err := sim.New(cfg, specs); err != nil {
				tb.Fatal(err)
			}
			if _, err := sim.NewSlowdownTrackerShared(cfg, specs, sim.NewAloneCurveCache()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name          string
		work          func(testing.TB) func()
		allocs, bytes uint64
	}{
		{"SharedAlone", sweep(sweepPool), 7171, 7898992},
		{"MemIntensive", sweep(memSweepPool), 7094, 7426691},
		{"NewSystem", newSystem, 539, 3817255},
	} {
		t.Run(c.name, func(t *testing.T) {
			work := c.work(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			work()
			runtime.ReadMemStats(&after)
			allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			if allocs > c.allocs || bytes > c.bytes {
				t.Errorf("%s allocates %d objects, %d B; budget %d objects, %d B",
					c.name, allocs, bytes, c.allocs, c.bytes)
			}
		})
	}
}

// BenchmarkRunAccuracyAllocs tracks the allocation profile of a single
// accuracy run (the quantum-listener path): allocs/op guards the
// estimates-map/samples reuse against regression.
func BenchmarkRunAccuracyAllocs(b *testing.B) {
	sc := Scale{
		Workloads:      1,
		WarmupQuanta:   1,
		MeasuredQuanta: 2,
		Quantum:        200_000,
		Epoch:          10_000,
		Seed:           42,
		AloneCache:     sim.NewAloneCurveCache(),
	}
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	mix := workload.Mix{Names: []string{"bzip2", "h264ref", "gcc", "hmmer"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := RunAccuracy(context.Background(), cfg, mix, estAll, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(samples) == 0 {
			b.Fatal("no samples")
		}
	}
}

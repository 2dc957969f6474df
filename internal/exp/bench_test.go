package exp

import (
	"context"
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
	runSweepBench(b, sweepPool(b))
}

// memSweepPool is the memory-intensive pool: the paper's high-MPKI
// benchmarks, whose cores sleep on outstanding misses for most of their
// cycles — the workload class whose long idle stretches the advance loop
// jumps.
func memSweepPool(b *testing.B) []workload.Spec {
	b.Helper()
	names := []string{"mcf", "libquantum", "soplex", "milc"}
	pool := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, ok := workload.ByName(n)
		if !ok {
			b.Fatalf("unknown benchmark %q", n)
		}
		pool[i] = sp
	}
	return pool
}

// runSweepBench runs the benchmark sweep over 4-app mixes drawn from
// pool, on a fresh alone cache per iteration.
func runSweepBench(b *testing.B, pool []workload.Spec) {
	sc := benchSweepScale()
	mixes := workload.RandomMixes(pool, 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scRun := sc
		scRun.AloneCache = sim.NewAloneCurveCache()
		samples, m, err := accuracySweep(context.Background(), cfg, mixes, estAll, scRun)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Ok() || len(samples) == 0 {
			b.Fatalf("sweep lost items: %s", m.Summary())
		}
	}
}

// BenchmarkSweepAccuracyMemIntensive measures the accuracy sweep over
// memory-intensive mixes, the workload class whose cores sleep on
// outstanding misses and the advance loop jumps over.
func BenchmarkSweepAccuracyMemIntensive(b *testing.B) { runSweepBench(b, memSweepPool(b)) }

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

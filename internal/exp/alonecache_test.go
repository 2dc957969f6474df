package exp

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// sweepPool is a small benchmark pool so multi-mix sweeps reuse
// benchmarks heavily — the redundancy the alone-run curve cache exists
// to eliminate.
func sweepPool(t testing.TB) []workload.Spec {
	return specPool(t, "bzip2", "h264ref", "gcc", "hmmer")
}

// specPool resolves benchmark names to their specs.
func specPool(t testing.TB, names ...string) []workload.Spec {
	t.Helper()
	pool := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %q", n)
		}
		pool[i] = sp
	}
	return pool
}

// TestAccuracySweepSharedAloneBitIdentical: an accuracy sweep with the
// shared alone cache must produce byte-for-byte the same samples as a
// sweep whose every run has a private cache — same Actual bits, same
// estimates, same order.
func TestAccuracySweepSharedAloneBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two multi-mix sweeps")
	}
	sc := Scale{
		Workloads:      3,
		WarmupQuanta:   1,
		MeasuredQuanta: 2,
		Quantum:        150_000,
		Epoch:          10_000,
		Seed:           11,
	}
	mixes := workload.RandomMixes(sweepPool(t), 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64

	run := func(cache *sim.AloneCurveCache) []Sample {
		scRun := sc
		scRun.AloneCache = cache
		samples, err := accuracySweep(context.Background(), cfg, mixes, estAll, scRun)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}

	plain := run(nil)
	cache := sim.NewAloneCurveCache()
	shared := run(cache)

	if len(plain) == 0 || len(plain) != len(shared) {
		t.Fatalf("sample counts differ: %d vs %d", len(plain), len(shared))
	}
	for i := range plain {
		p, s := plain[i], shared[i]
		if p.Bench != s.Bench || p.App != s.App || p.Quantum != s.Quantum || p.Actual != s.Actual {
			t.Fatalf("sample %d differs: %+v vs %+v", i, p, s)
		}
		if len(p.Est) != len(s.Est) {
			t.Fatalf("sample %d estimate sets differ", i)
		}
		for name, v := range p.Est {
			if sv, ok := s.Est[name]; !ok || sv != v {
				t.Fatalf("sample %d estimator %s: %v vs %v", i, name, v, sv)
			}
		}
	}
	// The pool has 4 benchmarks; 3 four-app mixes must share curves.
	if n := cache.Len(); n > len(sweepPool(t)) {
		t.Fatalf("cache holds %d curves for a %d-benchmark pool", n, len(sweepPool(t)))
	}
	if cache.SavedCycles() == 0 {
		t.Fatal("sweep reusing benchmarks saved no alone cycles")
	}
}

// TestFollowedRunsMatchPrivateReplicas: RunAccuracy and RunPolicy follow
// their shared run — each curve is extended on its own goroutine while
// the mix simulates — and must return exactly the same on a sweep-wide
// cache, on one processor and on two, as on a cache private to the run: a
// mix of low-, medium- and high-intensity apps, with the prefetcher and
// on two channels. The two quanta cross one progress hint in mid-quantum.
// (sim's TestSlowdownTrackerSharedEquivalence holds the curves themselves
// to the full-replica oracle.) Run under -race (make race).
func TestFollowedRunsMatchPrivateReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eighteen two-quantum mixes")
	}
	sc := Scale{WarmupQuanta: 1, MeasuredQuanta: 1, Quantum: 140_000, Epoch: 10_000, Seed: 11}
	mix := workload.Mix{Names: []string{"povray", "gcc", "mcf", "libquantum"}}
	variants := map[string]func(*sim.Config){
		"base":     func(*sim.Config) {},
		"prefetch": func(c *sim.Config) { c.Prefetch = true },
		"2ch":      func(c *sim.Config) { c.Channels = 2 },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := sc.BaseConfig()
			cfg.ATSSampledSets = 64
			tweak(&cfg)
			run := func(cache *sim.AloneCurveCache) ([]Sample, PolicyOutcome) {
				scRun := sc
				scRun.AloneCache = cache
				samples, err := RunAccuracy(context.Background(), cfg, mix, estAll, scRun)
				if err != nil {
					t.Fatal(err)
				}
				outcome, err := RunPolicy(context.Background(), cfg, mix, schemeASMCacheMem(), scRun)
				if err != nil {
					t.Fatal(err)
				}
				return samples, outcome
			}
			wantSamples, wantOutcome := run(nil)
			if len(wantSamples) != len(mix.Names) {
				t.Fatalf("%d samples from one measured quantum of %d apps", len(wantSamples), len(mix.Names))
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				cache := sim.NewAloneCurveCache()
				samples, outcome := run(cache)
				if !reflect.DeepEqual(samples, wantSamples) {
					t.Errorf("GOMAXPROCS=%d: followed samples %+v, private cache %+v", procs, samples, wantSamples)
				}
				if !reflect.DeepEqual(outcome, wantOutcome) {
					t.Errorf("GOMAXPROCS=%d: followed outcome %+v, private cache %+v", procs, outcome, wantOutcome)
				}
				if cache.Len() != len(mix.Names) {
					t.Errorf("GOMAXPROCS=%d: %d curves for %d apps", procs, cache.Len(), len(mix.Names))
				}
			}
		})
	}
}

// TestMixRunPrivateAloneCacheReportsMetrics: a ground-truth run with no
// shared cache builds a private one, and that cache reports into the
// run's registry like a shared one: one miss per app.
func TestMixRunPrivateAloneCacheReportsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := sim.DefaultConfig()
	cfg.Quantum = 100_000
	mix := workload.Mix{Names: []string{"mcf", "libquantum"}}
	if _, err := (MixRun{
		Config: cfg, Mix: mix, GroundTruth: true, Measured: 1,
		Telemetry: telemetry.Options{Metrics: reg},
	}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope("sim").Scope("alone_cache").Counter("misses").Value(); got != uint64(len(mix.Names)) {
		t.Fatalf("sim.alone_cache.misses = %d, want %d (one curve per app)", got, len(mix.Names))
	}
}

// TestPrivateAloneCachesSumIntoOneRegistry: two ground-truth runs with
// private caches reporting into one registry leave the sum of what the
// same runs leave in a registry each. The deterministic alone_cache
// series are compared; hits and extensions depend on how the follower
// goroutines interleave with the boundary queries.
func TestPrivateAloneCachesSumIntoOneRegistry(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Quantum = 100_000
	mixes := []workload.Mix{
		{Names: []string{"mcf", "libquantum"}},
		{Names: []string{"h264ref", "mcf"}},
	}
	run := func(reg *telemetry.Registry, mix workload.Mix) {
		t.Helper()
		if _, err := (MixRun{
			Config: cfg, Mix: mix, GroundTruth: true, Measured: 2,
			Telemetry: telemetry.Options{Metrics: reg},
		}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Every series under sim.alone_cache, of whatever kind, but the two
	// timing-dependent ones.
	values := func(reg *telemetry.Registry) map[string]int64 {
		out := map[string]int64{}
		for _, m := range reg.Snapshot() {
			n, ok := strings.CutPrefix(m.Name, "sim.alone_cache.")
			if ok && n != "hits" && n != "extensions" {
				out[n] = m.Value
			}
		}
		return out
	}
	shared := telemetry.NewRegistry()
	want := map[string]int64{}
	for _, mix := range mixes {
		run(shared, mix)
		own := telemetry.NewRegistry()
		run(own, mix)
		for n, v := range values(own) {
			want[n] += v
		}
	}
	got := values(shared)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one registry holds %v, the sum of one registry per run is %v", got, want)
	}
	if want["points"] == 0 || want["segments"] == 0 || want["queried_cycles"] == 0 {
		t.Fatalf("runs recorded no curve growth or queries: %v", want)
	}
}

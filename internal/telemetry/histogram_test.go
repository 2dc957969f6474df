package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(7)
	h.Observe(time.Second)
	h.Start()()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("nil histogram is not a no-op")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bounds must tile the value space without gaps.
	next := uint64(0)
	for i := 0; i < histBuckets; i++ {
		low, width := histBucketBounds(i)
		if low != next {
			t.Fatalf("bucket %d: low %d, want %d (gap or overlap)", i, low, next)
		}
		if histBucket(low) != i {
			t.Fatalf("bucket %d: low %d maps to bucket %d", i, low, histBucket(low))
		}
		if last := low + width - 1; histBucket(last) != i {
			t.Fatalf("bucket %d: last value %d maps to bucket %d", i, last, histBucket(last))
		}
		next = low + width
		if next == 0 { // wrapped past max uint64
			if i != histBuckets-1 {
				t.Fatalf("value space exhausted at bucket %d of %d", i, histBuckets)
			}
			break
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum %d, want 5050", h.Sum())
	}
	if h.Max() != 100 {
		t.Fatalf("max %d, want 100", h.Max())
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 %d, want 100", got)
	}
	if got := h.Quantile(0); got < 1 || got > 2 {
		t.Fatalf("p0 %d, want ~1", got)
	}
}

// TestHistogramQuantileAccuracy is the property test: against a
// sorted-slice oracle over several value distributions, every estimated
// quantile must be within the bucketing scheme's relative-error bound.
func TestHistogramQuantileAccuracy(t *testing.T) {
	const tolerance = 0.08 // bucket width 1/16, midpoint estimate + rank effects
	distributions := map[string]func(r *rand.Rand) uint64{
		"uniform":   func(r *rand.Rand) uint64 { return uint64(r.Int63n(1_000_000)) },
		"exp":       func(r *rand.Rand) uint64 { return uint64(r.ExpFloat64() * 50_000) },
		"lognormal": func(r *rand.Rand) uint64 { return uint64(1000 * (1 + r.Float64()*r.Float64()*1e6)) },
		"bimodal": func(r *rand.Rand) uint64 {
			if r.Intn(10) == 0 {
				return uint64(5_000_000 + r.Int63n(100_000))
			}
			return uint64(10_000 + r.Int63n(1_000))
		},
		"small": func(r *rand.Rand) uint64 { return uint64(r.Int63n(12)) },
	}
	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			h := &Histogram{}
			vals := make([]uint64, 0, 20_000)
			for i := 0; i < 20_000; i++ {
				v := gen(r)
				h.Record(v)
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			snap := h.Snapshot()
			for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				rank := int(q * float64(len(vals)))
				if rank >= len(vals) {
					rank = len(vals) - 1
				}
				want := vals[rank]
				got := snap.Quantile(q)
				diff := float64(got) - float64(want)
				if diff < 0 {
					diff = -diff
				}
				// Relative tolerance with a small absolute floor for the
				// exact unit buckets.
				bound := tolerance * float64(want)
				if bound < 2 {
					bound = 2
				}
				if diff > bound {
					t.Errorf("q%.3f: estimated %d, oracle %d (err %.1f%%, bound %.1f%%)",
						q, got, want, 100*diff/float64(want+1), 100*tolerance)
				}
			}
		})
	}
}

// TestHistogramConcurrency hammers one histogram from many goroutines
// (run under -race by make race) and checks nothing is lost: the final
// count and sum must equal the injected totals exactly.
func TestHistogramConcurrency(t *testing.T) {
	h := &Histogram{}
	const (
		goroutines = 8
		perG       = 50_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Record(uint64(r.Int63n(1 << 40)))
			}
		}(g)
	}
	// Concurrent snapshots must be internally safe too.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s := h.Snapshot()
				_ = s.Quantile(0.99)
			}
		}
	}()
	wg.Wait()
	close(done)
	if h.Count() != goroutines*perG {
		t.Fatalf("count %d, want %d", h.Count(), goroutines*perG)
	}
	var inBuckets uint64
	s := h.Snapshot()
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", inBuckets, s.Count)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("serve").Histogram("job_latency_ns")
	if h != r.Scope("serve").Histogram("job_latency_ns") {
		t.Fatal("histogram handles not shared by name")
	}
	for v := uint64(0); v < 1000; v++ {
		h.Record(v)
	}
	var m *Metric
	for _, s := range r.Snapshot() {
		if s.Name == "serve.job_latency_ns" {
			m = &s
			break
		}
	}
	if m == nil {
		t.Fatal("histogram missing from registry snapshot")
	}
	if m.Kind != "histogram" || m.Value != 1000 || m.MaxNs != 999 {
		t.Fatalf("snapshot metric %+v", m)
	}
	if m.P50Ns < 450 || m.P50Ns > 550 || m.P99Ns < 920 || m.P999Ns > 999 {
		t.Fatalf("quantiles off: %+v", m)
	}
	var nilReg *Registry
	if nilReg.Histogram("x") != nil {
		t.Fatal("nil registry handed out a histogram")
	}
}

// BenchmarkHistogramRecord is the zero-alloc guard for the record path,
// mirroring the no-subscriber SSE guard: a histogram record must not
// allocate, ever — it sits on the job service's per-quantum and
// journal-append paths.
func BenchmarkHistogramRecord(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(1)
		for pb.Next() {
			h.Record(v)
			v = v*2862933555777941757 + 3037000493 // cheap LCG spread
		}
	})
	if a := testing.AllocsPerRun(1000, func() { h.Record(123456) }); a != 0 {
		b.Fatalf("Record allocates %v bytes/op, want 0", a)
	}
}

// TestSnapshotHistograms: the registry hands back every histogram's
// bucketed state by full dotted name, nil-safely.
func TestSnapshotHistograms(t *testing.T) {
	var nilReg *Registry
	if got := nilReg.SnapshotHistograms(); got != nil {
		t.Errorf("nil registry SnapshotHistograms = %v", got)
	}
	r := NewRegistry()
	r.Scope("serve").Histogram("job_latency_ns").Record(1234)
	r.Histogram("other").Record(5)
	m := r.SnapshotHistograms()
	if len(m) != 2 {
		t.Fatalf("got %d histograms, want 2", len(m))
	}
	s, ok := m["serve.job_latency_ns"]
	if !ok || s.Count != 1 || s.Sum != 1234 {
		t.Errorf("serve.job_latency_ns snapshot = %+v (present %v)", s, ok)
	}
}

package sim

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asmsim/internal/dash"
	"asmsim/internal/evtrace"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// benchSystem builds a 4-core contended system.
func benchSystem(b testing.TB, prefetch bool) *System {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	cfg.Prefetch = prefetch
	var specs []workload.Spec
	for _, n := range []string{"mcf", "libquantum", "bzip2", "h264ref"} {
		s, ok := workload.ByName(n)
		if !ok {
			b.Fatal(n)
		}
		specs = append(specs, s)
	}
	sys, err := New(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchSystem8 builds the policy sweeps' 8-core shape — two low-, three
// medium- and three high-intensity apps, epochs off — under the given
// memory scheduler.
func benchSystem8(b testing.TB, policy Policy) *System {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Quantum = 100_000
	cfg.EpochPriority = false
	cfg.Epoch = 0
	cfg.Policy = policy
	var specs []workload.Spec
	for _, n := range []string{"povray", "h264ref", "gcc", "bzip2", "astar", "mcf", "libquantum", "lbm"} {
		s, ok := workload.ByName(n)
		if !ok {
			b.Fatal(n)
		}
		specs = append(specs, s)
	}
	sys, err := New(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkRunQuanta measures whole-quantum simulation cost for the
// default 4-core contended system — the guard benchmark for telemetry's
// disabled-path overhead (<2% regression allowed).
func BenchmarkRunQuanta(b *testing.B) {
	sys := benchSystem(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunQuanta(1)
	}
	b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// heapCost returns the heap objects and bytes one call of f allocates,
// averaged over runs calls on one P, as testing.AllocsPerRun counts
// objects. The counters are process-wide, so goroutines f hands work to
// (the dashboard's SSE writer) are charged too.
func heapCost(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRunQuantaSteadyStateAllocs holds one quantum of each bench system,
// once its free lists, MSHR waiter lists and queues have grown to size
// (four warm-up quanta), to an object and a byte budget: the measured
// cost × 1.15, rounded up. What remains bare is per quantum and per core
// (the ATS position-hit snapshots), not per miss, per PARBS batch or per
// TCM clustering — a 100 k-cycle quantum of the 4-core mix used to
// allocate ~9,000 objects. The observed rows are the per-sink overhead
// table of BenchmarkRunQuantaObserved. A dashboard's SSE client reads
// every frame published before the window and within it before the
// window closes, so the window holds exactly its own quanta's frames.
func TestRunQuantaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random, so pooled sinks allocate more")
	}
	observed := func(set string) func(testing.TB) (*System, func()) {
		return func(tb testing.TB) (*System, func()) { return observedSystem(tb, set) }
	}
	unobserved := func(build func(testing.TB) *System) func(testing.TB) (*System, func()) {
		return func(tb testing.TB) (*System, func()) { return build(tb), func() {} }
	}
	for _, c := range []struct {
		name          string
		sys           func(testing.TB) (*System, func())
		allocs, bytes uint64
	}{
		{"4-core FRFCFS", unobserved(func(tb testing.TB) *System { return benchSystem(tb, false) }), 6, 700},
		{"8-core FRFCFS", unobserved(func(tb testing.TB) *System { return benchSystem8(tb, PolicyFRFCFS) }), 14, 1331},
		{"8-core PARBS", unobserved(func(tb testing.TB) *System { return benchSystem8(tb, PolicyPARBS) }), 14, 1417},
		{"8-core TCM", unobserved(func(tb testing.TB) *System { return benchSystem8(tb, PolicyTCM) }), 13, 1313},
		{"observed/bare", observed("bare"), 13, 2705},
		{"observed/trace", observed("trace"), 976, 78856},
		{"observed/dash", observed("dash"), 69, 13015},
		{"observed/slo", observed("slo"), 27, 5355},
		{"observed/recorder", observed("recorder"), 41, 5686},
		{"observed/all", observed("all"), 1033, 90047},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, settle := c.sys(t)
			sys.RunQuanta(4)
			settle()
			allocs, bytes := heapCost(3, func() {
				sys.RunQuanta(1)
				settle()
			})
			if allocs > c.allocs || bytes > c.bytes {
				t.Errorf("a steady-state quantum allocates %d objects, %d B; budget %d objects, %d B",
					allocs, bytes, c.allocs, c.bytes)
			}
		})
	}
}

// BenchmarkRunQuanta8Core is BenchmarkRunQuanta on the 8-core policy-sweep
// shape under each memory scheduler, timed after three warm-up quanta so
// allocs/op is the steady-state cost rather than free-list growth averaged
// over b.N. skipped-cycles/op is simulated, not measured: the cycles the
// advance loop jumps (no event, no contact; cores run their own cycles
// ahead), which at a fixed -benchtime=Nx repeats exactly.
func BenchmarkRunQuanta8Core(b *testing.B) {
	for _, policy := range []Policy{PolicyFRFCFS, PolicyPARBS, PolicyTCM} {
		b.Run(strings.ToUpper(string(policy)), func(b *testing.B) {
			sys := benchSystem8(b, policy)
			sys.RunQuanta(3)
			skipped := sys.SkipCycles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunQuanta(1)
			}
			b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
			b.ReportMetric(float64(sys.SkipCycles()-skipped)/float64(b.N), "skipped-cycles/op")
		})
	}
}

// observedSets names the observer subsets of the per-sink overhead table:
// no sink, each sink alone, and all of them.
var observedSets = []string{"bare", "trace", "dash", "slo", "recorder", "all"}

// sinks attaches each observer the overhead table measures to o, returning
// the recorder it adds (nil for none): an event tracer (1-in-64 spans +
// exact attribution), the dashboard with one SSE client draining the
// stream and counting the frames it has read into read, an SLO engine
// with a qos and an accuracy objective, and a JSONL recorder plus
// metrics registry.
var sinks = map[string]func(tb testing.TB, o *telemetry.Options, read *atomic.Int64) telemetry.Recorder{
	"trace": func(_ testing.TB, o *telemetry.Options, _ *atomic.Int64) telemetry.Recorder {
		o.Trace = evtrace.New(io.Discard, evtrace.Config{SampleEvery: 64})
		return nil
	},
	"dash": func(tb testing.TB, o *telemetry.Options, read *atomic.Int64) telemetry.Recorder {
		srv := dash.NewServer()
		mux := http.NewServeMux()
		srv.Mount(mux)
		ts := httptest.NewServer(mux)
		resp, err := http.Get(ts.URL + "/debug/asm/quanta")
		if err != nil {
			tb.Fatal(err)
		}
		go func() {
			r := bufio.NewReader(resp.Body)
			for lineStart := true; ; {
				line, err := r.ReadSlice('\n')
				if lineStart && bytes.HasPrefix(line, []byte("event: ")) {
					read.Add(1)
				}
				if err != nil && err != bufio.ErrBufferFull {
					return
				}
				lineStart = err == nil
			}
		}()
		tb.Cleanup(func() {
			srv.Close()
			resp.Body.Close()
			ts.Close()
		})
		o.Attribution = srv.ObserveAttribution
		return srv
	},
	"slo": func(tb testing.TB, o *telemetry.Options, _ *atomic.Int64) telemetry.Recorder {
		spec, err := slo.Parse([]byte(`{"slos":[
			{"name":"qos","signal":"qos","bound":3},
			{"name":"drift","signal":"accuracy"}]}`))
		if err != nil {
			tb.Fatal(err)
		}
		return slo.New(spec, slo.Sinks{})
	},
	"recorder": func(_ testing.TB, o *telemetry.Options, _ *atomic.Int64) telemetry.Recorder {
		o.Metrics = telemetry.NewRegistry()
		return telemetry.NewJSONLRecorder(io.Discard)
	},
}

// observedSystem is the contended 4-core bench system with the observer
// subset set (one of observedSets) attached at the one attach point —
// System.Observe plus EmitRecords at every quantum boundary. The
// slowdowns handed to the records are a fixed stand-in ground truth, so
// the SLO engine evaluates every record. settle waits until the
// dashboard's SSE client, if set has one, has read every frame published
// so far: one per app and quantum run.
func observedSystem(tb testing.TB, set string) (sys *System, settle func()) {
	var o telemetry.Options
	var recs []telemetry.Recorder
	var read atomic.Int64
	for sink, attach := range sinks {
		if set == sink || set == "all" {
			recs = append(recs, attach(tb, &o, &read))
		}
	}
	o.Recorder = telemetry.Fanout(recs...)
	sys = benchSystem(tb, false)
	sys.Observe(o)
	actual := []float64{1.2, 1.4, 1.6, 1.8}
	est := map[string][]float64{"ASM": actual}
	benches := sys.Names()
	var published int64
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		EmitRecords(o.Recorder, telemetry.QuantumRecord{Mix: "bench"}, benches, st, actual, est)
		published += int64(len(benches))
	})
	if set != "dash" && set != "all" {
		return sys, func() {}
	}
	return sys, func() {
		for deadline := time.Now().Add(10 * time.Second); read.Load() < published; {
			if time.Now().After(deadline) {
				tb.Fatalf("the SSE client read %d of %d frames", read.Load(), published)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// BenchmarkRunQuantaObserved is the per-sink overhead table: the
// contended 4-core quantum with each observer subset of observedSets,
// timed after three warm-up quanta. TestRunQuantaSteadyStateAllocs holds
// each row's allocations to a budget.
func BenchmarkRunQuantaObserved(b *testing.B) {
	for _, name := range observedSets {
		b.Run(name, func(b *testing.B) {
			sys, _ := observedSystem(b, name)
			sys.RunQuanta(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunQuanta(1)
			}
			b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
		})
	}
}

// BenchmarkAloneCurveExtend measures building a cached ground-truth curve:
// one op extends a fresh curve to 1 M instructions on its lean replica
// (replica construction is untimed). povray is the compute-bound extreme
// (long runs, almost nothing stored), gcc the medium intensity most mixes
// are made of (L1 MPKI ≈ 33), mcf the memory-bound one (short runs, long
// jumps between them). ns/instr is the host cost per replica instruction;
// TestAloneCurveExtendAllocs holds one op's allocations to a budget.
func BenchmarkAloneCurveExtend(b *testing.B) {
	const instrs = 1_000_000
	for _, name := range []string{"povray", "gcc", "mcf"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var segs int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cv := freshCurve(b, name)
				b.StartTimer()
				cv.cyclesAt(instrs)
				segs = cv.segments()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/instrs, "ns/instr")
			b.ReportMetric(float64(segs), "segs/op")
		})
	}
}

// TestAloneCurveExtendAllocs holds one BenchmarkAloneCurveExtend op —
// extending a fresh curve to 1 M instructions, single-threaded and
// seed-fixed — to an object and a byte budget (at most the measured cost
// × 1.15, rounded up), and a lookup on the built curve to none. The segments the
// extension stores are pinned exactly by TestAloneCurveGolden.
func TestAloneCurveExtendAllocs(t *testing.T) {
	const instrs = 1_000_000
	for _, c := range []struct {
		name          string
		allocs, bytes uint64
	}{
		{"povray", 110, 21216},
		{"gcc", 138, 190836},
		{"mcf", 209, 1467244},
	} {
		t.Run(c.name, func(t *testing.T) {
			cv := freshCurve(t, c.name)
			allocs, bytes := heapCost(1, func() { cv.cyclesAt(instrs) })
			if allocs > c.allocs || bytes > c.bytes {
				t.Errorf("extending to %d instructions allocates %d objects, %d B; budget %d objects, %d B",
					instrs, allocs, bytes, c.allocs, c.bytes)
			}
			n := uint64(1)
			if allocs, _ := heapCost(100, func() {
				cv.cyclesAt(n)
				n = (n+611_953)%instrs + 1
			}); allocs != 0 {
				t.Errorf("a lookup on the built curve allocates %d objects", allocs)
			}
		})
	}
}

var benchSink uint64

// BenchmarkAloneCurveLookup measures the cache-hit path — read lock,
// binary search over the checkpoints, a decode of at most markEvery
// segments, position inside the run — on a
// 1 M-instruction gcc curve (a few thousand segments), striding through
// the milestones so successive searches take different branches.
func BenchmarkAloneCurveLookup(b *testing.B) {
	const instrs = 1_000_000
	cv := freshCurve(b, "gcc")
	cv.cyclesAt(instrs)
	b.ReportAllocs()
	b.ResetTimer()
	n := uint64(1)
	for i := 0; i < b.N; i++ {
		cyc, _ := cv.cyclesAt(n)
		benchSink += cyc
		n = (n+611_953)%instrs + 1
	}
}

// BenchmarkGeneratorNext measures instruction synthesis cost.
func BenchmarkGeneratorNext(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	g := workload.NewGenerator(spec, 0, 1)
	var in workload.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}

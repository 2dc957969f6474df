package sim

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
// disabled-path overhead (<2% regression allowed). It also holds the miss
// path to its allocation budget (see steadyStateAllocs).
func BenchmarkRunQuanta(b *testing.B) {
	sys := benchSystem(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunQuanta(1)
	}
	b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
	b.StopTimer()
	if a := steadyStateAllocs(sys); a > maxQuantumAllocs {
		b.Fatalf("a steady-state quantum allocates %v objects, budget %d", a, maxQuantumAllocs)
	}
}

// steadyStateAllocs returns the heap allocations one quantum of sys costs
// once its free lists, MSHR waiter lists and queues have grown to size.
func steadyStateAllocs(sys *System) float64 {
	sys.RunQuanta(3)
	return testing.AllocsPerRun(3, func() { sys.RunQuanta(1) })
}

// maxQuantumAllocs bounds steadyStateAllocs for the bench systems: what
// remains is per quantum and per core (the ATS position-hit snapshots), not
// per miss, per PARBS batch or per TCM clustering — a 100 k-cycle quantum
// of the 4-core mix used to allocate ~9,000 objects, and an 8-core PARBS
// one several objects per batch on top.
const maxQuantumAllocs = 16

func TestRunQuantaSteadyStateAllocs(t *testing.T) {
	systems := map[string]*System{
		"4-core FRFCFS": benchSystem(t, false),
		"8-core PARBS":  benchSystem8(t, PolicyPARBS),
		"8-core TCM":    benchSystem8(t, PolicyTCM),
	}
	for name, sys := range systems {
		if a := steadyStateAllocs(sys); a > maxQuantumAllocs {
			t.Errorf("%s: a steady-state quantum allocates %v objects, budget %d", name, a, maxQuantumAllocs)
		}
	}
}

// BenchmarkRunQuanta8Core is BenchmarkRunQuanta on the 8-core policy-sweep
// shape under each memory scheduler, timed after three warm-up quanta so
// allocs/op is the steady-state budget rather than free-list growth
// averaged over b.N. skipped-cycles/op is simulated, not measured: the
// cycles the advance loop jumps (no event, no contact; cores run their own
// cycles ahead), which at a fixed -benchtime=Nx repeats exactly.
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

// BenchmarkRunQuantaObserved is the per-sink overhead table at the one
// observer attach point (System.Observe plus EmitRecords at every quantum
// boundary): the contended 4-core quantum bare, then with each sink alone
// and with all of them — an event tracer (1-in-64 spans + exact
// attribution), the dashboard with one SSE client draining the stream, an
// SLO engine with a qos and an accuracy objective, and a JSONL recorder
// plus metrics registry. The slowdowns handed to the records are a fixed
// stand-in ground truth, so the SLO engine evaluates every record. Timed
// after three warm-up quanta: allocs/op is the steady-state cost of the
// sinks, not free-list growth.
func BenchmarkRunQuantaObserved(b *testing.B) {
	spec, err := slo.Parse([]byte(`{"slos":[
		{"name":"qos","signal":"qos","bound":3},
		{"name":"drift","signal":"accuracy"}]}`))
	if err != nil {
		b.Fatal(err)
	}
	sinks := map[string]func(b *testing.B, o *telemetry.Options) telemetry.Recorder{
		"trace": func(_ *testing.B, o *telemetry.Options) telemetry.Recorder {
			o.Trace = evtrace.New(io.Discard, evtrace.Config{SampleEvery: 64})
			return nil
		},
		"dash": func(b *testing.B, o *telemetry.Options) telemetry.Recorder {
			srv := dash.NewServer()
			mux := http.NewServeMux()
			srv.Mount(mux)
			ts := httptest.NewServer(mux)
			resp, err := http.Get(ts.URL + "/debug/asm/quanta")
			if err != nil {
				b.Fatal(err)
			}
			go io.Copy(io.Discard, resp.Body)
			b.Cleanup(func() {
				srv.Close()
				resp.Body.Close()
				ts.Close()
			})
			o.Attribution = srv.ObserveAttribution
			return srv
		},
		"slo": func(_ *testing.B, o *telemetry.Options) telemetry.Recorder {
			return slo.New(spec, slo.Sinks{})
		},
		"recorder": func(_ *testing.B, o *telemetry.Options) telemetry.Recorder {
			o.Metrics = telemetry.NewRegistry()
			return telemetry.NewJSONLRecorder(io.Discard)
		},
	}
	for _, name := range []string{"bare", "trace", "dash", "slo", "recorder", "all"} {
		b.Run(name, func(b *testing.B) {
			var o telemetry.Options
			var recs []telemetry.Recorder
			for sink, attach := range sinks {
				if name == sink || name == "all" {
					recs = append(recs, attach(b, &o))
				}
			}
			o.Recorder = telemetry.Fanout(recs...)
			sys := benchSystem(b, false)
			sys.Observe(o)
			actual := []float64{1.2, 1.4, 1.6, 1.8}
			est := map[string][]float64{"ASM": actual}
			benches := sys.Names()
			sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
				EmitRecords(o.Recorder, telemetry.QuantumRecord{Mix: "bench"}, benches, st, actual, est)
			})
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
// jumps between them). The work is single-threaded and seed-fixed, so
// B/op, allocs/op and segs/op repeat exactly and benchdiff gates on them
// hard; ns/instr is the host cost per replica instruction.
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
				segs = len(cv.segs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/instrs, "ns/instr")
			b.ReportMetric(float64(segs), "segs/op")
		})
	}
}

var benchSink uint64

// BenchmarkAloneCurveLookup measures the cache-hit path — read lock,
// binary search over the segments, position inside the run — on a
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

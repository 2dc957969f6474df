package asmsim_test

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"asmsim"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
)

// Observer subsets for checkObserversDoNotPerturb: each bit attaches one
// sink at the run's single attach point, telemetry.Options.
const (
	withTrace = 1 << iota
	withDash
	withSLO
	withRecorder
	allObservers
)

// observerRunOptions is the short two-app run every subset is held to.
var observerRunOptions = asmsim.RunOptions{WarmupQuanta: 1, Quanta: 3, GroundTruth: true}

var observerApps = []string{"mcf", "libquantum"}

// TestObserversDoNotPerturbResults is the observability layer's core
// guarantee at its one attach point: a run observed through any subset
// of {trace file, dashboard with a live SSE client, SLO engine whose
// tight bound fires, JSONL recorder + metrics registry} must produce
// results reflect.DeepEqual to the bare run. The simulation is
// deterministic, so any divergence means an observer leaked into the
// simulated machine. Each subset also proves its sinks did their work,
// so the equality never holds vacuously.
func TestObserversDoNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run integration test")
	}
	bare := bareObserverRun(t)
	for set := 1; set < allObservers; set++ {
		var parts []string
		for bit, name := range []string{"trace", "dash", "slo", "recorder"} {
			if set&(1<<bit) != 0 {
				parts = append(parts, name)
			}
		}
		t.Run(strings.Join(parts, "+"), func(t *testing.T) {
			checkObserversDoNotPerturb(t, bare, set)
		})
	}
}

// TestDashboardDoesNotPerturbResults holds the dashboard alone — registry
// wired, a live SSE client consuming the quantum stream, attribution
// observed every quantum — to the bare run.
func TestDashboardDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run integration test")
	}
	checkObserversDoNotPerturb(t, bareObserverRun(t), withDash|withRecorder)
}

// TestSLOEvaluationDoesNotPerturbResults holds the SLO engine with every
// alert sink attached — registry, log, flight recorder dumping to disk,
// trace instants, transition callbacks — to the bare run, with a bound
// tight enough that alerts fire mid-run.
func TestSLOEvaluationDoesNotPerturbResults(t *testing.T) {
	checkObserversDoNotPerturb(t, bareObserverRun(t), withTrace|withSLO|withRecorder)
}

func bareObserverRun(t *testing.T) *asmsim.RunResult {
	t.Helper()
	bare, err := asmsim.Run(sloTestConfig(), observerApps, observerRunOptions)
	if err != nil {
		t.Fatal(err)
	}
	return bare
}

// checkObserversDoNotPerturb runs the fixture with the observers in set
// attached, requires the result to equal bare, and checks that every
// attached sink saw the run.
func checkObserversDoNotPerturb(t *testing.T, bare *asmsim.RunResult, set int) {
	t.Helper()
	cfg := sloTestConfig()
	names := observerApps
	opt := observerRunOptions
	records := (opt.WarmupQuanta + opt.Quanta) * len(names)
	spec := mustSpec(t, `{"slos":[
		{"name":"qos-tight","signal":"qos","bound":1.2,
		 "windows":[{"long":6,"short":2,"burn":2}],
		 "pending_ticks":1,"resolve_ticks":2},
		{"name":"asm-acc","signal":"accuracy"}
	]}`)
	var tel asmsim.TelemetryOptions
	var recs []asmsim.QuantumRecorder
	var checks []func()

	var traceBuf bytes.Buffer
	if set&withTrace != 0 {
		tel.Trace = asmsim.NewTracer(&traceBuf, asmsim.TracerConfig{SampleEvery: 16})
		checks = append(checks, func() {
			if err := tel.Trace.Close(); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(traceBuf.String(), `"attribution"`) {
				t.Errorf("trace holds no attribution events (%d bytes)", traceBuf.Len())
			}
		})
	}
	if set&withRecorder != 0 {
		var jsonl bytes.Buffer
		rec := telemetry.NewJSONLRecorder(&jsonl)
		recs = append(recs, rec)
		tel.Metrics = asmsim.NewTelemetryRegistry()
		checks = append(checks, func() {
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(jsonl.String(), "\n"); n != records {
				t.Errorf("recorder wrote %d records, want %d", n, records)
			}
			if q := tel.Metrics.Scope("sim").Counter("quanta").Value(); q == 0 {
				t.Error("registry counted no simulated quanta")
			}
		})
	}
	var srv *asmsim.DashServer
	if set&withDash != 0 {
		srv = asmsim.NewDashServer()
		defer srv.Close()
		mux := http.NewServeMux()
		srv.Mount(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		// A live SSE client consuming the quantum stream for the
		// whole run.
		resp, err := http.Get(ts.URL + "/debug/asm/quanta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var wg sync.WaitGroup
		frames := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if sc.Text() == "event: quantum" {
					frames++
				}
			}
		}()
		recs = append(recs, srv)
		tel.Attribution = srv.ObserveAttribution
		checks = append(checks, func() {
			srv.Close() // ends the SSE stream so the reader exits
			wg.Wait()
			if frames != records {
				t.Errorf("SSE client saw %d quantum frames, want %d", frames, records)
			}
			ar, err := http.Get(ts.URL + "/debug/asm/attribution")
			if err != nil {
				t.Fatal(err)
			}
			defer ar.Body.Close()
			body, _ := io.ReadAll(ar.Body)
			if !strings.Contains(string(body), `"present": true`) {
				t.Errorf("attribution endpoint empty after the run: %s", body)
			}
		})
	}
	if set&withSLO != 0 {
		flight := telemetry.NewFlightRecorder(64, t.TempDir())
		eng := asmsim.NewSLOEngine(spec, asmsim.SLOSinks{
			Metrics:      tel.Metrics,
			Log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
			Flight:       flight,
			Trace:        tel.Trace,
			OnTransition: srv.PublishAlert,
		})
		recs = append(recs, flight, eng)
		checks = append(checks, func() {
			for _, tr := range eng.Alerts()[0].Transitions {
				if tr.To == slo.Firing {
					return
				}
			}
			t.Errorf("qos-tight never fired; transitions %+v", eng.Alerts()[0].Transitions)
		})
	}
	tel.Recorder = asmsim.FanoutRecorders(recs...)

	o := opt
	o.Telemetry = tel
	observed, err := asmsim.Run(cfg, names, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("observers perturbed the run:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
	for _, check := range checks {
		check()
	}
}

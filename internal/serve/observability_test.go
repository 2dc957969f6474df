package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"asmsim/internal/exp"
	"asmsim/internal/telemetry"
)

// promSampleRe matches one exposition sample line: name, optional label
// set, value, optional timestamp.
var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+( [0-9]+)?$`)

// checkExposition validates a Prometheus text-format payload line by
// line — well-formed TYPE lines with known types, no duplicate TYPE,
// every sample matching the grammar — and returns the set of sample
// names seen (labels stripped).
func checkExposition(body string) (map[string]bool, error) {
	names := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return nil, fmt.Errorf("malformed TYPE line %q", line)
			}
			if typed[f[2]] {
				return nil, fmt.Errorf("duplicate TYPE for %s", f[2])
			}
			switch f[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return nil, fmt.Errorf("unknown type %q in %q", f[3], line)
			}
			typed[f[2]] = true
		case strings.HasPrefix(line, "#"):
		default:
			if !promSampleRe.MatchString(line) {
				return nil, fmt.Errorf("malformed sample line %q", line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			names[name] = true
		}
	}
	return names, nil
}

// scrape GETs url and returns the body; any failure is an error, so it
// is safe from helper goroutines (where t.Fatal is off-limits).
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b), nil
}

// TestMetricsEndpointExposition: after one job, /metrics serves a
// strictly parseable exposition carrying the service's core series and
// the sweep's one item series, with the rule-mapped labels in place.
func TestMetricsEndpointExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Options{Metrics: reg})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	st, err := s.Submit(tinySpec(111))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(b)
	names, err := checkExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"serve_submitted_total",
		"serve_jobs_finished_total",
		"serve_queued",
		"serve_running",
		"serve_job_latency_ns",
		"serve_job_latency_ns_count",
		"serve_job_latency_ns_sum",
		"serve_job_latency_ns_max",
		"serve_queue_wait_ns_count",
		"serve_attempt_ns_count",
		"exp_item_ns_count",
	} {
		if !names[want] {
			t.Errorf("required series %s missing from /metrics", want)
		}
	}
	for _, want := range []string{
		`serve_jobs_finished_total{state="done"} 1`,
		`serve_job_latency_ns{quantile="0.5"}`,
		`exp_item_ns{quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Sweep items share one series: no per-mix sample may grow /metrics
	// with every new mix a job runs.
	if strings.Contains(body, `exp_item_ns{item=`) {
		t.Errorf("exposition carries per-mix exp_item_ns samples\n%s", body)
	}
}

// TestMetricsDoNotPerturbResults is the observer-effect guard: a job
// run while /metrics is scraped in a tight loop and the flight recorder
// is armed (with an on-disk dump dir) produces a result DeepEqual to
// the same job on a bare server with no registry, no scrapes, and no
// state directory.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	spec := mediumSpec(121)

	bare := newTestServer(t, Options{})
	bst, err := bare.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, bare, bst.ID); fin.State != StateDone {
		t.Fatalf("bare run: %+v", fin)
	}
	want, err := bare.Result(bst.ID)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	stateDir := t.TempDir()
	obs := newTestServer(t, Options{Metrics: reg, StateDir: stateDir,
		Flight: telemetry.NewFlightRecorder(0, filepath.Join(stateDir, "flightrec"))})
	mux := http.NewServeMux()
	obs.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body, err := scrape(srv.URL + "/metrics")
			if err == nil {
				_, err = checkExposition(body)
			}
			if err == nil {
				_, err = scrape(srv.URL + "/api/debug/flightrecord")
			}
			if err != nil {
				t.Errorf("mid-run scrape: %v", err)
				return
			}
		}
	}()

	ost, err := obs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, obs, ost.ID); fin.State != StateDone {
		t.Fatalf("observed run: %+v", fin)
	}
	got, err := obs.Result(ost.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if !reflect.DeepEqual(got, want) {
		t.Fatal("observed run's result differs from the bare run — metrics perturbed the simulation")
	}
}

// TestReadyzFlipsDuringDrain: /readyz reports ready on a healthy server
// and flips to 503 with the admissions check naming the drain once
// Shutdown begins.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, StateDir: t.TempDir(), DrainTimeout: 200 * time.Millisecond})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	getReadyz := func() (int, Readiness) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd Readiness
		json.NewDecoder(resp.Body).Decode(&rd)
		return resp.StatusCode, rd
	}
	code, rd := getReadyz()
	if code != http.StatusOK || !rd.Ready {
		t.Fatalf("fresh server readyz = %d %+v", code, rd)
	}
	for name, v := range rd.Checks {
		if !strings.HasPrefix(v, "ok") {
			t.Fatalf("fresh server check %s = %q", name, v)
		}
	}

	st, err := s.Submit(slowSpec(131))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, rd = getReadyz()
		if code == http.StatusServiceUnavailable && rd.Checks["admissions"] == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never flipped during drain: %d %+v", code, rd)
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-drained
}

// TestShedResponseBody: 429 (queue full) and 503 (draining) responses
// carry the queue occupancy in their JSON body so clients can size
// their backoff.
func TestShedResponseBody(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(spec any) (*http.Response, apiError) {
		t.Helper()
		b, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body apiError
		json.NewDecoder(resp.Body).Decode(&body)
		return resp, body
	}
	resp, _ := post(slowSpec(141))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	running := s.Jobs()[0]
	waitState(t, s, running.ID, StateRunning)
	if resp, _ = post(slowSpec(142)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, body := post(slowSpec(143))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit = %d, want 429", resp.StatusCode)
	}
	if body.Error == "" || body.Queued != 1 || body.QueueDepth != 1 {
		t.Fatalf("429 body %+v, want queued=1 queue_depth=1 and an error", body)
	}

	for _, j := range s.Jobs() {
		s.Cancel(j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	resp, body = post(slowSpec(144))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain submit = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body.Error, "draining") || body.QueueDepth != 1 {
		t.Fatalf("503 body %+v", body)
	}
}

// TestFlightRecorder covers the recorder end to end: the ring holds the
// job's whole lifecycle as soon as Wait returns, a run that panics
// fails its job and dumps automatically without wedging the server, the
// debug endpoint serves the ring with trace IDs, and ?save=1 persists a
// dump on demand.
func TestFlightRecorder(t *testing.T) {
	stateDir := t.TempDir()
	flight := telemetry.NewFlightRecorder(0, filepath.Join(stateDir, "flightrec"))
	s := newTestServer(t, Options{
		StateDir: stateDir,
		Flight:   flight,
	})
	countRuns(s, func(spec exp.JobSpec, ctx context.Context, tune ...func(*exp.Scale)) (*exp.Table, error) {
		if spec.Seed == 151 {
			panic("table assembly blew up")
		}
		return exp.JobSpec.Run(spec, ctx, tune...)
	})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	st, err := s.Submit(tinySpec(151))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	// Read the ring at once: the terminal note lands before Wait returns.
	kinds := map[string]bool{}
	for _, ev := range flight.Events() {
		kinds[ev.Kind] = true
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "panicked") {
		t.Fatalf("panicking job finished %+v", fin)
	}
	for _, want := range []string{"submitted", "started", "panic", "finished"} {
		if !kinds[want] {
			t.Fatalf("flight ring missing %q events after Wait; saw %v", want, kinds)
		}
	}

	// The panic must have dumped the flight record on its own, once.
	dumps, err := filepath.Glob(filepath.Join(stateDir, "flightrec", "flight-*-panic.json"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("automatic flight dumps after a panic: %v (err=%v), want one", dumps, err)
	}
	b, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetry.FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump %s is not valid JSON: %v", dumps[0], err)
	}
	if dump.Reason != "panic" || len(dump.Events) == 0 {
		t.Fatalf("dump %+v", dump)
	}

	// The panic is isolated to its job: the next one finishes.
	next, err := s.Submit(tinySpec(152))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, next.ID); got.State != StateDone {
		t.Fatalf("server wedged after a panicking job: %+v", got)
	}

	body, err := scrape(srv.URL + "/api/debug/flightrecord")
	if err != nil {
		t.Fatal(err)
	}
	var rec flightRecordResponse
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != len(flight.Events()) {
		t.Fatalf("endpoint served %d events, the ring holds %d", len(rec.Events), len(flight.Events()))
	}
	for _, ev := range rec.Events {
		if ev.Kind != "drain" && ev.TraceID == "" {
			t.Fatalf("flight event without trace ID: %+v", ev)
		}
	}

	body, err = scrape(srv.URL + "/api/debug/flightrecord?save=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Path == "" {
		t.Fatal("?save=1 reported no dump path")
	}
	if _, err := os.Stat(rec.Path); err != nil {
		t.Fatalf("on-demand dump not on disk: %v", err)
	}
	if !strings.Contains(rec.Path, "on-demand") {
		t.Fatalf("dump path %q does not carry the reason", rec.Path)
	}
}

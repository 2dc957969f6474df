package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asmsim/internal/exp"
	"asmsim/internal/telemetry"
)

// tinySpec is a fast end-to-end job: a 2-mix fig2 sweep that finishes
// in well under a second. Vary seed to defeat the result cache when a
// test needs distinct jobs.
func tinySpec(seed uint64) exp.JobSpec {
	return exp.JobSpec{
		Experiment:     "fig2",
		Workloads:      2,
		WarmupQuanta:   1,
		MeasuredQuanta: 1,
		Quantum:        200_000,
		Seed:           seed,
	}
}

// slowSpec runs long enough (hundreds of quanta) for a test to observe
// it mid-flight and cancel or drain it, yet completes in seconds if
// allowed to finish.
func slowSpec(seed uint64) exp.JobSpec {
	s := tinySpec(seed)
	s.MeasuredQuanta = 120
	return s
}

// mediumSpec is still comfortably observable mid-run but cheap enough
// for tests that must run it to completion (twice).
func mediumSpec(seed uint64) exp.JobSpec {
	s := tinySpec(seed)
	s.MeasuredQuanta = 20
	return s
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job %s did not terminate: %v", id, err)
	}
	return st
}

func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// jsonNormalize round-trips a table through JSON, the same
// transformation results undergo on the wire and on disk, so DeepEqual
// compares like with like.
func jsonNormalize(t *testing.T, table *exp.Table) *exp.Table {
	t.Helper()
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var out exp.Table
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func directRun(t *testing.T, spec exp.JobSpec) *exp.Table {
	t.Helper()
	table, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestSubmitRunResultBitIdentity is the cache's core contract: the
// service's answer for a job — fresh, memoized, and across identical
// resubmission — is bit-identical to a direct in-process run.
func TestSubmitRunResultBitIdentity(t *testing.T) {
	s := newTestServer(t, Options{})
	spec := tinySpec(7)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Cached || st.Dedup {
		t.Fatalf("fresh submit status = %+v", st)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone || fin.Error != "" {
		t.Fatalf("job finished %+v", fin)
	}
	got, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := directRun(t, spec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service result differs from direct run:\n%v\nvs\n%v", got, want)
	}
	// Resubmission answers from the cache without running anything.
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmit not cached: %+v", st2)
	}
	if st2.ID == st.ID {
		t.Fatal("cache hit reused the original job id")
	}
	got2, err := s.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("cached result differs from direct run")
	}
}

// TestSingleFlightDedup: identical concurrent submissions share one
// run.
func TestSingleFlightDedup(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Options{Metrics: reg})
	spec := slowSpec(11)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5
	for i := 0; i < extra; i++ {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Dedup || st.ID != first.ID {
			t.Fatalf("twin submit %d not deduplicated: %+v", i, st)
		}
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, first.ID)
	if n := reg.Scope("serve").Counter("dedup_hits").Value(); n != extra {
		t.Fatalf("dedup_hits = %d, want %d", n, extra)
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Fatalf("dedup created extra job records: %d", len(jobs))
	}
}

// TestAdmissionControl: with one worker pinned and the queue full, the
// next submission is shed over HTTP with 429 and Retry-After.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(spec exp.JobSpec) *http.Response {
		b, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	running := post(slowSpec(21))
	if running.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", running.StatusCode)
	}
	var st JobStatus
	json.NewDecoder(running.Body).Decode(&st)
	waitState(t, s, st.ID, StateRunning) // queue is now empty
	queued := post(slowSpec(22))
	if queued.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", queued.StatusCode)
	}
	shed := post(slowSpec(23))
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Unblock teardown.
	var qst JobStatus
	json.NewDecoder(queued.Body).Decode(&qst)
	s.Cancel(st.ID)
	s.Cancel(qst.ID)
}

// TestCancelRunningJob: cancellation reaches a running simulation
// mid-quantum and the job terminates as cancelled.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	st, err := s.Submit(slowSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("cancelled job finished %+v", fin)
	}
	// Cancel of a terminal job is a no-op.
	again, err := s.Cancel(st.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
}

// TestCancelQueuedJob: a queued job cancels without ever running.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	runs := countRuns(s, exp.JobSpec.Run)
	first, err := s.Submit(slowSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning)
	queued, err := s.Submit(slowSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	cst, err := s.Cancel(queued.ID)
	if err != nil || cst.State != StateCancelled {
		t.Fatalf("cancel queued: %+v, %v", cst, err)
	}
	fin := waitTerminal(t, s, queued.ID)
	if fin.State != StateCancelled {
		t.Fatalf("queued job ran anyway: %+v", fin)
	}
	s.Cancel(first.ID)
	waitTerminal(t, s, first.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d runs, want only the first job's", n)
	}
}

// TestJobDeadline: a job that cannot finish inside JobTimeout fails
// with the deadline error after one run, and its flight dump is on disk
// once Wait returns.
func TestJobDeadline(t *testing.T) {
	dumps := t.TempDir()
	s := newTestServer(t, Options{JobTimeout: 20 * time.Millisecond,
		Flight: telemetry.NewFlightRecorder(0, dumps)})
	runs := countRuns(s, exp.JobSpec.Run)
	st, err := s.Submit(slowSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("deadline job finished %+v", fin)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("deadline job ran %d times, want once", n)
	}
	if !strings.Contains(fin.Error, "deadline") && !strings.Contains(fin.Error, "cancel") {
		t.Fatalf("error does not name the deadline: %q", fin.Error)
	}
	if got, _ := filepath.Glob(filepath.Join(dumps, "flight-*-deadline.json")); len(got) != 1 {
		t.Fatalf("deadline dumps after Wait: %v, want one", got)
	}
}

// TestWholeTableAfterDeadline: a run that returns its table after the
// job's deadline has expired returned a whole table all the same. The
// job ends done with no deadline dump, its table is stored, and a
// resubmission is answered from the cache.
func TestWholeTableAfterDeadline(t *testing.T) {
	dumps := t.TempDir()
	s := newTestServer(t, Options{JobTimeout: 20 * time.Millisecond,
		Flight: telemetry.NewFlightRecorder(0, dumps)})
	spec := tinySpec(53)
	want := directRun(t, spec)
	runs := countRuns(s, func(_ exp.JobSpec, ctx context.Context, _ ...func(*exp.Scale)) (*exp.Table, error) {
		<-ctx.Done()
		return want, nil
	})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, st.ID); fin.State != StateDone || fin.Error != "" {
		t.Fatalf("job finished %+v, want done", fin)
	}
	if got, err := s.Result(st.ID); err != nil || got != want {
		t.Fatalf("result %p, %v; want the run's table", got, err)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != StateDone {
		t.Fatalf("resubmission %+v, want a cache hit", again)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d runs, want 1", n)
	}
	if got, _ := filepath.Glob(filepath.Join(dumps, "flight-*-deadline.json")); len(got) != 0 {
		t.Fatalf("deadline dumps for a done job: %v", got)
	}
}

// runFunc is the signature of Server.run.
type runFunc func(exp.JobSpec, context.Context, ...func(*exp.Scale)) (*exp.Table, error)

// countRuns routes every run s starts from now on through run and
// returns the number of runs started. Call it before the first Submit.
func countRuns(s *Server, run runFunc) *atomic.Int64 {
	var n atomic.Int64
	s.run = func(spec exp.JobSpec, ctx context.Context, tune ...func(*exp.Scale)) (*exp.Table, error) {
		n.Add(1)
		return run(spec, ctx, tune...)
	}
	return &n
}

// failJobs makes every job s runs from now on fail the way a sweep that
// lost every mix does, and returns the number of runs started.
func failJobs(s *Server) *atomic.Int64 {
	return countRuns(s, func(exp.JobSpec, context.Context, ...func(*exp.Scale)) (*exp.Table, error) {
		return nil, errors.New("exp: sweep produced no results")
	})
}

// TestFailedJobTerminates: a job whose run is a total loss terminates as
// failed without taking the server down.
func TestFailedJobTerminates(t *testing.T) {
	spec := tinySpec(71)
	s := newTestServer(t, Options{})
	failJobs(s)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateFailed || fin.Error == "" {
		t.Fatalf("total-loss job: %+v", fin)
	}
	// The server still works.
	s.run = exp.JobSpec.Run
	ok, err := s.Submit(tinySpec(72))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, ok.ID); got.State != StateDone {
		t.Fatalf("server wedged after failed job: %+v", got)
	}
}

// TestJobRunsOnce: under default Options a job runs once, whatever its
// run returns. A failed run is not run again: it journals one started
// line and ends failed.
func TestJobRunsOnce(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{StateDir: dir})
	runs := failJobs(s)
	failed, err := s.Submit(tinySpec(73))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, failed.ID); fin.State != StateFailed {
		t.Fatalf("failing job finished %+v", fin)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("failing job ran %d times, want once", n)
	}
	entries, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := 0
	for _, e := range entries {
		if e.ID == failed.ID && e.Event == evStarted {
			started++
		}
	}
	if started != 1 {
		t.Fatalf("job %s journaled %d started lines, want 1", failed.ID, started)
	}
}

// TestSubmitValidation: bad specs are rejected before admission. A body
// is one spec: an unknown field, including the retired per-run deadline,
// and anything after the spec, which could otherwise smuggle an unknown
// field past the decoder, get 400.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	if _, err := s.Submit(exp.JobSpec{Experiment: "nonesuch"}); err == nil {
		t.Fatal("unknown experiment admitted")
	}
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, body := range []string{
		`{"experiment":"fig2","bogus":1}`,
		`{"experiment":"fig2","workloads":2,"measured_quanta":1,"seed":7,"run_timeout_ms":100}`,
		`{"experiment":"fig2"}{"faults":{}}`,
		`{"experiment":"fig2"} junk`,
	} {
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s accepted: %d", body, resp.StatusCode)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected specs admitted: %+v", jobs)
	}
}

// TestSubmitRejectsJobFaults: a job has no fault plan, so a job
// document carrying a "faults" object is refused with 400 and an error
// body naming the field, and nothing is admitted.
func TestSubmitRejectsJobFaults(t *testing.T) {
	s := newTestServer(t, Options{})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	body := `{"experiment":"fig2","workloads":2,"measured_quanta":1,"seed":7,"faults":{"Seed":1,"EvalFailProb":1}}`
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(ae.Error, `"faults"`) {
		t.Fatalf("spec with faults: %d %+v, want 400 naming the field", resp.StatusCode, ae)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected spec admitted: %+v", jobs)
	}
}

// TestSubmitBodyBounded: a POST body past maxJobSpecBytes is refused with
// 413 and the usual apiError body before it is decoded — even a valid
// spec padded with whitespace, which an unbounded decoder accepts —
// while a normal spec is still admitted.
func TestSubmitBodyBounded(t *testing.T) {
	s := newTestServer(t, Options{})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	spec, _ := json.Marshal(tinySpec(91))
	post := func(body string) (int, apiError) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		return resp.StatusCode, ae
	}
	if code, ae := post(string(spec) + strings.Repeat(" ", maxJobSpecBytes)); code != http.StatusRequestEntityTooLarge || ae.Error == "" {
		t.Fatalf("padded spec: %d %+v, want 413 with an error body", code, ae)
	}
	if code, _ := post(string(spec)); code != http.StatusAccepted {
		t.Fatalf("normal spec: %d, want 202", code)
	}
}

// TestHTTPStatusAndResult covers the read endpoints end to end.
func TestHTTPStatusAndResult(t *testing.T) {
	s := newTestServer(t, Options{})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec := tinySpec(81)
	b, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	waitTerminal(t, s, st.ID)

	get := func(path string, want int) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	var got JobStatus
	json.NewDecoder(get("/api/jobs/"+st.ID, http.StatusOK).Body).Decode(&got)
	if got.State != StateDone {
		t.Fatalf("status endpoint: %+v", got)
	}
	var table exp.Table
	json.NewDecoder(get("/api/jobs/"+st.ID+"/result", http.StatusOK).Body).Decode(&table)
	want := jsonNormalize(t, directRun(t, spec))
	if !reflect.DeepEqual(&table, want) {
		t.Fatal("HTTP result differs from direct run after JSON normalization")
	}
	var list []JobStatus
	json.NewDecoder(get("/api/jobs", http.StatusOK).Body).Decode(&list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list endpoint: %+v", list)
	}
	get("/api/jobs/job-999", http.StatusNotFound)
	get("/api/jobs/job-999/result", http.StatusNotFound)
	var h Health
	json.NewDecoder(get("/healthz", http.StatusOK).Body).Decode(&h)
	if h.Status != "ok" || h.Workers == 0 {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestEventsStream: lifecycle events arrive over SSE as whole frames,
// alongside per-quantum records from the running simulation.
func TestEventsStream(t *testing.T) {
	s := newTestServer(t, Options{})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	st, err := s.Submit(tinySpec(91))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	// Read frames until the done event for our job shows up.
	sawQuantum, sawDone := false, false
	buf := make([]byte, 0, 1<<16)
	chunk := make([]byte, 4096)
	for !sawDone {
		n, err := resp.Body.Read(chunk)
		buf = append(buf, chunk[:n]...)
		for {
			idx := strings.Index(string(buf), "\n\n")
			if idx < 0 {
				break
			}
			frame := string(buf[:idx])
			buf = buf[idx+2:]
			if strings.HasPrefix(frame, "event: quantum\n") {
				sawQuantum = true
			}
			if strings.HasPrefix(frame, "event: job\n") && strings.Contains(frame, `"state":"done"`) && strings.Contains(frame, st.ID) {
				sawDone = true
			}
		}
		if err != nil {
			break
		}
	}
	if !sawDone {
		t.Fatal("no done lifecycle event on the SSE stream")
	}
	if !sawQuantum {
		t.Fatal("no quantum records on the SSE stream")
	}
}

// TestMetricsAccounting spot-checks the serve scope counters end to
// end.
func TestMetricsAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Options{Metrics: reg})
	spec := tinySpec(101)
	st, _ := s.Submit(spec)
	waitTerminal(t, s, st.ID)
	s.Submit(spec) // cache hit
	scope := reg.Scope("serve")
	if n := scope.Counter("submitted").Value(); n != 2 {
		t.Fatalf("submitted = %d", n)
	}
	if n := scope.Counter("done").Value(); n != 1 {
		t.Fatalf("done = %d", n)
	}
	if n := scope.Counter("cache_hits").Value(); n != 1 {
		t.Fatalf("cache_hits = %d", n)
	}
	if fmt.Sprint(scope.Gauge("running").Value()) != "0" {
		t.Fatal("running gauge not settled")
	}
}

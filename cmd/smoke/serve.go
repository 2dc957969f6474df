package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"time"

	"asmsim/internal/telemetry"
)

// serveBanner is the line asmserve prints once its job service listens.
var serveBanner = regexp.MustCompile(`job service listening on http://(\S+)/api/jobs`)

// tinyJob finishes in well under a second; slowJob runs for seconds so
// the smoke can SIGTERM the server mid-run.
const (
	tinyJob = `{"experiment":"fig2","workloads":2,"warmup_quanta":1,"measured_quanta":1,"quantum":200000,"seed":7}`
	slowJob = `{"experiment":"fig2","workloads":2,"warmup_quanta":1,"measured_quanta":300,"quantum":200000,"seed":99}`
)

type jobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Cached  bool   `json:"cached"`
	Resumed bool   `json:"resumed"`
	Error   string `json:"error"`
}

// startServe launches asmserve on an ephemeral port over stateDir.
func startServe(bin, stateDir string, extra ...string) (*child, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-state", stateDir,
		"-workers", "1",
		"-drain-timeout", "2s",
	}
	return spawn(bin, "asmserve", serveBanner, os.Stdout, append(args, extra...)...)
}

// runServe is the job-service smoke: it launches a real asmserve with an
// on-disk state directory, submits a job twice (the second answer must
// be a cache hit), scrapes /metrics (strict exposition-format parse plus
// a required-series check), verifies the SSE stream opens, then SIGTERMs
// the server mid-job and checks that /readyz flips to 503 while the
// drain runs, that the process exits 0 within the drain window, that the
// journal left the interrupted job resumable, and that a restarted
// server picks it up and still answers health checks. A final phase
// runs a server whose -job-timeout is too short for slowJob to finish
// and requires the failed job to leave a deadline flight-recorder dump
// on disk.
func runServe(bin, _ string, deadline time.Time) error {
	stateDir, err := os.MkdirTemp("", "serve-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	c, err := startServe(bin, stateDir)
	if err != nil {
		return err
	}
	defer c.kill()

	if err := step("healthz", checkHealth(c.base, "ok")); err != nil {
		return err
	}
	if err := step("readyz", checkReady(c.base)); err != nil {
		return err
	}

	// First submission runs; the identical second one must be answered
	// from the result cache with a bit-identical table.
	first, err := submit(c.base, tinyJob, http.StatusAccepted)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if err := waitJob(c.base, first.ID, "done", deadline); err != nil {
		return err
	}
	table1, err := result(c.base, first.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Println("  job run      ok")
	second, err := submit(c.base, tinyJob, http.StatusOK)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if !second.Cached {
		return fmt.Errorf("second submission was not a cache hit: %+v", second)
	}
	table2, err := result(c.base, second.ID)
	if err != nil {
		return fmt.Errorf("cached result: %w", err)
	}
	if !reflect.DeepEqual(table1, table2) {
		return fmt.Errorf("cached result differs from the first run")
	}
	fmt.Println("  cache hit    ok")

	if err := step("metrics", checkServeMetrics(c.base)); err != nil {
		return err
	}
	if err := step("events SSE", checkSSE(c.base)); err != nil {
		return err
	}

	// SIGTERM mid-job: /readyz must flip to 503 while the drain runs,
	// then the server must exit 0 within the window, leaving the job
	// resumable in the journal.
	slow, err := submit(c.base, slowJob, http.StatusAccepted)
	if err != nil {
		return fmt.Errorf("slow submit: %w", err)
	}
	if err := waitJob(c.base, slow.ID, "running", deadline); err != nil {
		return err
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal child: %w", err)
	}
	if err := step("readyz flip", waitUnready(c.base, 5*time.Second)); err != nil {
		return err
	}
	if err := step("drain", c.wait(syscall.SIGTERM, true)); err != nil {
		return err
	}
	if err := step("journal", checkJournalResumable(stateDir, slow.ID)); err != nil {
		return err
	}

	// Restart over the same state: the interrupted job comes back and
	// the server is healthy.
	c2, err := startServe(bin, stateDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer c2.kill()
	st, err := getJob(c2.base, slow.ID)
	if err != nil {
		return fmt.Errorf("restarted server forgot job %s: %w", slow.ID, err)
	}
	if !st.Resumed {
		return fmt.Errorf("job %s not resumed after restart: %+v", slow.ID, st)
	}
	if err := step("recovery", checkHealth(c2.base, "ok")); err != nil {
		return err
	}
	// And it drains cleanly again, now with the resumed job in flight.
	if err := step("re-drain", c2.stop(syscall.SIGTERM, true)); err != nil {
		return err
	}

	// Deadline drill: a job that outlives -job-timeout must fail and
	// leave a flight-recorder dump under the state directory.
	timeoutDir, err := os.MkdirTemp("", "serve-smoke-timeout-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(timeoutDir)
	c3, err := startServe(bin, timeoutDir, "-job-timeout", "50ms")
	if err != nil {
		return fmt.Errorf("deadline-drill start: %w", err)
	}
	defer c3.kill()
	expired, err := submit(c3.base, slowJob, http.StatusAccepted)
	if err != nil {
		return fmt.Errorf("deadline-drill submit: %w", err)
	}
	if err := waitJob(c3.base, expired.ID, "failed", deadline); err != nil {
		return fmt.Errorf("deadline-drill: %w", err)
	}
	dumps, err := filepath.Glob(filepath.Join(timeoutDir, "flightrec", "flight-*.json"))
	if err != nil || len(dumps) == 0 {
		return fmt.Errorf("no flight-recorder dump after a job deadline (err=%v)", err)
	}
	b, err := os.ReadFile(dumps[0])
	if err != nil {
		return err
	}
	var dump struct {
		Reason string           `json:"reason"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		return fmt.Errorf("flight dump %s is not JSON: %w", dumps[0], err)
	}
	if dump.Reason != "deadline" || len(dump.Events) == 0 {
		return fmt.Errorf("flight dump %s: reason %q, %d events", dumps[0], dump.Reason, len(dump.Events))
	}
	return step("flight dump", c3.stop(syscall.SIGTERM, true))
}

func submit(base, body string, want int) (jobStatus, error) {
	resp, err := http.Post(base+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, err
	}
	if resp.StatusCode != want {
		return st, fmt.Errorf("status %d (want %d): %+v", resp.StatusCode, want, st)
	}
	return st, nil
}

func getJob(base, id string) (jobStatus, error) {
	var st jobStatus
	return st, getJSON(base+"/api/jobs/"+id, &st)
}

func waitJob(base, id, state string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		st, err := getJob(base, id)
		if err != nil {
			return err
		}
		if st.State == state {
			return nil
		}
		if st.State == "failed" || st.State == "cancelled" {
			return fmt.Errorf("job %s ended %s (%s) while waiting for %s", id, st.State, st.Error, state)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("job %s never reached %s", id, state)
}

func result(base, id string) (map[string]any, error) {
	var t map[string]any
	if err := getJSON(base+"/api/jobs/"+id+"/result", &t); err != nil {
		return nil, err
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("empty result table")
	}
	return t, nil
}

func checkHealth(base, want string) error {
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := getJSON(base+"/healthz", &h); err != nil {
		return err
	}
	if h.Status != want || h.Workers == 0 {
		return fmt.Errorf("health %+v, want status %q", h, want)
	}
	return nil
}

// checkReady requires /readyz to answer 200 with every dependency
// check passing.
func checkReady(base string) error {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rd struct {
		Ready  bool              `json:"ready"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		return fmt.Errorf("readyz %d %+v", resp.StatusCode, rd)
	}
	for name, v := range rd.Checks {
		if !strings.HasPrefix(v, "ok") {
			return fmt.Errorf("check %s = %q", name, v)
		}
	}
	return nil
}

// waitUnready polls /readyz until it answers 503 with the admissions
// check reporting the drain.
func waitUnready(base string, window time.Duration) error {
	deadline := time.Now().Add(window)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return fmt.Errorf("readyz unreachable mid-drain (last: %s): %w", last, err)
		}
		var rd struct {
			Ready  bool              `json:"ready"`
			Checks map[string]string `json:"checks"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&rd)
		resp.Body.Close()
		if derr != nil {
			return derr
		}
		if resp.StatusCode == http.StatusServiceUnavailable && rd.Checks["admissions"] == "draining" {
			return nil
		}
		last = fmt.Sprintf("%d %+v", resp.StatusCode, rd)
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("readyz never flipped to 503/draining (last: %s)", last)
}

var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+( [0-9]+)?$`)

// checkServeMetrics scrapes /metrics, validates the whole payload against
// the text exposition format (well-formed TYPE lines, no duplicate
// TYPE, every sample matching the grammar), and requires the service's
// core series to be present.
func checkServeMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("content-type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	body := string(b)
	names := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("malformed TYPE line %q", line)
			}
			if typed[f[2]] {
				return fmt.Errorf("duplicate TYPE for %s", f[2])
			}
			switch f[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return fmt.Errorf("unknown type %q in %q", f[3], line)
			}
			typed[f[2]] = true
		case strings.HasPrefix(line, "#"):
		default:
			if !promSampleRe.MatchString(line) {
				return fmt.Errorf("malformed sample line %q", line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			names[name] = true
		}
	}
	for _, want := range []string{
		"serve_submitted_total",
		"serve_jobs_finished_total",
		"serve_queued",
		"serve_running",
		"serve_job_latency_ns_count",
		"serve_queue_wait_ns_count",
		"serve_attempt_ns_count",
		"serve_journal_fsync_ns_count",
	} {
		if !names[want] {
			return fmt.Errorf("required series %s missing", want)
		}
	}
	// The whole body must satisfy the Prometheus 0.0.4 text-exposition
	// contract under the strict parser — duplicate samples included,
	// which the line-by-line checks above cannot see.
	if _, err := telemetry.ParseExposition(body); err != nil {
		return fmt.Errorf("strict exposition parse (0.0.4 exposition contract): %w", err)
	}
	if !strings.Contains(body, `serve_jobs_finished_total{state="done"}`) {
		return fmt.Errorf(`no serve_jobs_finished_total{state="done"} sample`)
	}
	return nil
}

// checkSSE opens the event stream and reads the preamble, proving the
// endpoint streams.
func checkSSE(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/api/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		return fmt.Errorf("content-type %q", ct)
	}
	buf := make([]byte, 64)
	n, err := resp.Body.Read(buf)
	if err != nil && n == 0 {
		return fmt.Errorf("no preamble: %w", err)
	}
	if !bytes.Contains(buf[:n], []byte("retry:")) {
		return fmt.Errorf("unexpected preamble %q", buf[:n])
	}
	return nil
}

// checkJournalResumable scans the JSONL journal for the job: it must
// have submitted and started events but no terminal one.
func checkJournalResumable(stateDir, id string) error {
	f, err := os.Open(filepath.Join(stateDir, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	var submitted, started bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Event string `json:"event"`
			ID    string `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		if e.ID != id {
			continue
		}
		switch e.Event {
		case "submitted":
			submitted = true
		case "started":
			started = true
		case "done", "failed", "cancelled":
			return fmt.Errorf("interrupted job %s has terminal event %q", id, e.Event)
		}
	}
	if !submitted || !started {
		return errors.New("journal missing submitted/started events for the interrupted job")
	}
	return nil
}

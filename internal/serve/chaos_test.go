package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asmsim/internal/exp"
	"asmsim/internal/rng"
	"asmsim/internal/telemetry"
)

// TestChaos is the acceptance scenario: concurrent clients hammer a
// small server while a seeded subset of its runs fail and its journal
// rejects writes for part of the storm. The server may shed (429) or
// reject (503) individual submissions, but it must never deadlock, and
// every job it admits must terminate with either a whole result table
// or an error — no job may hang in queued/running forever.
func TestChaos(t *testing.T) {
	reg := telemetry.NewRegistry()
	stateDir := t.TempDir()
	s := newTestServer(t, Options{
		Workers:    2,
		QueueDepth: 3,
		StateDir:   stateDir,
		Metrics:    reg,
		Flight:     telemetry.NewFlightRecorder(0, filepath.Join(stateDir, "flightrec")),
	})
	countRuns(s, func(spec exp.JobSpec, ctx context.Context, tune ...func(*exp.Scale)) (*exp.Table, error) {
		if rng.NewNamed(1234, fmt.Sprint("chaos/run ", spec.Seed)).Float64() < 0.4 {
			return nil, errors.New("exp: sweep produced no results")
		}
		return exp.JobSpec.Run(spec, ctx, tune...)
	})
	// The journal fails every write while a read-only handle on its own
	// path stands in for its file. Each broken window lasts until a write
	// has failed (or 200ms), then the writable handle serves a healthy
	// window; the first window opens before any client submits.
	ro, err := os.Open(journalPath(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	w := swapJournalFile(s.journal, ro)
	breakStop, breakDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(breakDone)
		for errs := uint64(0); ; errs = s.journal.Errors() {
			for end := time.Now().Add(200 * time.Millisecond); s.journal.Errors() == errs && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			swapJournalFile(s.journal, w)
			select {
			case <-breakStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			swapJournalFile(s.journal, ro)
		}
	}()

	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Observers run for the whole storm: /metrics must stay a parseable
	// exposition and the flight-recorder endpoint must answer, without
	// ever deadlocking against the job machinery.
	scrapeStop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-scrapeStop:
					return
				default:
				}
				body, err := scrape(srv.URL + "/metrics")
				if err == nil {
					_, err = checkExposition(body)
				}
				if err != nil {
					t.Errorf("chaos scrape: %v", err)
					return
				}
				var rec flightRecordResponse
				if body, err = scrape(srv.URL + "/api/debug/flightrecord"); err == nil {
					err = json.Unmarshal([]byte(body), &rec)
				}
				if err != nil {
					t.Errorf("chaos flight record: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	defer func() {
		close(scrapeStop)
		scrapeWG.Wait()
	}()

	const clients = 10
	var (
		mu       sync.Mutex
		admitted []string
		sheds    int
		rejects  int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := tinySpec(1000 + uint64(c)) // distinct seeds defeat dedup/cache
			body, _ := json.Marshal(spec)
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := http.Post(srv.URL+"/api/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatus
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					mu.Lock()
					admitted = append(admitted, st.ID)
					mu.Unlock()
					return
				case http.StatusTooManyRequests:
					mu.Lock()
					sheds++
					mu.Unlock()
				case http.StatusServiceUnavailable:
					mu.Lock()
					rejects++
					mu.Unlock()
				default:
					t.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
					return
				}
				time.Sleep(5 * time.Millisecond) // honor Retry-After in spirit
			}
			t.Errorf("client %d never admitted", c)
		}(c)
	}
	wg.Wait()
	close(breakStop)
	<-breakDone
	if t.Failed() {
		return
	}
	t.Logf("chaos: %d admitted after %d sheds + %d journal rejections", len(admitted), sheds, rejects)

	// Every admitted job terminates; done jobs have retrievable tables.
	failed := 0
	for _, id := range admitted {
		st := waitTerminal(t, s, id)
		switch st.State {
		case StateDone:
			if _, err := s.Result(id); err != nil {
				t.Fatalf("done job %s has no result: %v", id, err)
			}
		case StateFailed:
			if st.Error == "" {
				t.Fatalf("failed job %s carries no error", id)
			}
			failed++
		default:
			t.Fatalf("admitted job %s ended %s", id, st.State)
		}
	}
	t.Logf("chaos: %d of %d admitted jobs failed", failed, len(admitted))
	// The server is still healthy and responsive after the storm.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	json.NewDecoder(resp.Body).Decode(&h)
	if resp.StatusCode != http.StatusOK || h.Running != 0 || h.Queued != 0 {
		t.Fatalf("post-chaos health: code %d, %+v", resp.StatusCode, h)
	}
	if h.JournalErrors == 0 {
		t.Fatal("no journal write failed — the test lost its teeth")
	}
	if failed == 0 {
		t.Fatal("no admitted job failed — the test lost its teeth")
	}
	// Drain cleanly with nothing in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("post-chaos shutdown: %v", err)
	}
}

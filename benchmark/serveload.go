package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// jobStatus is the part of the service's job document a client reads.
type jobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Cached  bool   `json:"cached"`
	Dedup   bool   `json:"dedup"`
	Partial bool   `json:"partial"`
	Error   string `json:"error"`
}

func (s jobStatus) terminal() bool {
	switch s.State {
	case "done", "failed", "cancelled", "interrupted":
		return true
	}
	return false
}

// loadStats is what one closed-loop session against the service saw.
// Latencies are submit -> verified table, in milliseconds.
type loadStats struct {
	Wall     time.Duration
	ColdMS   []float64
	HitMS    []float64
	SubmitMS []float64
	FetchMS  []float64
	Polls    int
	// Waited is the time spent between submit and the poll that saw the
	// job finished; Waited/Polls is the poll interval the clients really
	// got, which on saturated processors is longer than the one asked for.
	Waited time.Duration
	// Busy is each client's time spent inside requests and polls; the
	// rest of Wall it sat idle waiting for the slower client to finish.
	Busy []time.Duration

	Failures []string
	Tables   []table // one per cold job, in list order
}

// client is one closed-loop caller: it submits a job, polls until it is
// finished, fetches the table, checks it, and only then takes the next.
type client struct {
	http *http.Client
	url  string
	sz   sizes
}

func (c *client) do(ctx context.Context, method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: bad body: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// answer is one request's outcome.
type answer struct {
	status           jobStatus
	tab              table
	polls            int
	submitAt, waitAt time.Time // span boundaries
	fetchAt, doneAt  time.Time
}

// ask runs one job to its table. Any refusal (429, 5xx), failure state,
// time-out or transport error is returned as an error: the sample counts
// as failed, it is never dropped.
func (c *client) ask(ctx context.Context, doc jobDoc) (answer, error) {
	ctx, cancel := context.WithTimeout(ctx, c.sz.JobDeadline)
	defer cancel()
	var a answer
	a.submitAt = time.Now()
	code, err := c.do(ctx, http.MethodPost, "/api/jobs", doc, &a.status)
	a.waitAt = time.Now()
	if err != nil {
		return a, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return a, fmt.Errorf("submit: HTTP %d", code)
	}
	for !a.status.terminal() {
		select {
		case <-ctx.Done():
			return a, fmt.Errorf("job %s: timed out in state %q", a.status.ID, a.status.State)
		case <-time.After(c.sz.Poll):
		}
		a.polls++
		if code, err := c.do(ctx, http.MethodGet, "/api/jobs/"+a.status.ID, nil, &a.status); err != nil || code != http.StatusOK {
			return a, fmt.Errorf("poll %s: HTTP %d: %v", a.status.ID, code, err)
		}
	}
	a.fetchAt = time.Now()
	if a.status.State != "done" || a.status.Partial {
		return a, fmt.Errorf("job %s: state %q partial=%v: %s", a.status.ID, a.status.State, a.status.Partial, a.status.Error)
	}
	code, err = c.do(ctx, http.MethodGet, "/api/jobs/"+a.status.ID+"/result", nil, &a.tab)
	a.doneAt = time.Now()
	if err != nil || code != http.StatusOK {
		return a, fmt.Errorf("result %s: HTTP %d: %v", a.status.ID, code, err)
	}
	return a, checkTable(a.tab)
}

// checkTable holds a result table to what any reader of it relies on: no
// lost items, and every cell after the row label a percentage.
func checkTable(t table) error {
	if len(t.Failures) > 0 {
		return fmt.Errorf("table %s: partial: %v", t.ID, t.Failures)
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %s: no rows", t.ID)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("table %s: row %v does not match header %v", t.ID, row, t.Header)
		}
		for _, cell := range row[1:] {
			if _, err := parsePct(cell); err != nil {
				return fmt.Errorf("table %s: cell %q: %w", t.ID, cell, err)
			}
		}
	}
	return nil
}

func parsePct(cell string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
}

// runLoad plays the job list against the service at url from nclients
// closed-loop clients sharing the list: a client that finishes takes the
// next entry. Spans go under parent when tr is not nil.
func runLoad(ctx context.Context, url string, list []jobEntry, nclients int, sz sizes, tr *tracer, parent int) *loadStats {
	ncold := 0
	for _, e := range list {
		if e.Cold {
			ncold++
		}
	}
	st := &loadStats{Tables: make([]table, ncold), Busy: make([]time.Duration, nclients)}
	finished := make([]bool, ncold)
	var mu sync.Mutex // guards st and finished
	var next atomic.Int64
	transport := &http.Transport{MaxIdleConnsPerHost: nclients}
	defer transport.CloseIdleConnections()
	c := &client{http: &http.Client{Transport: transport}, url: url, sz: sz}

	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < nclients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				e := list[i]
				a, err := c.ask(ctx, e.Doc)
				busy := time.Since(a.submitAt)
				recordJobSpans(tr, parent, e, a)

				mu.Lock()
				st.Busy[k] += busy
				st.Polls += a.polls
				if !a.fetchAt.IsZero() && a.polls > 0 {
					st.Waited += a.fetchAt.Sub(a.waitAt)
				}
				switch {
				case err != nil:
				case e.Cold:
					if a.status.Cached || a.status.Dedup {
						err = fmt.Errorf("cold job answered without running (cached=%v dedup=%v)", a.status.Cached, a.status.Dedup)
						break
					}
					st.Tables[e.Twin], finished[e.Twin] = a.tab, true
					st.ColdMS = append(st.ColdMS, ms(busy))
				case !a.status.Cached || !finished[e.Twin]:
					err = fmt.Errorf("re-submission was not a cache hit (cached=%v dedup=%v)", a.status.Cached, a.status.Dedup)
				case !reflect.DeepEqual(a.tab, st.Tables[e.Twin]):
					err = fmt.Errorf("cache hit's table differs from its cold twin's")
				default:
					st.HitMS = append(st.HitMS, ms(busy))
				}
				if err != nil {
					st.Failures = append(st.Failures, fmt.Sprintf("entry %d (seed %d): %v", i, e.Doc.Seed, err))
				} else {
					st.SubmitMS = append(st.SubmitMS, ms(a.waitAt.Sub(a.submitAt)))
					st.FetchMS = append(st.FetchMS, ms(a.doneAt.Sub(a.fetchAt)))
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	st.Wall = time.Since(start)
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recordJobSpans writes item -> {submit, wait, fetch} for one request,
// as far as the request got.
func recordJobSpans(tr *tracer, parent int, e jobEntry, a answer) {
	if tr == nil {
		return
	}
	kind := "hit"
	if e.Cold {
		kind = "cold"
	}
	end := a.waitAt
	if !a.fetchAt.IsZero() {
		end = a.fetchAt
	}
	if !a.doneAt.IsZero() {
		end = a.doneAt
	}
	item := tr.record(parent, "item", a.submitAt, end, map[string]float64{"jobs": 1, kind: 1})
	tr.record(item, "submit", a.submitAt, a.waitAt, nil)
	if !a.fetchAt.IsZero() {
		tr.record(item, "wait", a.waitAt, a.fetchAt, map[string]float64{"polls": float64(a.polls)})
	}
	if !a.doneAt.IsZero() {
		tr.record(item, "fetch", a.fetchAt, a.doneAt, nil)
	}
}

// waitReady polls /readyz until the service reports ready.
func waitReady(ctx context.Context, url string) error {
	c := &client{http: http.DefaultClient, url: url}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, err := c.do(ctx, http.MethodGet, "/readyz", nil, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not ready: HTTP %d: %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrapeMS fetches /metrics n times and returns the median latency.
func scrapeMS(ctx context.Context, url string, n int) (float64, error) {
	c := &client{http: http.DefaultClient, url: url}
	var lat []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		code, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("scrape: HTTP %d: %v", code, err)
		}
		lat = append(lat, ms(time.Since(start)))
	}
	return median(lat), nil
}

// endState is what a service holds on to after a session.
type endState struct {
	HeapMB     float64
	Goroutines int
	StateDirKB float64
	JobsListed int
}

func (s *service) endState(stateDir string) endState {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var bytes int64
	// Sizes are best effort: the callback never fails the walk.
	_ = filepath.WalkDir(stateDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				bytes += info.Size()
			}
		}
		return nil
	})
	return endState{
		HeapMB:     float64(m.HeapAlloc) / (1 << 20),
		Goroutines: runtime.NumGoroutine(),
		StateDirKB: float64(bytes) / 1024,
		JobsListed: s.jobsListed(),
	}
}

package telemetry

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// captureRecorder counts records and can fail its Close.
type captureRecorder struct {
	mu       sync.Mutex
	records  []QuantumRecord
	closed   int
	closeErr error
}

func (c *captureRecorder) Record(rec *QuantumRecord) {
	c.mu.Lock()
	c.records = append(c.records, *rec)
	c.mu.Unlock()
}

func (c *captureRecorder) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed++
	return c.closeErr
}

func TestFanoutDegenerateForms(t *testing.T) {
	if Fanout() != nil {
		t.Fatal("Fanout() must be nil")
	}
	if Fanout(nil, nil) != nil {
		t.Fatal("Fanout(nil, nil) must be nil")
	}
	r := &captureRecorder{}
	if got := Fanout(nil, r, nil); got != Recorder(r) {
		t.Fatal("single non-nil recorder must come back unwrapped")
	}
}

func TestSinkFanout(t *testing.T) {
	a := &captureRecorder{}
	b := &captureRecorder{closeErr: errors.New("disk full")}
	s := Fanout(a, nil, b)
	if _, ok := s.(*Sink); !ok {
		t.Fatalf("Fanout of two recorders = %T, want *Sink", s)
	}
	s.Record(&QuantumRecord{App: 1, Quantum: 2})
	s.Record(&QuantumRecord{App: 0, Quantum: 3})
	for i, c := range []*captureRecorder{a, b} {
		if len(c.records) != 2 || c.records[0].Quantum != 2 || c.records[1].Quantum != 3 {
			t.Fatalf("recorder %d saw %+v", i, c.records)
		}
	}
	if err := s.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close must surface the first member error, got %v", err)
	}
	if a.closed != 1 || b.closed != 1 {
		t.Fatalf("members closed %d/%d times, want once each", a.closed, b.closed)
	}
	// Closing again is a no-op (members were released).
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if a.closed != 1 {
		t.Fatalf("member re-closed after Sink.Close: %d", a.closed)
	}
}

func TestSinkNilSafe(t *testing.T) {
	var s *Sink
	s.Record(&QuantumRecord{})
	if err := s.Close(); err != nil {
		t.Fatalf("nil Sink Close: %v", err)
	}
	if got := Fanout(nil, nil); got != nil {
		t.Fatalf("Fanout of nils must be nil, got %T", got)
	}
}

func TestProgressState(t *testing.T) {
	var nilP *Progress
	if st := nilP.State(); st.Label != "" || st.Total != 0 || st.Done != 0 ||
		st.Failed != 0 || st.Running != nil || st.ElapsedNs != 0 || st.ETANs != 0 {
		t.Fatalf("nil Progress state = %+v, want zero", st)
	}
	p := NewProgress(io.Discard, "sweep", time.Second)
	base := time.Now()
	step := 0
	p.now = func() time.Time { step++; return base.Add(time.Duration(step) * time.Second) }
	p.Add(4)
	p.StartItem("mix-b")
	p.StartItem("mix-a")
	p.DoneItem("mix-b", nil)
	p.DoneItem("mix-a", errors.New("boom"))
	p.StartItem("mix-c")
	st := p.State()
	if st.Label != "sweep" || st.Total != 4 || st.Done != 2 || st.Failed != 1 {
		t.Fatalf("state = %+v", st)
	}
	if len(st.Running) != 1 || st.Running[0] != "mix-c" {
		t.Fatalf("running = %v", st.Running)
	}
	if st.ElapsedNs <= 0 {
		t.Fatalf("elapsed = %d", st.ElapsedNs)
	}
	// 2 of 4 done: the ETA extrapolates one elapsed unit per done item.
	if st.ETANs <= 0 {
		t.Fatalf("eta = %d", st.ETANs)
	}
	// Running names come back sorted.
	p.StartItem("mix-z")
	p.StartItem("mix-a")
	st = p.State()
	if len(st.Running) != 3 || st.Running[0] != "mix-a" || st.Running[2] != "mix-z" {
		t.Fatalf("running not sorted: %v", st.Running)
	}
}

// TestProfilerMountsAndGracefulShutdown checks the mount hook (extra
// handlers share the pprof listener) and that Stop drains an in-flight
// request instead of cutting it off.
func TestProfilerMountsAndGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	p, err := StartProfiler("", "", "127.0.0.1:0", func(mux *http.ServeMux) {
		mux.HandleFunc("/debug/custom", func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			fmt.Fprint(w, "drained")
		})
	}, nil) // nil mounts are skipped
	if err != nil {
		t.Fatal(err)
	}
	addr := p.PprofAddr()
	if addr == "" {
		t.Fatal("no bound address")
	}

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/debug/custom")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{body: string(b), err: err}
	}()
	<-entered

	stopDone := make(chan error, 1)
	go func() { stopDone <- p.Stop() }()
	select {
	case err := <-stopDone:
		t.Fatalf("Stop returned before the in-flight request drained (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-stopDone; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	r := <-done
	if r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request not drained: body=%q err=%v", r.body, r.err)
	}
	// Idempotent: a second Stop is a no-op.
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	// The listener is really gone.
	if _, err := http.Get("http://" + addr + "/debug/custom"); err == nil {
		t.Fatal("server still serving after Stop")
	}
}

// TestProfilerStopForcesStuckHandlers: a handler that never finishes
// cannot wedge Stop forever — after the grace period the connections are
// force-closed and Stop reports the overrun.
func TestProfilerStopForcesStuckHandlers(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the shutdown grace period")
	}
	block := make(chan struct{})
	defer close(block)
	entered := make(chan struct{})
	p, err := StartProfiler("", "", "127.0.0.1:0", func(mux *http.ServeMux) {
		mux.HandleFunc("/debug/stuck", func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			select {
			case <-block:
			case <-r.Context().Done():
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + p.PprofAddr() + "/debug/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	start := time.Now()
	if err := p.Stop(); err == nil {
		t.Fatal("Stop must report the drain-deadline overrun")
	}
	if d := time.Since(start); d < shutdownGrace || d > shutdownGrace+3*time.Second {
		t.Fatalf("Stop took %v, want ~%v", d, shutdownGrace)
	}
}

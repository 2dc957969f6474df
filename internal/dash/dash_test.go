package dash

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return b
}

func TestNilServerPassthrough(t *testing.T) {
	var s *Server
	s.SetRegistry(telemetry.NewRegistry())
	s.SetProgress(nil)
	s.ObserveAttribution(evtrace.QuantumAttribution{})
	s.Mount(http.NewServeMux())
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	s.Record(&telemetry.QuantumRecord{})
}

// TestMetricsGolden pins the /debug/asm/metrics response shape: full
// sorted snapshot, dash stream health, no delta without a token.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t)
	reg := telemetry.NewRegistry()
	reg.Counter("sim.quanta").Add(3)
	reg.Gauge("exp.workers").Set(4)
	reg.Timer("exp.item").Observe(5 * time.Millisecond)
	s.SetRegistry(reg)

	got := get(t, ts.URL+"/debug/asm/metrics")
	want := `{
 "metrics": [
  {
   "name": "dash.sse.dropped_frames",
   "kind": "counter",
   "value": 0
  },
  {
   "name": "exp.item",
   "kind": "timer",
   "value": 1,
   "total_ns": 5000000,
   "mean_ns": 5000000,
   "max_ns": 5000000
  },
  {
   "name": "exp.workers",
   "kind": "gauge",
   "value": 4
  },
  {
   "name": "sim.quanta",
   "kind": "counter",
   "value": 3
  }
 ],
 "dash": {
  "subscribers": 0,
  "frames": 0,
  "drops": 0,
  "quanta_seen": 0
 }
}
`
	if string(got) != want {
		t.Fatalf("metrics golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMetricsDelta(t *testing.T) {
	s, ts := newTestServer(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("sim.ticks")
	c.Add(10)
	s.SetRegistry(reg)

	var m metricsResponse
	if err := json.Unmarshal(get(t, ts.URL+"/debug/asm/metrics?delta=tok1"), &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m.Delta != nil {
		t.Fatalf("first poll should carry no delta, got %v", m.Delta)
	}
	c.Add(7)
	if err := json.Unmarshal(get(t, ts.URL+"/debug/asm/metrics?delta=tok1"), &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m.Delta["sim.ticks"] != 7 {
		t.Fatalf("delta = %v, want sim.ticks=7", m.Delta)
	}
	// A different token diffs against its own history, not tok1's.
	var m2 metricsResponse
	if err := json.Unmarshal(get(t, ts.URL+"/debug/asm/metrics?delta=tok2"), &m2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m2.Delta != nil {
		t.Fatalf("fresh token should carry no delta, got %v", m2.Delta)
	}
}

func TestMetricsDeltaTokenCap(t *testing.T) {
	s := NewServer()
	defer s.Close()
	snap := []telemetry.Metric{{Name: "x", Kind: "counter", Value: 1}}
	for i := 0; i < maxDeltaTokens+5; i++ {
		s.delta(strings.Repeat("t", 1)+string(rune('0'+i%10))+strings.Repeat("-", i/10), snap)
	}
	if n := len(s.deltas); n > maxDeltaTokens {
		t.Fatalf("delta store grew to %d tokens, cap is %d", n, maxDeltaTokens)
	}
}

// TestAttributionGolden pins the /debug/asm/attribution response before
// and after the first snapshot.
func TestAttributionGolden(t *testing.T) {
	s, ts := newTestServer(t)
	empty := get(t, ts.URL+"/debug/asm/attribution")
	wantEmpty := `{
 "present": false,
 "seen": 0
}
`
	if string(empty) != wantEmpty {
		t.Fatalf("empty attribution mismatch:\ngot:\n%s\nwant:\n%s", empty, wantEmpty)
	}
	s.ObserveAttribution(evtrace.QuantumAttribution{
		Quantum: 2, EndCycle: 600000, Cycles: 200000,
		Apps:         []string{"mcf", "lbm"},
		Mem:          [][]float64{{0, 120, 5}, {80, 0, 3}},
		MemRowTotals: []float64{125, 83},
		Cache:        [][]float64{{0, 40}, {10, 0}},
		AppStats: []evtrace.AppQuantumStats{
			{Name: "mcf", Retired: 1000, MemStallCycles: 500},
			{Name: "lbm", Retired: 2000, MemStallCycles: 300},
		},
	})
	got := get(t, ts.URL+"/debug/asm/attribution")
	want := `{
 "present": true,
 "seen": 1,
 "attribution": {
  "quantum": 2,
  "end_cycle": 600000,
  "cycles": 200000,
  "apps": [
   "mcf",
   "lbm"
  ],
  "mem": [
   [
    0,
    120,
    5
   ],
   [
    80,
    0,
    3
   ]
  ],
  "mem_row_totals": [
   125,
   83
  ],
  "cache": [
   [
    0,
    40
   ],
   [
    10,
    0
   ]
  ],
  "app_stats": [
   {
    "name": "mcf",
    "retired": 1000,
    "mem_stall_cycles": 500,
    "quantum_hit_time": 0,
    "quantum_miss_time": 0,
    "queueing_cycles": 0,
    "mem_interf_cycles": 0,
    "cache_interf_cycles": 0
   },
   {
    "name": "lbm",
    "retired": 2000,
    "mem_stall_cycles": 300,
    "quantum_hit_time": 0,
    "quantum_miss_time": 0,
    "queueing_cycles": 0,
    "mem_interf_cycles": 0,
    "cache_interf_cycles": 0
   }
  ]
 }
}
`
	if string(got) != want {
		t.Fatalf("attribution golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestProgressEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	reg := telemetry.NewRegistry()
	reg.Counter("exp.items_done").Add(2)
	reg.Counter("sim.quanta").Add(99) // must be filtered out
	s.SetRegistry(reg)
	p := telemetry.NewProgress(io.Discard, "accuracy", time.Second)
	p.Add(5)
	p.StartItem("mix1")
	p.DoneItem("mix1", nil)
	p.StartItem("mix2")
	s.SetProgress(p)

	var resp progressResponse
	if err := json.Unmarshal(get(t, ts.URL+"/debug/asm/progress"), &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	st := resp.Progress
	if st.Label != "accuracy" || st.Total != 5 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("progress state = %+v", st)
	}
	if len(st.Running) != 1 || st.Running[0] != "mix2" {
		t.Fatalf("running = %v", st.Running)
	}
	if st.ElapsedNs <= 0 || st.ETANs <= 0 {
		t.Fatalf("elapsed/eta not populated: %+v", st)
	}
	if len(resp.Metrics) != 1 || resp.Metrics[0].Name != "exp.items_done" {
		t.Fatalf("progress metrics = %+v, want only exp.*", resp.Metrics)
	}
}

func TestIndexPage(t *testing.T) {
	_, ts := newTestServer(t)
	page := get(t, ts.URL+"/debug/asm/")
	for _, needle := range []string{"<!DOCTYPE html>", "asmsim live dashboard", "EventSource"} {
		if !bytes.Contains(page, []byte(needle)) {
			t.Fatalf("index page missing %q", needle)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/asm/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown subpath status = %d, want 404", resp.StatusCode)
	}
}

// TestQuantaSSE drives the full path: the Server as one member of a
// recorder fan-out, SSE framing
// over a real HTTP connection, clean termination on Server.Close.
func TestQuantaSSE(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/asm/quanta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	// Preamble: retry hint + open comment, then a blank line.
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("preamble: %v", err)
		}
		if line == "\n" {
			break
		}
	}
	// Wait for the subscription to register, then record through a
	// fan-out holding the dashboard.
	deadline := time.Now().Add(2 * time.Second)
	for s.bc.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	sink := telemetry.NewJSONLRecorder(io.Discard)
	chain := telemetry.Fanout(sink, s)
	chain.Record(&telemetry.QuantumRecord{
		Mix: "mcf+lbm", App: 1, Bench: "lbm", Quantum: 4,
		Actual: 2.25, Estimates: map[string]float64{"ASM": 2.1},
	})
	var ev, data string
	for data == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		switch {
		case strings.HasPrefix(line, "event: "):
			ev = strings.TrimSpace(strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
		}
	}
	if ev != "quantum" {
		t.Fatalf("event = %q, want quantum", ev)
	}
	var rec telemetry.QuantumRecord
	if err := json.Unmarshal([]byte(data), &rec); err != nil {
		t.Fatalf("frame payload: %v\n%s", err, data)
	}
	if rec.Mix != "mcf+lbm" || rec.App != 1 || rec.Quantum != 4 || rec.Actual != 2.25 {
		t.Fatalf("record = %+v", rec)
	}
	// Closing the dashboard ends the stream.
	s.Close()
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("stream should end cleanly after Close, got %v", err)
	}
}

// TestMountedRoutes pins the dashboard's route set: every route Mount
// registers answers 200 on a fresh server, and the removed multi-node
// routes are 404 (no route claims them, so the index handler refuses).
func TestMountedRoutes(t *testing.T) {
	_, ts := newTestServer(t)
	for path, want := range map[string]int{
		"/debug/asm/":            http.StatusOK,
		"/debug/asm/metrics":     http.StatusOK,
		"/debug/asm/quanta":      http.StatusOK,
		"/debug/asm/attribution": http.StatusOK,
		"/debug/asm/progress":    http.StatusOK,
		"/debug/asm/alerts":      http.StatusOK,
		"/debug/asm/alerts.json": http.StatusOK,
		"/debug/asm/fleet":       http.StatusNotFound,
		"/debug/asm/fleet.json":  http.StatusNotFound,
		"/debug/asm/hist":        http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close() // the SSE stream's headers are enough
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

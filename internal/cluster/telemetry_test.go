package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/faults"
	"asmsim/internal/telemetry"
)

// TestTelemetryCountsEvents: with injected failures, the cluster's event
// counters must agree with the audit log, and the serving/unplaced gauges
// must reflect the end-of-round state.
func TestTelemetryCountsEvents(t *testing.T) {
	cfg := testConfig()
	cfg.StaleTTL = -1 // fail immediately so drains happen fast
	cfg.Faults = faults.Config{Seed: 3, EvalFailProb: 0.5}
	c, err := New(cfg, Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.SetTelemetry(telemetry.Options{Metrics: reg})
	for r := 0; r < 4; r++ {
		if err := c.EvaluateRound(); err != nil {
			break // total loss is fine; counters must still agree
		}
	}
	byKind := map[string]uint64{}
	for _, e := range c.Events {
		byKind[e.Kind]++
	}
	if len(byKind) == 0 {
		t.Fatal("fault injection produced no events; raise EvalFailProb")
	}
	for kind, want := range byKind {
		if got := reg.Scope("cluster").Counter("events." + kind).Value(); got != want {
			t.Fatalf("counter events.%s = %d, audit log has %d", kind, got, want)
		}
	}
	serving := 0
	for _, m := range c.Machines() {
		if m.Health != Failed {
			serving++
		}
	}
	if got := reg.Scope("cluster").Gauge("serving").Value(); got != int64(serving) {
		t.Fatalf("serving gauge %d, want %d", got, serving)
	}
	if got := reg.Scope("cluster").Gauge("unplaced").Value(); got != int64(len(c.Unplaced)) {
		t.Fatalf("unplaced gauge %d, want %d", got, len(c.Unplaced))
	}
	if got := reg.Scope("cluster").Counter("rounds").Value(); got != uint64(c.Round()) {
		t.Fatalf("rounds counter %d, want %d", got, c.Round())
	}
}

// benchRecorder collects the benchmark names of the records it sees.
type benchRecorder map[string]bool

func (r benchRecorder) Record(rec *telemetry.QuantumRecord) { r[rec.Bench] = true }
func (r benchRecorder) Close() error                        { return nil }

// TestNodeObserversDoNotPerturbResults gives every machine the full set
// of per-node observers — tracer, recorder, metrics and attribution — and
// checks the balancer's results are reflect.DeepEqual to a bare run's,
// and that each node's observers saw only their own machine's work.
func TestNodeObserversDoNotPerturbResults(t *testing.T) {
	cfg, placement := traceTestConfig(t)
	schedule := func(c *Cluster, before func()) {
		t.Helper()
		for r := 0; r < 2; r++ {
			before()
			if err := c.EvaluateRound(); err != nil {
				t.Fatal(err)
			}
			if r == 0 {
				if _, err := c.Rebalance(0.1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	bare, err := New(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	schedule(bare, func() {})

	observed, err := New(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]telemetry.Options, cfg.Machines)
	recs := make([]benchRecorder, cfg.Machines)
	attributed := make([]int, cfg.Machines)
	for k := range nodes {
		recs[k] = benchRecorder{}
		nodes[k] = telemetry.Options{
			Trace:       evtrace.New(io.Discard, evtrace.Config{SampleEvery: 16}),
			Recorder:    recs[k],
			Metrics:     telemetry.NewRegistry(),
			Attribution: func(evtrace.QuantumAttribution) { attributed[k]++ },
		}
	}
	observed.SetTelemetry(telemetry.Options{Metrics: telemetry.NewRegistry()}, nodes...)
	ran := make([]benchRecorder, cfg.Machines) // jobs each machine was given
	schedule(observed, func() {
		for k, m := range observed.Machines() {
			if ran[k] == nil {
				ran[k] = benchRecorder{}
			}
			for _, job := range m.Jobs {
				ran[k][job] = true
			}
		}
	})

	if !reflect.DeepEqual(bare.Machines(), observed.Machines()) {
		t.Fatalf("node observers perturbed machine results:\nbare:     %+v\nobserved: %+v",
			bare.Machines(), observed.Machines())
	}
	if len(bare.Migrations) == 0 || !reflect.DeepEqual(bare.Migrations, observed.Migrations) {
		t.Fatalf("node observers perturbed migrations:\nbare:     %+v\nobserved: %+v",
			bare.Migrations, observed.Migrations)
	}
	for k, n := range nodes {
		if !reflect.DeepEqual(recs[k], ran[k]) {
			t.Errorf("node %d recorder saw jobs %v, want its machine's %v", k, recs[k], ran[k])
		}
		if want := 2 * cfg.RoundQuanta; attributed[k] != want {
			t.Errorf("node %d attribution saw %d quanta, want %d", k, attributed[k], want)
		}
		if len(n.Metrics.Snapshot()) == 0 {
			t.Errorf("node %d metrics registry is empty", k)
		}
		if err := n.Trace.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryNilRegistryIsNoop: an unattached cluster must work exactly
// as before.
func TestTelemetryNilRegistryIsNoop(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteLogsJSONL: the exported logs must be valid JSONL that
// round-trips, one line per entry.
func TestWriteLogsJSONL(t *testing.T) {
	cfg := testConfig()
	cfg.StaleTTL = -1
	cfg.Faults = faults.Config{Seed: 3, EvalFailProb: 0.5}
	c, err := New(cfg, Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if err := c.EvaluateRound(); err != nil {
			break
		}
	}
	if len(c.Events) == 0 || len(c.Drains) == 0 {
		t.Fatalf("want events and drains from injected failures; got %d/%d", len(c.Events), len(c.Drains))
	}

	var buf bytes.Buffer
	if err := c.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if e != c.Events[lines] {
			t.Fatalf("line %d round-trip mismatch: %+v vs %+v", lines, e, c.Events[lines])
		}
		lines++
	}
	if lines != len(c.Events) {
		t.Fatalf("%d JSONL lines for %d events", lines, len(c.Events))
	}
	// Tags must be lowercase for downstream tooling.
	var probe bytes.Buffer
	if err := c.WriteEventsJSONL(&probe); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(probe.String(), `"kind"`) || strings.Contains(probe.String(), `"Kind"`) {
		t.Fatalf("event JSON not lowercase: %s", probe.String())
	}

	buf.Reset()
	if err := c.WriteDrainsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines = 0
	sc = bufio.NewScanner(&buf)
	for sc.Scan() {
		var d Drain
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("drain line %d: %v", lines, err)
		}
		if d != c.Drains[lines] {
			t.Fatalf("drain line %d mismatch", lines)
		}
		lines++
	}
	if lines != len(c.Drains) {
		t.Fatalf("%d JSONL lines for %d drains", lines, len(c.Drains))
	}

	buf.Reset()
	if err := c.WriteMigrationsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asmsim/internal/faults"
	"asmsim/internal/telemetry"
)

// TestTelemetryCountsEvents: with injected failures, the cluster's event
// counters must agree with the audit log, and the serving/unplaced gauges
// must reflect the end-of-round state.
func TestTelemetryCountsEvents(t *testing.T) {
	cfg := testConfig()
	cfg.StaleTTL = -1 // fail immediately so drains happen fast
	cfg.MaxRetries = -1
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
	cfg.MaxRetries = -1
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

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
	"asmsim/internal/telemetry"
)

// TestTelemetryCountsEvents: the cluster's rounds counter counts the
// completed evaluation rounds.
func TestTelemetryCountsEvents(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.SetTelemetry(telemetry.Options{Metrics: reg})
	for r := 0; r < 2; r++ {
		if err := c.EvaluateRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Scope("cluster").Counter("rounds").Value(); got != uint64(c.Round()) || got != 2 {
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

// TestWriteLogsJSONL: the exported migration log must be valid JSONL
// that round-trips, one line per entry, with lowercase tags for
// downstream tooling.
func TestWriteLogsJSONL(t *testing.T) {
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
	if moved, err := c.Rebalance(0.05); err != nil || !moved {
		t.Fatalf("rebalance moved=%v err=%v, want one migration", moved, err)
	}

	var buf bytes.Buffer
	if err := c.WriteMigrationsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"swapped"`) || strings.Contains(buf.String(), `"Swapped"`) {
		t.Fatalf("migration JSON not lowercase: %s", buf.String())
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var mv Migration
		if err := json.Unmarshal(sc.Bytes(), &mv); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if mv != c.Migrations[lines] {
			t.Fatalf("line %d round-trip mismatch: %+v vs %+v", lines, mv, c.Migrations[lines])
		}
		lines++
	}
	if lines != len(c.Migrations) {
		t.Fatalf("%d JSONL lines for %d migrations", lines, len(c.Migrations))
	}
}

package cluster

import (
	"io"
	"reflect"
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

// TestNodeObserversDoNotPerturbResults traces every machine through its
// node view of one tracer, with a recorder and a metrics registry
// attached too, and checks the balancer's results are reflect.DeepEqual
// to a bare run's, and that the recorder saw every job.
func TestNodeObserversDoNotPerturbResults(t *testing.T) {
	cfg, placement := traceTestConfig(t)
	bare, err := New(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	evaluateMigrateEvaluate(t, bare)

	observed, err := New(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	tr := evtrace.New(io.Discard, evtrace.Config{SampleEvery: 16})
	rec := benchRecorder{}
	observed.SetTelemetry(telemetry.Options{Trace: tr, Recorder: rec, Metrics: telemetry.NewRegistry()})
	evaluateMigrateEvaluate(t, observed)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bare.Machines(), observed.Machines()) {
		t.Fatalf("observers perturbed machine results:\nbare:     %+v\nobserved: %+v",
			bare.Machines(), observed.Machines())
	}
	if len(bare.Migrations) == 0 || !reflect.DeepEqual(bare.Migrations, observed.Migrations) {
		t.Fatalf("observers perturbed migrations:\nbare:     %+v\nobserved: %+v",
			bare.Migrations, observed.Migrations)
	}
	want := benchRecorder{}
	for _, jobs := range placement {
		for _, job := range jobs {
			want[job] = true
		}
	}
	if !reflect.DeepEqual(rec, want) {
		t.Errorf("recorder saw jobs %v, want %v", rec, want)
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

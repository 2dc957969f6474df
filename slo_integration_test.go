package asmsim_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"asmsim"
	"asmsim/internal/core"
	"asmsim/internal/exp"
	"asmsim/internal/sim"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// sloTestConfig keeps the integration tests quick.
func sloTestConfig() asmsim.Config {
	cfg := asmsim.DefaultConfig()
	cfg.Quantum = 200_000
	cfg.ATSSampledSets = 64
	return cfg
}

// mustSpec parses an inline SLO spec.
func mustSpec(t *testing.T, src string) asmsim.SLOSpec {
	t.Helper()
	spec, err := slo.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// driftScale is the shared scale for the watchdog tests.
func driftScale() exp.Scale {
	return exp.Scale{
		WarmupQuanta:   1,
		MeasuredQuanta: 7,
		Quantum:        200_000,
		Epoch:          10_000,
		Seed:           7,
	}
}

func asmOnly() []core.Estimator { return []core.Estimator{core.NewASM()} }

// degradingEstimator wraps a model and starts multiplying its estimates
// after a number of quanta — the shape of a silently broken counter
// feed or a stale model, which the ISSUE's watchdog exists to catch.
// (Non-finite counters are already absorbed by the estimator sanitizers,
// so degradation is injected at the model's output.)
type degradingEstimator struct {
	inner core.Estimator
	calls int
	after int
	scale float64
}

func (d *degradingEstimator) Name() string { return d.inner.Name() }

func (d *degradingEstimator) Estimate(st *sim.QuantumStats) []float64 {
	out := d.inner.Estimate(st)
	d.calls++
	if d.calls <= d.after {
		return out
	}
	scaled := make([]float64, len(out))
	for i, v := range out {
		scaled[i] = v * d.scale
	}
	return scaled
}

// TestSLODriftWatchdogFlagsDegradedEstimator is the ISSUE's acceptance
// pair: the same accuracy SLO (default 10% envelope, the paper's
// headline error) over the same mix stays inactive on a clean run and
// fires within a few quanta once the estimator's output degrades to 3x
// the truth mid-run.
func TestSLODriftWatchdogFlagsDegradedEstimator(t *testing.T) {
	mix := workload.Mix{Names: []string{"mcf", "libquantum"}}

	run := func(t *testing.T, newEst exp.EstimatorSet) []asmsim.SLOAlertStatus {
		t.Helper()
		spec := mustSpec(t, `{"slos":[{"name":"asm-drift","signal":"accuracy"}]}`)
		eng := slo.New(spec, slo.Sinks{})
		sc := driftScale()
		sc.Telemetry.Recorder = eng
		if _, err := exp.RunAccuracy(context.Background(), sc.BaseConfig(), mix, newEst, sc); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil { // flush the trailing quantum
			t.Fatal(err)
		}
		return eng.Alerts()
	}

	clean := run(t, asmOnly)
	if got := clean[0].State; got != slo.Inactive {
		t.Fatalf("clean run: accuracy alert %v (ewma %.3f cusum %.3f), want inactive",
			got, clean[0].EWMA, clean[0].CUSUM)
	}
	if n := len(clean[0].Transitions); n != 0 {
		t.Fatalf("clean run recorded %d transitions: %+v", n, clean[0].Transitions)
	}

	const degradeAfter = 3
	degraded := run(t, func() []core.Estimator {
		return []core.Estimator{&degradingEstimator{inner: core.NewASM(), after: degradeAfter, scale: 3}}
	})
	var fired *slo.Transition
	for i, tr := range degraded[0].Transitions {
		if tr.To == slo.Firing {
			fired = &degraded[0].Transitions[i]
			break
		}
	}
	if fired == nil {
		t.Fatalf("degraded estimator never tripped the watchdog: state %v ewma %.3f cusum %.3f transitions %+v",
			degraded[0].State, degraded[0].EWMA, degraded[0].CUSUM, degraded[0].Transitions)
	}
	// Ticks are quantum-mean evaluations; firing must come after the
	// degradation point but within the run's window.
	if fired.Tick <= degradeAfter {
		t.Fatalf("watchdog fired at tick %d, before the degradation at quantum %d", fired.Tick, degradeAfter)
	}
}

// TestSLOCleanSweepStaysQuiet runs the default accuracy objective and a
// generous QoS bound over eight random 4-core mixes sharing one engine:
// ASM's normal ~10% error regime must not page anyone.
func TestSLOCleanSweepStaysQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mix sweep in -short")
	}
	spec := mustSpec(t, `{"slos":[
		{"name":"asm-acc","signal":"accuracy"},
		{"name":"qos-sla","signal":"qos","bound":10}
	]}`)
	eng := slo.New(spec, slo.Sinks{})
	sc := driftScale()
	sc.MeasuredQuanta = 3
	sc.Telemetry.Recorder = eng
	for _, mix := range workload.RandomMixes(workload.SPEC(), 4, 8, 42) {
		if _, err := exp.RunAccuracy(context.Background(), sc.BaseConfig(), mix, asmOnly, sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range eng.Alerts() {
		if a.State != slo.Inactive || len(a.Transitions) != 0 {
			t.Errorf("clean sweep: %s is %v with %d transitions (ewma %.3f cusum %.3f burn %.2f)",
				a.Name, a.State, len(a.Transitions), a.EWMA, a.CUSUM, a.BurnRate)
		}
	}
}

// TestClusterSLOAlerts checks the round-clock feed: a cluster whose jobs
// exceed a tight QoS bound pages after enough evaluation rounds, and the
// engine's flight dump lands on disk.
func TestClusterSLOAlerts(t *testing.T) {
	cl := fleetTestCluster(t)
	spec := mustSpec(t, `{"slos":[
		{"name":"cluster-qos","signal":"qos","bound":1.05,
		 "windows":[{"long":4,"short":2,"burn":2}],
		 "pending_ticks":1,"resolve_ticks":2}
	]}`)
	dir := t.TempDir()
	flight := telemetry.NewFlightRecorder(64, dir)
	eng := asmsim.NewSLOEngine(spec, asmsim.SLOSinks{Flight: flight})
	cl.SetTelemetry(asmsim.TelemetryOptions{Recorder: eng})
	for i := 0; i < 4; i++ {
		if err := cl.EvaluateRound(); err != nil {
			t.Fatal(err)
		}
	}
	alerts := eng.Alerts()
	if len(alerts) != 1 || alerts[0].State != slo.Firing {
		t.Fatalf("cluster qos alert: %+v", alerts)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*-slo-cluster-qos.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no flight dump written (err %v)", err)
	}
	if fi, err := os.Stat(dumps[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("flight dump empty or unreadable: %v", err)
	}
}

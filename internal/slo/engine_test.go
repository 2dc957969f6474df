package slo

import (
	"strings"
	"testing"

	"asmsim/internal/telemetry"
)

func qosSpec(t *testing.T) Spec {
	t.Helper()
	return mustParse(t, `{"slos":[
		{"name":"bound","signal":"qos","bound":2.0,
		 "windows":[{"long":8,"short":2,"burn":2}],
		 "pending_ticks":1,"resolve_ticks":2}
	]}`)
}

func rec(bench string, quantum int, actual float64, ests map[string]float64) *telemetry.QuantumRecord {
	return &telemetry.QuantumRecord{Bench: bench, Quantum: quantum, Actual: actual, Estimates: ests}
}

// TestEngineQoSFiresOnSustainedViolation drives a bound-violating
// slowdown stream through the full engine and checks the alert walks
// inactive → pending → firing, then resolves once the violation stops.
func TestEngineQoSFiresOnSustainedViolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	var events []AlertEvent
	e := New(qosSpec(t), Sinks{
		Metrics:      reg,
		OnTransition: func(ev AlertEvent) { events = append(events, ev) },
	})
	for q := 0; q < 6; q++ {
		e.Record(rec("mcf", q, 3.5, nil)) // above bound 2.0
	}
	st := e.Alerts()[0]
	if st.State != Firing {
		t.Fatalf("after sustained violation: state %v, want firing", st.State)
	}
	if st.Bad != 6 || st.Ticks != 6 {
		t.Errorf("counts: bad %d ticks %d, want 6/6", st.Bad, st.Ticks)
	}
	if st.BudgetRemaining != 0 {
		t.Errorf("budget: %v, want 0 after all-bad stream", st.BudgetRemaining)
	}
	for q := 6; q < 20; q++ {
		e.Record(rec("mcf", q, 1.2, nil)) // back under the bound
	}
	st = e.Alerts()[0]
	if st.State != Inactive {
		t.Fatalf("after recovery: state %v, want inactive (via resolved)", st.State)
	}
	var seq []string
	for _, ev := range events {
		seq = append(seq, ev.From.String()+">"+ev.To.String())
	}
	want := "inactive>pending pending>firing firing>resolved resolved>inactive"
	if got := strings.Join(seq, " "); got != want {
		t.Fatalf("transition sequence %q, want %q", got, want)
	}

	// The metric surfaces exist and carry the transition counts.
	snap := map[string]int64{}
	for _, m := range reg.Snapshot() {
		snap[m.Name] = m.Value
	}
	if snap["slo.alerts.firing"] != 1 || snap["slo.alerts.resolved"] != 1 {
		t.Errorf("transition counters: %+v", snap)
	}
	if _, ok := snap["slo.budget_remaining.bound"]; !ok {
		t.Errorf("missing budget gauge in snapshot %+v", snap)
	}
}

// TestEngineAppFilterAndMissingGroundTruth: records for other apps or
// without ground truth must not tick the SLO.
func TestEngineAppFilterAndMissingGroundTruth(t *testing.T) {
	spec := mustParse(t, `{"slos":[{"name":"b","signal":"qos","app":"mcf","bound":2.0}]}`)
	e := New(spec, Sinks{})
	e.Record(rec("libquantum", 0, 9.0, nil)) // wrong app
	e.Record(rec("mcf", 0, 0, nil))          // no ground truth
	if st := e.Alerts()[0]; st.Ticks != 0 {
		t.Fatalf("ticks %d, want 0 (filters must skip)", st.Ticks)
	}
}

// TestEngineDriftDetectorCatchesDegradation: a clean estimator
// (error ≈ envelope) stays inactive, then injected degradation (here:
// wildly wrong estimates, as fault-injected counter corruption
// produces) trips the drift condition within a few quanta.
func TestEngineDriftDetectorCatchesDegradation(t *testing.T) {
	spec := mustParse(t, `{"slos":[{"name":"acc","signal":"accuracy","pending_ticks":1}]}`)
	e := New(spec, Sinks{})
	// 50 clean quanta: |est-actual|/actual = 0.08, inside the envelope.
	for q := 0; q < 50; q++ {
		e.Record(rec("mcf", q, 2.0, map[string]float64{"ASM": 2.16}))
	}
	if st := e.Alerts()[0]; st.State != Inactive {
		t.Fatalf("clean stream: state %v, want inactive", st.State)
	}
	// Degradation: estimates 3x the actual (error 2.0 per quantum).
	fired := -1
	for q := 50; q < 60; q++ {
		e.Record(rec("mcf", q, 2.0, map[string]float64{"ASM": 6.0}))
		if e.Alerts()[0].State == Firing {
			fired = q - 50 + 1
			break
		}
	}
	if fired < 0 {
		t.Fatalf("drift detector never fired on 10 degraded quanta: %+v", e.Alerts()[0])
	}
	if fired > 4 {
		t.Errorf("drift detector took %d degraded quanta to fire, want <= 4", fired)
	}
}

// TestEngineNonFiniteEstimates: NaN/Inf estimates (corrupted counters)
// must count as hard errors, not poison the EWMA into NaN.
func TestEngineNonFiniteEstimates(t *testing.T) {
	spec := mustParse(t, `{"slos":[{"name":"acc","signal":"accuracy","pending_ticks":1}]}`)
	e := New(spec, Sinks{})
	nan := 0.0
	nan /= nan
	for q := 0; q < 5; q++ {
		e.Record(rec("mcf", q, 2.0, map[string]float64{"ASM": nan}))
	}
	st := e.Alerts()[0]
	if st.State != Firing {
		t.Fatalf("NaN estimates: state %v, want firing", st.State)
	}
	if st.EWMA != st.EWMA { // NaN check
		t.Fatal("EWMA went NaN; non-finite errors must map to a finite sentinel")
	}
}

// TestEngineLatency: histogram snapshots above/below target drive the
// latency SLO; absent or empty metrics are skipped.
func TestEngineLatency(t *testing.T) {
	spec := mustParse(t, `{"slos":[
		{"name":"p99","signal":"latency","metric":"serve.job_latency_ns","target_ms":1.0,
		 "windows":[{"long":4,"short":2,"burn":2}],"pending_ticks":1,"resolve_ticks":2}
	]}`)
	e := New(spec, Sinks{})
	e.ObserveLatency(nil) // no metric: skip
	e.ObserveLatency(map[string]telemetry.HistogramSnapshot{"serve.job_latency_ns": {}})
	if st := e.Alerts()[0]; st.Ticks != 0 {
		t.Fatalf("empty snapshots ticked the SLO: %+v", st)
	}
	reg := telemetry.NewRegistry()
	h := reg.Histogram("serve.job_latency_ns")
	for i := 0; i < 1000; i++ {
		h.Observe(5_000_000) // 5ms, above the 1ms target
	}
	for i := 0; i < 4; i++ {
		e.ObserveLatency(reg.SnapshotHistograms())
	}
	if st := e.Alerts()[0]; st.State != Firing {
		t.Fatalf("slow histogram: state %v, want firing (last %vms)", st.State, st.LastValue)
	}
}

// TestEngineNilSafety: every method must be a no-op on a nil engine.
func TestEngineNilSafety(t *testing.T) {
	var e *Engine
	e.Record(rec("mcf", 0, 2.0, nil))
	e.ObserveLatency(nil)
	if e.Alerts() != nil || e.HasSignal(SignalQoS) {
		t.Fatal("nil engine must report nothing")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	stop := e.StartLatencyLoop(nil, 0)
	stop()
}

package slo

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
)

// nonFiniteError is the deterministic relative error assigned to a
// non-finite slowdown estimate (NaN/Inf, e.g. from a model fed a zero or
// non-finite counter): 10 = 1000%, far beyond any sane envelope, so a
// poisoned estimator trips the drift detector within a couple of
// observations instead of silently vanishing from the average.
const nonFiniteError = 10.0

// transitionLogCap bounds each alert's retained transition history.
const transitionLogCap = 512

// Transition is one recorded state-machine edge.
type Transition struct {
	Tick   uint64  `json:"tick"`
	From   State   `json:"from"`
	To     State   `json:"to"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

// AlertStatus is one SLO's externally visible evaluation state — the
// document served by /debug/asm/alerts.json.
type AlertStatus struct {
	Name   string `json:"name"`
	Signal string `json:"signal"`
	State  State  `json:"state"`
	// SinceTick is the evaluation tick of the last state change.
	SinceTick uint64 `json:"since_tick"`
	// Ticks is the total number of evaluations so far; Bad the total
	// budget-consuming events among them.
	Ticks uint64 `json:"ticks"`
	Bad   uint64 `json:"bad"`
	// BurnRate is the strongest current multi-window evidence (max over
	// pairs of min(long, short) burn).
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is the cumulative error budget left, in [0, 1].
	BudgetRemaining float64 `json:"budget_remaining"`
	// EWMA and CUSUM expose the drift detector (accuracy SLOs only).
	EWMA  float64 `json:"ewma,omitempty"`
	CUSUM float64 `json:"cusum,omitempty"`
	// LastValue is the most recent observation (slowdown, relative
	// error, or latency in ms depending on the signal).
	LastValue float64 `json:"last_value"`
	// Transitions is the bounded state-change log, oldest first.
	Transitions []Transition `json:"transitions,omitempty"`
}

// AlertEvent is one state transition as published to sinks (SSE frames,
// OnTransition callbacks).
type AlertEvent struct {
	SLO    string  `json:"slo"`
	Signal string  `json:"signal"`
	From   State   `json:"from"`
	To     State   `json:"to"`
	Tick   uint64  `json:"tick"`
	Value  float64 `json:"value"`
	Burn   float64 `json:"burn"`
	Detail string  `json:"detail,omitempty"`
}

// Sinks are the alert surfaces an Engine drives. Every field is
// optional; the zero value evaluates silently (Alerts() still works).
type Sinks struct {
	// Metrics receives slo.budget_remaining.<name> (basis points),
	// slo.burn_rate.<name> (milli) gauges and slo.alerts.<state>
	// transition counters.
	Metrics *telemetry.Registry
	// Log receives one structured record per transition (Warn when a
	// firing edge, Info otherwise).
	Log *slog.Logger
	// Flight gets a note and a dump ("slo-<name>") when an alert fires.
	Flight *telemetry.FlightRecorder
	// Trace gets one instant event per transition at the quantum's end
	// cycle, so Perfetto shows exactly which quanta broke the bound.
	Trace *evtrace.Tracer
	// OnTransition runs synchronously under the engine lock for every
	// state change (the dash broadcaster's SSE feed). Must not block.
	OnTransition func(AlertEvent)
}

// accAgg accumulates one mix's per-app errors within a quantum, so the
// drift detector ticks on the quantum-mean error (the paper's accuracy
// metric) instead of the far noisier per-app stream.
type accAgg struct {
	quantum int
	cycle   uint64
	sum     float64
	n       int
}

// instance is one SLO's evaluation state.
type instance struct {
	slo  SLO
	m    machine
	ring *eventRing

	ticks     uint64
	bad       uint64
	sinceTick uint64
	ewma      float64
	cusum     float64
	lastValue float64
	lastBurn  float64

	// agg holds per-mix quantum accumulators (accuracy SLOs only; keyed
	// by Mix so interleaved sweep workers do not cross-contaminate).
	agg map[string]*accAgg

	transitions []Transition

	budgetGauge *telemetry.Gauge
	burnGauge   *telemetry.Gauge
}

// Engine evaluates a Spec against the observation streams. It
// implements telemetry.Recorder so it rides the same fan-out as every
// other observer of the per-quantum stream; evaluation is read-only
// over the records and never feeds anything back into the simulation. A
// nil *Engine is a no-op on every method.
type Engine struct {
	mu    sync.Mutex
	insts []*instance
	sinks Sinks

	counters map[string]*telemetry.Counter // transition counters by state
}

// New builds an engine for a validated spec (use Load/Parse).
func New(spec Spec, sinks Sinks) *Engine {
	e := &Engine{sinks: sinks, counters: map[string]*telemetry.Counter{}}
	scope := sinks.Metrics.Scope("slo")
	for _, o := range spec.SLOs {
		maxLong := 1
		for _, w := range o.Windows {
			if w.Long > maxLong {
				maxLong = w.Long
			}
		}
		in := &instance{
			slo:         o,
			m:           machine{pendingTicks: o.PendingTicks, resolveTicks: o.ResolveTicks},
			ring:        newEventRing(maxLong),
			budgetGauge: scope.Gauge("budget_remaining." + o.Name),
			burnGauge:   scope.Gauge("burn_rate." + o.Name),
		}
		if o.Signal == SignalAccuracy {
			in.agg = map[string]*accAgg{}
			// Seed the EWMA at the envelope rather than the first sample:
			// a cold first quantum's outsized error must raise the average
			// gradually, not dominate it.
			in.ewma = o.Envelope
		}
		e.insts = append(e.insts, in)
	}
	for _, s := range stateNames {
		e.counters[s] = scope.Counter("alerts." + s)
	}
	// Budget starts whole.
	for _, in := range e.insts {
		in.budgetGauge.Set(10000)
	}
	return e
}

// HasSignal reports whether any configured SLO evaluates the given
// signal class (callers skip wiring a latency loop when no latency SLO
// exists).
func (e *Engine) HasSignal(signal string) bool {
	if e == nil {
		return false
	}
	for _, in := range e.insts {
		if in.slo.Signal == signal {
			return true
		}
	}
	return false
}

// Record implements telemetry.Recorder: one (app, quantum) snapshot
// feeds every matching qos and accuracy SLO. Latency SLOs ignore the
// quantum stream.
func (e *Engine) Record(rec *telemetry.QuantumRecord) {
	if e == nil || rec == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cycle := rec.EndCycle
	for _, in := range e.insts {
		if in.slo.App != "" && in.slo.App != rec.Bench {
			continue
		}
		switch in.slo.Signal {
		case SignalQoS:
			if rec.Actual <= 0 { // no ground truth ran
				continue
			}
			bad := rec.Actual > in.slo.Bound
			e.tick(in, bad, false, rec.Actual, cycle)
		case SignalAccuracy:
			if rec.Actual <= 0 {
				continue
			}
			est, ok := rec.Estimates[in.slo.Estimator]
			if !ok {
				continue
			}
			err := math.Abs(est-rec.Actual) / rec.Actual
			if math.IsNaN(err) || math.IsInf(err, 0) {
				err = nonFiniteError
			}
			// Per-app errors accumulate until the mix's quantum advances,
			// then the quantum-mean error ticks the detector: one app's
			// noisy quantum must not page when the model tracks the mix.
			a := in.agg[rec.Mix]
			if a == nil {
				a = &accAgg{quantum: rec.Quantum}
				in.agg[rec.Mix] = a
			}
			if a.n > 0 && a.quantum != rec.Quantum {
				e.flushAccuracy(in, a)
			}
			a.quantum, a.cycle = rec.Quantum, cycle
			a.sum += err
			a.n++
		}
	}
}

// flushAccuracy folds one accumulated quantum into the drift detector
// and resets the accumulator. Caller holds e.mu.
func (e *Engine) flushAccuracy(in *instance, a *accAgg) {
	mean := a.sum / float64(a.n)
	a.sum, a.n = 0, 0
	in.ewma = in.slo.EWMAAlpha*mean + (1-in.slo.EWMAAlpha)*in.ewma
	in.cusum = math.Max(0, in.cusum+mean-(in.slo.Envelope+in.slo.CUSUMSlack))
	bad := mean > in.slo.Envelope
	drift := in.ewma > in.slo.Envelope+in.slo.CUSUMSlack || in.cusum >= in.slo.CUSUMThreshold
	e.tick(in, bad, drift, mean, a.cycle)
}

// Close implements telemetry.Recorder by flushing every accuracy SLO's
// trailing quantum (the stream's end is the only signal that the last
// quantum completed).
func (e *Engine) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, in := range e.insts {
		mixes := make([]string, 0, len(in.agg))
		for mix := range in.agg {
			mixes = append(mixes, mix)
		}
		sort.Strings(mixes) // deterministic flush order
		for _, mix := range mixes {
			if a := in.agg[mix]; a.n > 0 {
				e.flushAccuracy(in, a)
			}
		}
	}
	return nil
}

// ObserveLatency evaluates every latency SLO against one histogram
// snapshot set (as returned by Registry.SnapshotHistograms). SLOs whose
// metric is absent or empty are skipped, not failed.
func (e *Engine) ObserveLatency(snaps map[string]telemetry.HistogramSnapshot) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, in := range e.insts {
		if in.slo.Signal != SignalLatency {
			continue
		}
		snap, ok := snaps[in.slo.Metric]
		if !ok || snap.Count == 0 {
			continue
		}
		q := 0.99
		if in.slo.Quantile == "p999" {
			q = 0.999
		}
		ms := float64(snap.Quantile(q)) / 1e6
		e.tick(in, ms > in.slo.TargetMS, false, ms, in.ticks+1)
	}
}

// StartLatencyLoop polls reg's histograms every interval (default 5s)
// and feeds ObserveLatency until the returned stop function is called.
// It is a no-op (returning a no-op stop) when the engine is nil or has
// no latency SLOs.
func (e *Engine) StartLatencyLoop(reg *telemetry.Registry, interval time.Duration) func() {
	if e == nil || reg == nil || !e.HasSignal(SignalLatency) {
		return func() {}
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				e.ObserveLatency(reg.SnapshotHistograms())
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// tick pushes one outcome into an instance, advances its state machine
// and fires sink side effects on transitions. Caller holds e.mu.
func (e *Engine) tick(in *instance, bad, drift bool, value float64, cycle uint64) {
	in.ticks++
	in.lastValue = value
	if bad {
		in.bad++
	}
	in.ring.push(bad)
	cond, rate := in.ring.burnCondition(in.slo.Windows, in.slo.Objective)
	cond = cond || drift
	in.lastBurn = rate

	budget := 1.0
	if in.ticks > 0 {
		spent := float64(in.bad) / (float64(in.ticks) * (1 - in.slo.Objective))
		budget = math.Max(0, 1-spent)
	}
	in.budgetGauge.Set(int64(budget * 10000))
	in.burnGauge.Set(int64(rate * 1000))

	from, to := in.m.step(cond)
	if from == to {
		return
	}
	in.sinceTick = in.ticks
	detail := fmt.Sprintf("value=%.4g burn=%.3g budget=%.3g", value, rate, budget)
	if in.slo.Signal == SignalAccuracy {
		detail += fmt.Sprintf(" ewma=%.3g cusum=%.3g", in.ewma, in.cusum)
	}
	in.transitions = append(in.transitions, Transition{
		Tick: in.ticks, From: from, To: to, Value: value, Detail: detail,
	})
	if len(in.transitions) > transitionLogCap {
		in.transitions = in.transitions[len(in.transitions)-transitionLogCap:]
	}
	e.counters[to.String()].Inc()

	ev := AlertEvent{
		SLO: in.slo.Name, Signal: in.slo.Signal, From: from, To: to,
		Tick: in.ticks, Value: value, Burn: rate, Detail: detail,
	}
	if l := e.sinks.Log; l != nil {
		msg := "slo alert transition"
		attrs := []any{
			"slo", in.slo.Name, "signal", in.slo.Signal,
			"from", from.String(), "to", to.String(),
			"tick", in.ticks, "value", value, "burn", rate,
		}
		if to == Firing {
			l.Warn(msg, attrs...)
		} else {
			l.Info(msg, attrs...)
		}
	}
	if to == Firing {
		e.sinks.Flight.Note("slo-firing", "", in.slo.Name, detail)
		e.sinks.Flight.Dump("slo-" + in.slo.Name)
	}
	e.sinks.Trace.Instant("slo:"+in.slo.Name, "slo", cycle, map[string]any{
		"from": from.String(), "to": to.String(),
		"value": value, "burn": rate, "tick": in.ticks,
	})
	if e.sinks.OnTransition != nil {
		e.sinks.OnTransition(ev)
	}
}

// Alerts returns every SLO's current status in spec order. Safe on a
// nil engine (returns nil).
func (e *Engine) Alerts() []AlertStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, len(e.insts))
	for _, in := range e.insts {
		budget := 1.0
		if in.ticks > 0 {
			spent := float64(in.bad) / (float64(in.ticks) * (1 - in.slo.Objective))
			budget = math.Max(0, 1-spent)
		}
		st := AlertStatus{
			Name: in.slo.Name, Signal: in.slo.Signal, State: in.m.state,
			SinceTick: in.sinceTick, Ticks: in.ticks, Bad: in.bad,
			BurnRate: in.lastBurn, BudgetRemaining: budget,
			LastValue:   in.lastValue,
			Transitions: append([]Transition(nil), in.transitions...),
		}
		if in.slo.Signal == SignalAccuracy {
			st.EWMA, st.CUSUM = in.ewma, in.cusum
		}
		out = append(out, st)
	}
	return out
}

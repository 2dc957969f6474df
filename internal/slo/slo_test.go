package slo

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, doc string) Spec {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

// defaultsDoc declares one SLO of each signal with every optional field
// left to its default.
const defaultsDoc = `{"slos":[
	{"name":"qos-mcf","signal":"qos","app":"mcf","bound":3.0},
	{"name":"asm-acc","signal":"accuracy"},
	{"name":"lat","signal":"latency","target_ms":250}
]}`

func TestParseDefaults(t *testing.T) {
	s := mustParse(t, defaultsDoc)
	q := s.SLOs[0]
	if q.Objective != 0.95 || q.PendingTicks != 2 || q.ResolveTicks != 4 {
		t.Errorf("qos defaults: %+v", q)
	}
	if len(q.Windows) != 2 || q.Windows[0].Long != 24 || q.Windows[1].Burn != 2 {
		t.Errorf("default windows: %+v", q.Windows)
	}
	a := s.SLOs[1]
	if a.Estimator != "ASM" || a.Envelope != 0.10 || a.EWMAAlpha != 0.2 {
		t.Errorf("accuracy defaults: %+v", a)
	}
	if a.CUSUMSlack != a.Envelope || a.CUSUMThreshold != 2.0 || a.Objective != 0.25 {
		t.Errorf("accuracy drift defaults: %+v", a)
	}
	l := s.SLOs[2]
	if l.Metric != "serve.job_latency_ns" || l.Quantile != "p99" || l.Objective != 0.99 {
		t.Errorf("latency defaults: %+v", l)
	}
}

// rejectCases are invalid specs and the error each must produce.
var rejectCases = []struct{ doc, want string }{
	{`{}`, "no slos"},
	{`{"slos":[{"signal":"qos","bound":2}]}`, "name is required"},
	{`{"slos":[{"name":"a","signal":"qos","bound":2},{"name":"a","signal":"qos","bound":2}]}`, "duplicate"},
	{`{"slos":[{"name":"a","signal":"qos","bound":0.5}]}`, "bound must be > 1"},
	{`{"slos":[{"name":"a","signal":"nope"}]}`, "unknown signal"},
	{`{"slos":[{"name":"a","signal":"latency"}]}`, "target_ms"},
	{`{"slos":[{"name":"a","signal":"latency","target_ms":10,"quantile":"p50"}]}`, "quantile"},
	{`{"slos":[{"name":"a","signal":"qos","bound":2,"objective":1.5}]}`, "objective"},
	{`{"slos":[{"name":"a","signal":"qos","bound":2,"windows":[{"long":3,"short":9,"burn":2}]}]}`, "short <= long"},
	{`{"slos":[{"name":"a","signal":"qos","bound":2,"windows":[{"long":9,"short":3}]}]}`, "burn must be"},
	{`{"slos":[{"name":"a","signal":"accuracy","envelope":1.5}]}`, "envelope"},
}

func TestParseRejects(t *testing.T) {
	for _, c := range rejectCases {
		if _, err := Parse([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%s): err %v, want containing %q", c.doc, err, c.want)
		}
	}
}

// FuzzSLOParse: Parse never panics, and a spec it accepts re-marshals to
// a document it accepts again, unchanged — normalization is idempotent.
// Seeded with the defaults and rejection tests' documents.
func FuzzSLOParse(f *testing.F) {
	f.Add([]byte(defaultsDoc))
	for _, c := range rejectCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(b)
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("re-parse changed the spec:\n%+v\n%+v", s, again)
		}
	})
}

// TestMachineNeverSkipsPending drives the state machine with every
// 12-bit condition sequence and asserts no inactive→firing edge ever
// appears, firing is only reachable through pending, and resolved lasts
// exactly one tick.
func TestMachineNeverSkipsPending(t *testing.T) {
	const bits = 12
	for mask := 0; mask < 1<<bits; mask++ {
		m := machine{pendingTicks: 2, resolveTicks: 3}
		prevTo := Inactive
		for i := 0; i < bits; i++ {
			cond := mask&(1<<i) != 0
			from, to := m.step(cond)
			if from != prevTo {
				t.Fatalf("mask %#x tick %d: from %v does not chain to previous %v", mask, i, from, prevTo)
			}
			if from == Inactive && to == Firing {
				t.Fatalf("mask %#x tick %d: inactive skipped straight to firing", mask, i)
			}
			if from == Inactive && to == Resolved {
				t.Fatalf("mask %#x tick %d: inactive jumped to resolved", mask, i)
			}
			if to == Firing && from != Pending && from != Firing {
				t.Fatalf("mask %#x tick %d: firing entered from %v", mask, i, from)
			}
			if from == Resolved && to == Resolved {
				t.Fatalf("mask %#x tick %d: resolved persisted past one tick", mask, i)
			}
			prevTo = to
		}
	}
}

// TestMachineResolveRequiresSustainedRecovery asserts a firing alert
// stays firing while clear ticks are interrupted, and resolves only
// after resolveTicks consecutive clears.
func TestMachineResolveRequiresSustainedRecovery(t *testing.T) {
	m := machine{pendingTicks: 1, resolveTicks: 3}
	m.step(true) // inactive -> pending
	m.step(true) // pending -> firing
	if m.state != Firing {
		t.Fatalf("setup: state %v, want firing", m.state)
	}
	// Two clears, one interruption, then three clears.
	for _, cond := range []bool{false, false, true, false, false} {
		if _, to := m.step(cond); to != Firing {
			t.Fatalf("interrupted recovery left firing early (state %v)", to)
		}
	}
	if _, to := m.step(false); to != Resolved {
		t.Fatalf("third consecutive clear: state %v, want resolved", to)
	}
	if _, to := m.step(false); to != Inactive {
		t.Fatalf("resolved decay: state %v, want inactive", to)
	}
}

// TestMachinePendingResets asserts a condition gap while pending drops
// back to inactive (the hold counter must not survive).
func TestMachinePendingResets(t *testing.T) {
	m := machine{pendingTicks: 2, resolveTicks: 2}
	m.step(true)
	m.step(true) // held=1 of 2
	if _, to := m.step(false); to != Inactive {
		t.Fatalf("gap while pending: state %v, want inactive", to)
	}
	m.step(true)
	m.step(true)
	if _, to := m.step(true); to != Firing {
		t.Fatalf("sustained condition: state %v, want firing", to)
	}
}

// TestBurnRingMatchesSortedOracle cross-checks the ring's windowed burn
// math against a brute-force recount over a plain slice.
func TestBurnRingMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	windows := []WindowPair{{Long: 24, Short: 3, Burn: 4}, {Long: 96, Short: 12, Burn: 2}}
	objective := 0.95 // variable, so oracle and ring share float semantics
	r := newEventRing(96)
	var history []bool
	oracleBurn := func(w int) float64 {
		if w > len(history) {
			w = len(history)
		}
		if w == 0 {
			return 0
		}
		bad := 0
		for _, b := range history[len(history)-w:] {
			if b {
				bad++
			}
		}
		return (float64(bad) / float64(w)) / (1 - objective)
	}
	for i := 0; i < 500; i++ {
		bad := rng.Float64() < 0.3
		r.push(bad)
		history = append(history, bad)
		for _, w := range []int{3, 12, 24, 96} {
			got := r.burn(w, objective)
			want := oracleBurn(w)
			if got != want {
				t.Fatalf("tick %d window %d: ring burn %v, oracle %v", i, w, got, want)
			}
		}
		cond, rate := r.burnCondition(windows, objective)
		wantCond := false
		wantRate := 0.0
		for _, w := range windows {
			bl, bs := oracleBurn(w.Long), oracleBurn(w.Short)
			pair := bl
			if bs < pair {
				pair = bs
			}
			if pair > wantRate {
				wantRate = pair
			}
			if bl >= w.Burn && bs >= w.Burn {
				wantCond = true
			}
		}
		if cond != wantCond || rate != wantRate {
			t.Fatalf("tick %d: condition (%v, %v), oracle (%v, %v)", i, cond, rate, wantCond, wantRate)
		}
	}
}

// TestMachineDeterministicReplay replays one recorded condition stream
// twice and asserts the transition logs are identical.
func TestMachineDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := make([]bool, 400)
	for i := range stream {
		stream[i] = rng.Float64() < 0.4
	}
	run := func() []Transition {
		m := machine{pendingTicks: 2, resolveTicks: 4}
		var log []Transition
		for i, cond := range stream {
			from, to := m.step(cond)
			if from != to {
				log = append(log, Transition{Tick: uint64(i), From: from, To: to})
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("replay stream produced no transitions; test is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%v\nvs\n%v", a, b)
	}
}

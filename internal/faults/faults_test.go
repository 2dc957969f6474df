package faults

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"asmsim/internal/sim"
)

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if err := in.FailEval(0, 0); err != nil {
		t.Fatal("nil injector injected an eval failure")
	}
	if in.OutageStarts(0, 0) {
		t.Fatal("nil injector started an outage")
	}
	if in.OutageLen() != 1 {
		t.Fatal("nil injector outage length")
	}
	st := &sim.QuantumStats{Apps: make([]sim.AppQuantum, 2)}
	got, corrupted := in.CorruptStats("site", st)
	if corrupted || got != st {
		t.Fatal("nil injector corrupted a snapshot")
	}
}

func TestDisabledConfigYieldsNilInjector(t *testing.T) {
	if New(Config{Seed: 42}) != nil {
		t.Fatal("zero-prob config must produce the nil injector")
	}
	if New(Config{Seed: 42, EvalFailProb: 0.5}) == nil {
		t.Fatal("enabled config produced no injector")
	}
}

func TestValidate(t *testing.T) {
	for _, bad := range []Config{
		{EvalFailProb: -0.1},
		{CorruptProb: 2},
		{OutageProb: -1},
		{EvalFailProb: math.NaN()},
		{CorruptProb: math.NaN()},
		{OutageProb: math.NaN()},
		{HandlerLatencyProb: math.NaN()},
		{JobDropProb: math.NaN()},
		{JournalFailProb: math.NaN()},
		{OutageRounds: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	ok := Config{Seed: 1, EvalFailProb: 0.3, CorruptProb: 1, OutageProb: 0.05, OutageRounds: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism: injection decisions are pure functions of (seed, site) —
// two injectors with the same config agree at every site, regardless of
// query order.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, EvalFailProb: 0.3, CorruptProb: 0.5}
	a, b := New(cfg), New(cfg)
	// Query b in reverse order: order independence is the point.
	type key struct{ m, r int }
	got := map[key]bool{}
	for m := 0; m < 4; m++ {
		for r := 0; r < 10; r++ {
			got[key{m, r}] = a.FailEval(m, r) != nil
		}
	}
	for m := 3; m >= 0; m-- {
		for r := 9; r >= 0; r-- {
			if (b.FailEval(m, r) != nil) != got[key{m, r}] {
				t.Fatalf("machine %d round %d: injectors disagree", m, r)
			}
		}
	}
	// The chaos must actually do something at these probabilities.
	fails := 0
	for _, v := range got {
		if v {
			fails++
		}
	}
	if fails == 0 || fails == len(got) {
		t.Fatalf("%d/%d sites failed — probabilistic injection looks broken", fails, len(got))
	}
}

// TestSeededEvalFailSites pins the (machine, round) sites seed 7 fails
// at EvalFailProb 0.3: the same sites it failed when evaluations were
// still retried and FailEval rolled per attempt (these are its attempt-0
// failures).
func TestSeededEvalFailSites(t *testing.T) {
	in := New(Config{Seed: 7, EvalFailProb: 0.3})
	want := [][2]int{{0, 1}, {0, 2}, {0, 5}, {1, 1}, {1, 2}, {2, 0}, {3, 1}, {3, 2}, {3, 4}}
	var got [][2]int
	for m := 0; m < 4; m++ {
		for r := 0; r < 6; r++ {
			if in.FailEval(m, r) != nil {
				got = append(got, [2]int{m, r})
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 7 fails sites %v, want %v", got, want)
	}
}

// TestScriptedEvalFailure: EvalFailProb 1 fails every matching
// evaluation with an EvalFailure that unwraps to ErrInjected.
func TestScriptedEvalFailure(t *testing.T) {
	in := New(Config{Seed: 1, EvalFailProb: 1})
	for round := 0; round < 3; round++ {
		err := in.FailEval(0, round)
		if err == nil {
			t.Fatalf("round %d did not fail", round)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("injected fault does not unwrap to ErrInjected: %v", err)
		}
		var f *Fault
		if !errors.As(err, &f) || f.Kind != EvalFailure {
			t.Fatalf("wrong fault: %v", err)
		}
	}
}

func TestMachineAndRoundRestrictions(t *testing.T) {
	in := New(Config{Seed: 1, EvalFailProb: 1, Machines: []int{1}, Rounds: []int{2, 3}})
	if err := in.FailEval(0, 2); err != nil {
		t.Fatal("unlisted machine failed")
	}
	if err := in.FailEval(1, 0); err != nil {
		t.Fatal("unlisted round failed")
	}
	if err := in.FailEval(1, 2); err == nil {
		t.Fatal("listed machine+round did not fail")
	}
	if err := in.FailEval(1, 3); err == nil {
		t.Fatal("second listed round did not fail")
	}
}

func TestOutage(t *testing.T) {
	in := New(Config{Seed: 3, OutageProb: 1, OutageRounds: 3, Rounds: []int{1}})
	if in.OutageStarts(0, 0) {
		t.Fatal("outage outside scripted round")
	}
	if !in.OutageStarts(0, 1) {
		t.Fatal("scripted outage did not start")
	}
	if in.OutageLen() != 3 {
		t.Fatalf("outage length %d", in.OutageLen())
	}
	if New(Config{Seed: 3, OutageProb: 1}).OutageLen() != 1 {
		t.Fatal("default outage length must be 1")
	}
}

func TestCorruptStatsClonesAndPlantsNonFinite(t *testing.T) {
	in := New(Config{Seed: 5, CorruptProb: 1})
	st := &sim.QuantumStats{
		Quantum: 2,
		Apps: []sim.AppQuantum{
			{MemInterfCycles: 10, PFContentionExtra: 20, ATSContentionExtra: 30, ATSHitsAtWay: []uint64{1, 2}},
			{MemInterfCycles: 1, PFContentionExtra: 2, ATSContentionExtra: 3},
		},
	}
	cp, corrupted := in.CorruptStats("site", st)
	if !corrupted {
		t.Fatal("CorruptProb 1 did not corrupt")
	}
	if cp == st {
		t.Fatal("corruption mutated the original snapshot pointer")
	}
	// Original must be untouched (ground truth reads it).
	for a, aq := range st.Apps {
		if math.IsNaN(aq.MemInterfCycles) || math.IsInf(aq.PFContentionExtra, 0) || math.IsNaN(aq.ATSContentionExtra) {
			t.Fatalf("original app %d counters corrupted", a)
		}
	}
	// Every app in the copy must have exactly one non-finite counter.
	for a := range cp.Apps {
		aq := &cp.Apps[a]
		bad := 0
		for _, v := range []float64{aq.MemInterfCycles, aq.PFContentionExtra, aq.ATSContentionExtra} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad++
			}
		}
		if bad != 1 {
			t.Fatalf("app %d has %d non-finite counters, want 1", a, bad)
		}
	}
	// Deep copy: shared slices would let later mutation leak through.
	cp.Apps[0].ATSHitsAtWay[0] = 99
	if st.Apps[0].ATSHitsAtWay[0] == 99 {
		t.Fatal("CorruptStats returned a shallow copy")
	}
	// Same site+quantum corrupts identically across injectors.
	cp2, _ := New(Config{Seed: 5, CorruptProb: 1}).CorruptStats("site", st)
	for a := range cp.Apps {
		if math.IsNaN(cp.Apps[a].MemInterfCycles) != math.IsNaN(cp2.Apps[a].MemInterfCycles) {
			t.Fatalf("corruption pattern not deterministic at app %d", a)
		}
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		EvalFailure: "evaluation failure",
		Corruption:  "counter corruption",
		Outage:      "machine outage",
	} {
		if k.String() != want {
			t.Fatalf("%d: %q", int(k), k.String())
		}
	}
}

// TestServiceFaultSites covers the service-layer sites: handler latency
// injection, job drops and journal-write failures, all deterministic in
// (seed, site) and nil-safe.
func TestServiceFaultSites(t *testing.T) {
	var nilIn *Injector
	if d := nilIn.HandlerDelay("GET /api/jobs"); d != 0 {
		t.Fatal("nil injector injected handler latency")
	}
	if err := nilIn.DropJob("fp"); err != nil {
		t.Fatal("nil injector dropped a job")
	}
	if err := nilIn.FailJournalWrite(1); err != nil {
		t.Fatal("nil injector failed a journal write")
	}

	always := New(Config{Seed: 7, HandlerLatencyProb: 1, JobDropProb: 1, JournalFailProb: 1})
	if d := always.HandlerDelay("GET /api/jobs"); d != defaultHandlerLatency {
		t.Fatalf("default handler delay = %v, want %v", d, defaultHandlerLatency)
	}
	custom := New(Config{Seed: 7, HandlerLatencyProb: 1, HandlerLatency: 42 * time.Millisecond})
	if d := custom.HandlerDelay("x"); d != 42*time.Millisecond {
		t.Fatalf("custom handler delay = %v", d)
	}
	err := always.DropJob("fp")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("DropJob error %v does not wrap ErrInjected", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != JobDrop {
		t.Fatalf("DropJob fault = %+v, want JobDrop", f)
	}
	err = always.FailJournalWrite(3)
	if !errors.As(err, &f) || f.Kind != JournalWrite {
		t.Fatalf("FailJournalWrite fault = %+v, want JournalWrite", f)
	}

	// Determinism: same config, independent injectors, identical
	// decisions per site.
	a := New(Config{Seed: 9, JobDropProb: 0.5, JournalFailProb: 0.5, HandlerLatencyProb: 0.5})
	b := New(Config{Seed: 9, JobDropProb: 0.5, JournalFailProb: 0.5, HandlerLatencyProb: 0.5})
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("job-%d", i)
		if (a.DropJob(key) == nil) != (b.DropJob(key) == nil) {
			t.Fatalf("DropJob(%q) decisions disagree", key)
		}
		if (a.FailJournalWrite(uint64(i)) == nil) != (b.FailJournalWrite(uint64(i)) == nil) {
			t.Fatalf("FailJournalWrite(%d) decisions disagree", i)
		}
		if (a.HandlerDelay(key) == 0) != (b.HandlerDelay(key) == 0) {
			t.Fatalf("HandlerDelay(%q) decisions disagree", key)
		}
	}
	// A drill seed drops the same jobs it dropped when the service still
	// retried and DropJob rolled per attempt: these are seed 9's
	// attempt-0 drops.
	want := []int{0, 2, 3, 5, 6, 9, 10, 11, 12, 15, 17, 19, 21, 22, 23, 24, 25, 26, 28, 30, 31, 32, 33, 35, 36, 38, 42, 43, 46, 49, 50, 58, 60, 61, 63}
	var dropped []int
	for i := 0; i < 64; i++ {
		if a.DropJob(fmt.Sprintf("job-%d", i)) != nil {
			dropped = append(dropped, i)
		}
	}
	if !reflect.DeepEqual(dropped, want) {
		t.Fatalf("seed 9 drops jobs %v, want %v", dropped, want)
	}

	// The new knobs alone enable the injector, and Validate bounds them.
	if New(Config{Seed: 1, JobDropProb: 0.1}) == nil {
		t.Fatal("JobDropProb alone did not enable the injector")
	}
	for _, bad := range []Config{
		{HandlerLatencyProb: -1},
		{JobDropProb: 2},
		{JournalFailProb: -0.5},
		{HandlerLatency: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
}

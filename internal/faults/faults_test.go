package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"

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

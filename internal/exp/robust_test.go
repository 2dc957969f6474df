package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"asmsim/internal/core"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

func lightMix() workload.Mix { return workload.Mix{Names: []string{"h264ref", "namd"}} }

// corruptingEstimator feeds an estimator a clone of each quantum's
// snapshot with one float counter per app made non-finite, rotating
// through MemInterfCycles, PFContentionExtra and ATSContentionExtra by
// app and quantum. The run's own snapshot stays pristine.
type corruptingEstimator struct{ core.Estimator }

func (e corruptingEstimator) Estimate(st *sim.QuantumStats) []float64 {
	cp := st.Clone()
	for a := range cp.Apps {
		aq := &cp.Apps[a]
		switch (a + cp.Quantum) % 3 {
		case 0:
			aq.MemInterfCycles = math.NaN()
		case 1:
			aq.PFContentionExtra = math.Inf(1)
		default:
			aq.ATSContentionExtra = math.NaN()
		}
	}
	return e.Estimator.Estimate(cp)
}

func TestRunAccuracyHonorsCancellation(t *testing.T) {
	sc := tinyScale()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first quantum
	samples, err := RunAccuracy(ctx, sc.BaseConfig(), lightMix(), estAll, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if len(samples) != 0 {
		t.Fatalf("%d samples before any quantum ran", len(samples))
	}
	if !strings.Contains(err.Error(), lightMix().String()) {
		t.Fatalf("error %v does not name the mix", err)
	}
}

func TestRunAccuracyRecoversPanics(t *testing.T) {
	// An unresolvable benchmark makes Specs() panic; the runner must turn
	// that into an error naming the mix, not crash the sweep's worker.
	sc := tinyScale()
	bad := workload.Mix{Names: []string{"h264ref", "nonesuch"}}
	samples, err := RunAccuracy(context.Background(), sc.BaseConfig(), bad, estAll, sc)
	if err == nil {
		t.Fatal("panic not surfaced as an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("error %v must mention the panic and the mix", err)
	}
	if samples != nil {
		t.Fatalf("samples %v from a panicked run", samples)
	}
}

// TestRunAccuracyCorruptionStaysFinite: with every snapshot corrupted on
// its way to the estimators, the sanitizing decorators must keep all
// estimates finite and in range while ground truth (which reads the
// pristine counters) stays untouched.
func TestRunAccuracyCorruptionStaysFinite(t *testing.T) {
	sc := tinyScale()
	corrupting := func() []core.Estimator {
		es := estAll()
		for i, e := range es {
			es[i] = corruptingEstimator{e}
		}
		return es
	}
	samples, err := RunAccuracy(context.Background(), sc.BaseConfig(), lightMix(), corrupting, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if math.IsNaN(s.Actual) || s.Actual < 1 {
			t.Fatalf("ground truth corrupted: %v", s.Actual)
		}
		for name, v := range s.Est {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 || v > 50 {
				t.Fatalf("%s estimate %v escaped sanitization", name, v)
			}
		}
	}
}

// TestAccuracySweepPoisonMixFails: one poison mix among healthy ones
// fails the whole sweep with that mix's error; the healthy mixes'
// samples are not returned.
func TestAccuracySweepPoisonMixFails(t *testing.T) {
	sc := tinyScale()
	mixes := []workload.Mix{
		lightMix(),
		{Names: []string{"nonesuch", "namd"}},
		{Names: []string{"povray", "calculix"}},
	}
	samples, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
	if err == nil || !strings.Contains(err.Error(), "nonesuch+namd") {
		t.Fatalf("err %v, want the poison mix's error", err)
	}
	if samples != nil {
		t.Fatalf("%d samples from a failed sweep", len(samples))
	}
}

// TestAccuracySweepTotalLossErrors: when every mix fails, the sweep's
// error is the first mix's.
func TestAccuracySweepTotalLossErrors(t *testing.T) {
	sc := tinyScale()
	mixes := []workload.Mix{
		{Names: []string{"nonesuch", "namd"}},
		{Names: []string{"alsofake", "namd"}},
	}
	samples, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
	if err == nil || !strings.Contains(err.Error(), "nonesuch") || strings.Contains(err.Error(), "alsofake") {
		t.Fatalf("err %v, want the first mix's error", err)
	}
	if len(samples) != 0 {
		t.Fatalf("%d samples from a total loss", len(samples))
	}
}

func TestAccuracySweepCancelledMidway(t *testing.T) {
	sc := tinyScale()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := accuracySweep(ctx, sc.BaseConfig(), []workload.Mix{lightMix()}, estAll, sc)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "0 of 1") {
		t.Fatalf("err %v, want the sweep stopped before its one mix by context.Canceled", err)
	}
}

// TestForEachConvertsPanicsAndKeepsOrder: a worker panic becomes an
// error naming the item, and the sweep returns the lowest failed item's
// error: item 1, claimed before item 4, always runs.
func TestForEachConvertsPanicsAndKeepsOrder(t *testing.T) {
	err := forEach(context.Background(), 6,
		func(i int) string { return fmt.Sprintf("item-%d", i) },
		telemetry.Options{},
		func(i int) error {
			switch i {
			case 1:
				panic("worker exploded")
			case 4:
				return errors.New("plain failure")
			}
			return nil
		})
	if err == nil || err.Error() != "exp: item 1 (item-1) panicked: worker exploded" {
		t.Fatalf("err %v, want item 1's panic", err)
	}
}

func TestRunPolicyHonorsCancellation(t *testing.T) {
	sc := tinyScale()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPolicy(ctx, sc.BaseConfig(), lightMix(), Scheme{Name: "none"}, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

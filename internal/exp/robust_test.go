package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"asmsim/internal/core"
	"asmsim/internal/rng"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

func lightMix() workload.Mix { return workload.Mix{Names: []string{"h264ref", "namd"}} }

// errLossy is the failure lossy injects, so a test can tell it from a
// genuine one with errors.Is.
var errLossy = errors.New("lossy sweep item")

// lossy fails each sweep item with probability p on a coin keyed by
// (seed, item label), so a lossy sweep loses the same items every time.
func lossy(seed uint64, p float64) func(string) error {
	return func(label string) error {
		if rng.NewNamed(seed, "faults/runfail/"+label).Float64() < p {
			return fmt.Errorf("%s: %w", label, errLossy)
		}
		return nil
	}
}

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

func TestRunAccuracyInjectedFailure(t *testing.T) {
	sc := tinyScale()
	sc.failItem = lossy(1, 1)
	_, err := RunAccuracy(context.Background(), sc.BaseConfig(), lightMix(), estAll, sc)
	if !errors.Is(err, errLossy) {
		t.Fatalf("err %v, want the injected failure", err)
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

// TestAccuracySweepPartialResults: a sweep with one poison mix completes
// the healthy mixes and reports the loss in the manifest instead of
// failing the whole experiment.
func TestAccuracySweepPartialResults(t *testing.T) {
	sc := tinyScale()
	mixes := []workload.Mix{
		lightMix(),
		{Names: []string{"nonesuch", "namd"}},
		{Names: []string{"povray", "calculix"}},
	}
	samples, m, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
	if err != nil {
		t.Fatalf("sweep with survivors must not error: %v", err)
	}
	if m.Total != 3 || m.Completed != 2 || len(m.Failures) != 1 {
		t.Fatalf("manifest %+v", m)
	}
	f := m.Failures[0]
	if f.Index != 1 || !strings.Contains(f.Name, "nonesuch") {
		t.Fatalf("failure %+v does not identify the poison mix", f)
	}
	if m.Ok() {
		t.Fatal("lossy manifest reports Ok")
	}
	if !strings.Contains(m.Summary(), "2/3") {
		t.Fatalf("summary %q", m.Summary())
	}
	// Samples only from the two healthy mixes.
	if len(samples) == 0 {
		t.Fatal("no samples from surviving mixes")
	}
	for _, s := range samples {
		if s.Bench == "nonesuch" {
			t.Fatal("sample from the failed mix")
		}
	}
	// A table carrying this manifest reports itself partial.
	tb := &Table{ID: "test"}
	attach(tb, m)
	if !tb.Partial() {
		t.Fatal("table with losses not marked partial")
	}
}

func TestAccuracySweepTotalLossErrors(t *testing.T) {
	sc := tinyScale()
	mixes := []workload.Mix{
		{Names: []string{"nonesuch", "namd"}},
		{Names: []string{"alsofake", "namd"}},
	}
	samples, m, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
	if err == nil {
		t.Fatal("total loss must fail the sweep")
	}
	if len(samples) != 0 {
		t.Fatalf("%d samples from a total loss", len(samples))
	}
	if m.Completed != 0 || len(m.Failures) != 2 {
		t.Fatalf("manifest %+v", m)
	}
}

func TestAccuracySweepCancelledMidway(t *testing.T) {
	sc := tinyScale()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, m, err := accuracySweep(ctx, sc.BaseConfig(), []workload.Mix{lightMix()}, estAll, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if !m.Cancelled {
		t.Fatal("manifest does not record the cancellation")
	}
}

func TestForEachConvertsPanicsAndKeepsOrder(t *testing.T) {
	fails, cancelled := forEach(context.Background(), 6,
		func(i int) string { return fmt.Sprintf("item-%d", i) },
		telemetry.Options{},
		func(i int) error {
			switch i {
			case 1:
				return errors.New("plain failure")
			case 4:
				panic("worker exploded")
			}
			return nil
		})
	if cancelled {
		t.Fatal("spurious cancellation")
	}
	if len(fails) != 2 {
		t.Fatalf("%d failures, want 2: %v", len(fails), fails)
	}
	if fails[0].Index != 1 || fails[1].Index != 4 {
		t.Fatalf("failures not sorted by index: %v", fails)
	}
	if fails[0].Name != "item-1" {
		t.Fatalf("failure name %q", fails[0].Name)
	}
	if !strings.Contains(fails[1].Err.Error(), "panic") || !strings.Contains(fails[1].Err.Error(), "worker exploded") {
		t.Fatalf("panic failure %v", fails[1].Err)
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

// TestFaultySweepDeterminism: the same seed loses the same mixes — a
// lossy sweep must not break experiment reproducibility.
func TestFaultySweepDeterminism(t *testing.T) {
	run := func() (int, string) {
		sc := tinyScale()
		sc.failItem = lossy(6, 0.5) // loses 2 of the 6 mixes
		pool := workload.SPEC()
		mixes := workload.RandomMixes(pool, 2, 6, sc.Seed)
		samples, m, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
		if err != nil {
			return len(samples), "total-loss"
		}
		var lost []string
		for _, f := range m.Failures {
			lost = append(lost, f.Name)
		}
		return len(samples), strings.Join(lost, ",")
	}
	n1, lost1 := run()
	n2, lost2 := run()
	if n1 != n2 || lost1 != lost2 {
		t.Fatalf("faulty sweep not deterministic: (%d, %q) vs (%d, %q)", n1, lost1, n2, lost2)
	}
	if lost1 == "" {
		t.Fatal("a 0.5 loss rate over 6 mixes lost nothing — the loss looks inert")
	}
}

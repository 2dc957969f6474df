package exp

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// tinyScale keeps end-to-end experiment tests fast.
func tinyScale() Scale {
	return Scale{
		Workloads:      2,
		WarmupQuanta:   1,
		MeasuredQuanta: 1,
		Quantum:        200_000,
		Epoch:          10_000,
		Seed:           7,
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"col", "value"},
	}
	tb.AddRow("a", "1")
	tb.AddRow("longer", "2")
	tb.AddNote("hello %d", 42)
	s := tb.String()
	for _, want := range []string{"== x: demo ==", "col", "longer", "note: hello 42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || seen[e.ID] {
			t.Fatalf("bad or duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("%s has no Run", e.ID)
		}
	}
	// Every paper artifact from DESIGN.md's index must be present.
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"dbacc", "fig7", "fig8", "tab3", "mise", "fig9", "fig10", "cachemem", "fig11"} {
		if !seen[id] {
			t.Fatalf("paper artifact %s missing from registry", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSampleError(t *testing.T) {
	s := Sample{Actual: 2, Est: map[string]float64{"ASM": 2.2}}
	e, ok := s.Error("ASM")
	if !ok || e < 9.99 || e > 10.01 {
		t.Fatalf("error %v ok %v, want 10 true", e, ok)
	}
	if _, ok := s.Error("missing"); ok {
		t.Fatal("missing estimator must be invalid")
	}
	bad := Sample{Actual: 0, Est: map[string]float64{"ASM": 2.2}}
	if _, ok := bad.Error("ASM"); ok {
		t.Fatal("non-positive actual must be invalid, not a free 0% error")
	}
}

func TestScales(t *testing.T) {
	q, f := Quick(), Full()
	if q.Workloads >= f.Workloads || q.Quantum > f.Quantum {
		t.Fatal("quick scale must be smaller than full")
	}
	if err := q.BaseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := f.BaseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunAccuracyEndToEnd(t *testing.T) {
	sc := tinyScale()
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	mix := workload.Mix{Names: []string{"mcf", "libquantum", "bzip2", "h264ref"}}
	samples, err := RunAccuracy(context.Background(), cfg, mix, estAll, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 { // 4 apps x 1 measured quantum
		t.Fatalf("%d samples", len(samples))
	}
	for _, s := range samples {
		if s.Actual < 1 {
			t.Fatalf("actual slowdown %v < 1", s.Actual)
		}
		for _, name := range []string{"ASM", "FST", "PTCA", "MISE"} {
			if _, ok := s.Est[name]; !ok {
				t.Fatalf("sample missing %s estimate", name)
			}
		}
	}
}

func TestRunPolicyEndToEnd(t *testing.T) {
	sc := tinyScale()
	mix := workload.Mix{Names: []string{"bzip2", "libquantum"}}
	out, err := RunPolicy(context.Background(), sc.BaseConfig(), mix, schemeNoPart(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AppSlowdowns) != 2 {
		t.Fatalf("%d slowdowns", len(out.AppSlowdowns))
	}
	if out.MaxSlowdown < 1 || out.HarmonicSpeedup <= 0 || out.HarmonicSpeedup > 1 {
		t.Fatalf("max %v hs %v", out.MaxSlowdown, out.HarmonicSpeedup)
	}
}

func TestMeanErrorAndGrouping(t *testing.T) {
	samples := []Sample{
		{Bench: "a", Actual: 2, Est: map[string]float64{"ASM": 2.2}},
		{Bench: "a", Actual: 2, Est: map[string]float64{"ASM": 1.8}},
		{Bench: "b", Actual: 1, Est: map[string]float64{"ASM": 1.3}},
	}
	if m := MeanError(samples, "ASM"); m < 16.6 || m > 16.7 {
		t.Fatalf("mean error %v", m)
	}
	by := ErrorsByBench(samples, "ASM")
	if len(by["a"]) != 2 || len(by["b"]) != 1 {
		t.Fatalf("grouping %v", by)
	}
}

func TestForEachCollectsErrors(t *testing.T) {
	var count atomic.Int64 // items run on several workers
	err := forEach(context.Background(), 5, nil, telemetry.Options{}, func(i int) error {
		count.Add(1)
		return nil
	})
	if err != nil || count.Load() != 5 {
		t.Fatalf("err %v count %d", err, count.Load())
	}
}

func TestSpreadAllocation(t *testing.T) {
	alloc := spreadAllocation(4, 4, 16)
	if alloc[0] != 4 {
		t.Fatalf("target ways %d", alloc[0])
	}
	sum := 0
	for _, w := range alloc {
		sum += w
	}
	if sum != 16 {
		t.Fatalf("allocation %v", alloc)
	}
}

func TestScaledWorkloads(t *testing.T) {
	sc := Quick()
	if scaledWorkloads(sc, 4) != sc.Workloads {
		t.Fatal("4-core should keep the full count")
	}
	if w := scaledWorkloads(sc, 16); w >= sc.Workloads || w < 2 {
		t.Fatalf("16-core scaled to %d", w)
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddNote("n")
	csvOut := tb.CSV()
	if !strings.Contains(csvOut, "a,b") || !strings.Contains(csvOut, "1,2") || !strings.Contains(csvOut, "# n") {
		t.Fatalf("csv output:\n%s", csvOut)
	}
	j, err := tb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j, `"ID": "x"`) {
		t.Fatalf("json output:\n%s", j)
	}
}

// TestExperimentsSmoke runs a representative subset of experiments
// end-to-end at tiny scale: every registry entry must produce a non-empty
// table without error. Heavier multi-core sweeps are exercised by the
// bench harness; this covers the single-config code paths.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are seconds-long")
	}
	sc := tinyScale()
	for _, id := range []string{"fig1", "fig2", "fig6", "fig11", "abl-carn", "abl-models", "mise", "dbacc"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		table, err := e.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if table.ID != id {
			t.Fatalf("%s: table id %q", id, table.ID)
		}
	}
}

// TestExperimentDeterminism: the whole pipeline — mix construction,
// simulation, models, ground truth, table rendering — must be a pure
// function of the scale's seed.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiments")
	}
	sc := tinyScale()
	e, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := e.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatalf("experiment not deterministic:\n%s\nvs\n%s", t1, t2)
	}
}

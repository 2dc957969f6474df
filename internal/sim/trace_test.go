package sim

import (
	"testing"

	"asmsim/internal/cpu"
	"asmsim/internal/trace"
	"asmsim/internal/workload"
)

// TestTraceDrivenRunMatchesGenerator records each app's stream to a trace
// and replays it through NewWithSources: the trace-driven system must
// reproduce the generator-driven execution exactly (same retired counts),
// proving the trace layer is a faithful substitute for live generation.
func TestTraceDrivenRunMatchesGenerator(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	specs := testSpecs(t, "bzip2", "libquantum")

	ref, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunQuanta(1)

	// Record comfortably more instructions than the reference retired.
	apps := make([]AppSource, len(specs))
	for i, sp := range specs {
		need := int(ref.Retired(i)) + 3*int(cfg.WindowSize)
		gen := workload.NewGenerator(sp, i, cfg.Seed)
		instrs := trace.Record(gen, need)
		apps[i] = AppSource{
			Name: sp.Name,
			New: func(int) cpu.InstrSource {
				return trace.NewReplayer(instrs)
			},
		}
	}

	replayed, err := NewWithSources(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed.RunQuanta(1)

	for a := 0; a < cfg.Cores; a++ {
		if got, want := replayed.Retired(a), ref.Retired(a); got != want {
			t.Fatalf("app %d: trace-driven retired %d, generator-driven %d", a, got, want)
		}
	}
}

// TestTraceDrivenGroundTruth verifies the source-based slowdown tracker
// path works end-to-end.
func TestTraceDrivenGroundTruth(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	specs := testSpecs(t, "mcf", "h264ref")
	var apps []AppSource
	for i, sp := range specs {
		gen := workload.NewGenerator(sp, i, cfg.Seed)
		instrs := trace.Record(gen, 3_000_000)
		apps = append(apps, AppSource{
			Name: sp.Name,
			New:  func(int) cpu.InstrSource { return trace.NewReplayer(instrs) },
		})
	}
	sys, err := NewWithSources(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := newSlowdownTracker(cfg, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		for a, sd := range tracker.ActualSlowdowns(st) {
			if sd < 1 || sd > 100 {
				t.Errorf("app %d slowdown %v", a, sd)
			}
		}
		checked = true
	})
	sys.RunQuanta(1)
	if !checked {
		t.Fatal("no quantum observed")
	}
}

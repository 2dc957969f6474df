package exp

import (
	"context"
	"testing"

	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// TestAccuracyRunSkipTelemetry asserts the experiment runner surfaces the
// advance loop's jump counters: a memory-intensive accuracy run must report
// skipped windows and cycles under sim.skip.*, and sim.core.forced_wakes must be
// exactly zero — the failsafe counting only productive rescues means any
// nonzero value is a broken wake-up path, not a busy system.
func TestAccuracyRunSkipTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := Scale{
		Workloads:      1,
		WarmupQuanta:   0,
		MeasuredQuanta: 2,
		Quantum:        100_000,
		Epoch:          10_000,
		Seed:           7,
		AloneCache:     sim.NewAloneCurveCache(),
		Telemetry:      telemetry.Options{Metrics: reg},
	}
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	mix := workload.Mix{Names: []string{"mcf", "libquantum", "soplex", "milc"}}
	samples, err := RunAccuracy(context.Background(), cfg, mix, estAll, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	vals := map[string]int64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
	}
	for _, name := range []string{"sim.skip.windows", "sim.skip.cycles", "sim.core.forced_wakes"} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("metric %s not registered (have %v)", name, vals)
		}
	}
	if vals["sim.skip.cycles"] == 0 || vals["sim.skip.windows"] == 0 {
		t.Errorf("the advance loop never jumped on a memory-intensive mix: %v", vals)
	}
	if vals["sim.skip.cycles"] < vals["sim.skip.windows"] {
		t.Errorf("skip cycles %d < windows %d", vals["sim.skip.cycles"], vals["sim.skip.windows"])
	}
	if fw := vals["sim.core.forced_wakes"]; fw != 0 {
		t.Errorf("%d forced wakes — a wake-up path is missing", fw)
	}
}

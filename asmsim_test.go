package asmsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fastConfig keeps the public-API tests quick.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Quantum = 200_000
	cfg.Epoch = 10_000
	cfg.ATSSampledSets = 64
	return cfg
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(fastConfig(), []string{"mcf", "libquantum", "bzip2", "h264ref"},
		RunOptions{WarmupQuanta: 1, Quanta: 2, GroundTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 4 || len(res.IPC) != 4 || len(res.EstimatedSlowdown) != 4 {
		t.Fatal("result shape wrong")
	}
	for i := range res.Names {
		if res.IPC[i] <= 0 {
			t.Fatalf("app %d IPC %v", i, res.IPC[i])
		}
		if res.EstimatedSlowdown[i] < 1 {
			t.Fatalf("app %d estimate %v", i, res.EstimatedSlowdown[i])
		}
		if res.ActualSlowdown[i] < 1 {
			t.Fatalf("app %d actual %v", i, res.ActualSlowdown[i])
		}
	}
	if res.MaxSlowdown < 1 || res.HarmonicSpeedup <= 0 || res.HarmonicSpeedup > 1 {
		t.Fatalf("aggregate metrics: max %v hs %v", res.MaxSlowdown, res.HarmonicSpeedup)
	}
}

func TestRunASMTracksActual(t *testing.T) {
	// The headline claim at small scale: ASM's estimates land near the
	// ground truth for a contended mix. A generous 40% bound still
	// catches sign errors, unit bugs, and swapped numerators.
	res, err := Run(fastConfig(), []string{"mcf", "libquantum", "bzip2", "h264ref"},
		RunOptions{WarmupQuanta: 1, Quanta: 3, GroundTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Names {
		est, act := res.EstimatedSlowdown[i], res.ActualSlowdown[i]
		if e := math.Abs(est-act) / act; e > 0.4 {
			t.Errorf("%s: ASM %v vs actual %v (err %.0f%%)", res.Names[i], est, act, e*100)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(fastConfig(), []string{"nonesuch"}, RunOptions{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunMultipleEstimators(t *testing.T) {
	res, err := Run(fastConfig(), []string{"mcf", "bzip2"},
		RunOptions{Quanta: 1, Estimators: []Estimator{NewASM(), NewFST(), NewPTCA(), NewMISE()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ASM", "FST", "PTCA", "MISE"} {
		if len(res.Estimates[name]) != 2 {
			t.Fatalf("missing estimates for %s", name)
		}
	}
}

func TestRunWithPartitioner(t *testing.T) {
	p := NewASMCache()
	res, err := Run(fastConfig(), []string{"bzip2", "libquantum"},
		RunOptions{Quanta: 2, Attach: func(s *System) { AttachPartitioner(s, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatedSlowdown[0] < 1 {
		t.Fatal("no estimate")
	}
}

func TestRunWithASMMem(t *testing.T) {
	_, err := Run(fastConfig(), []string{"mcf", "libquantum"},
		RunOptions{Quanta: 2, Attach: AttachASMMem})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarksAndLookup(t *testing.T) {
	all := Benchmarks()
	if len(all) < 30 {
		t.Fatalf("only %d benchmarks", len(all))
	}
	if _, ok := BenchmarkByName("mcf"); !ok {
		t.Fatal("mcf missing")
	}
	if _, ok := BenchmarkByName("hog2"); !ok {
		t.Fatal("hog missing")
	}
}

func TestRandomMixesAPI(t *testing.T) {
	mixes := RandomMixes(4, 10, 1)
	if len(mixes) != 10 {
		t.Fatalf("%d mixes", len(mixes))
	}
	for _, m := range mixes {
		if len(m.Names) != 4 {
			t.Fatal("mix size")
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) < 15 {
		t.Fatalf("only %d experiments", len(Experiments()))
	}
	if _, err := ExperimentByID("fig2"); err != nil {
		t.Fatal(err)
	}
	q, f := QuickScale(), FullScale()
	if q.Workloads >= f.Workloads {
		t.Fatal("scales inverted")
	}
}

func TestFairBill(t *testing.T) {
	if b := FairBill(3, 3); b != 1 {
		t.Fatalf("got %v", b)
	}
	if b := FairBill(3, 0.5); b != 3 {
		t.Fatalf("slowdowns below 1 clamp: got %v", b)
	}
}

func TestPolicyConstructors(t *testing.T) {
	if NewUCP().Name() != "UCP" || NewMCFQ().Name() != "MCFQ" ||
		NewASMCache().Name() != "ASM-Cache" || NewASMQoS(0, 2).Name() != "ASM-QoS" {
		t.Fatal("policy constructor names")
	}
	if NewFST().Name() != "FST" || NewPTCA().Name() != "PTCA" ||
		NewMISE().Name() != "MISE" || NewASM().Name() != "ASM" {
		t.Fatal("estimator constructor names")
	}
}

// TestRunWithTelemetry: a ground-truth run with a recorder attached must
// emit exactly one record per (app, quantum) — warmup included — whose
// estimates and actuals round-trip through encoding/json, and must
// populate the sim scope of the metrics registry.
func TestRunWithTelemetry(t *testing.T) {
	var buf bytes.Buffer
	reg := NewTelemetryRegistry()
	rec := NewJSONLRecorder(&buf)
	names := []string{"mcf", "libquantum"}
	res, err := Run(fastConfig(), names, RunOptions{
		WarmupQuanta: 1, Quanta: 2, GroundTruth: true,
		Estimators: []Estimator{NewASM(), NewMISE()},
		Telemetry:  TelemetryOptions{Metrics: reg, Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	quanta := 3 // warmup + measured
	seen := map[[2]int]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var qr QuantumRecord
		if err := json.Unmarshal(sc.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		key := [2]int{qr.App, qr.Quantum}
		if seen[key] {
			t.Fatalf("duplicate record for app %d quantum %d", qr.App, qr.Quantum)
		}
		seen[key] = true
		if qr.Bench != names[qr.App] {
			t.Fatalf("record bench %q for app %d", qr.Bench, qr.App)
		}
		if qr.Actual < 1 {
			t.Fatalf("record actual %v", qr.Actual)
		}
		for _, est := range []string{"ASM", "MISE"} {
			if _, ok := qr.Estimates[est]; !ok {
				t.Fatalf("record missing %s estimate: %v", est, qr.Estimates)
			}
		}
		if qr.Counters.Retired == 0 || qr.Counters.L2Accesses == 0 {
			t.Fatalf("record counters empty: %+v", qr.Counters)
		}
	}
	if len(seen) != len(names)*quanta {
		t.Fatalf("%d records, want %d", len(seen), len(names)*quanta)
	}
	if res == nil || len(res.ActualSlowdown) != 2 {
		t.Fatal("result shape wrong")
	}
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "sim.quanta" && m.Value == int64(quanta) {
			found = true
		}
	}
	if !found {
		t.Fatalf("sim.quanta counter missing or wrong: %+v", reg.Snapshot())
	}
}

// pollLimitCtx reports cancellation after a fixed number of Err polls.
type pollLimitCtx struct {
	context.Context
	polls, limit int
}

func (c *pollLimitCtx) Err() error {
	if c.polls++; c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelsMidQuantum: the facade polls its context from
// inside the cycle loop, so a run cancelled a few polls in stops within
// its first quantum instead of finishing it.
func TestRunContextCancelsMidQuantum(t *testing.T) {
	cfg := fastConfig()
	cfg.Quantum = 5_000_000
	ctx := &pollLimitCtx{Context: context.Background(), limit: 4}
	res, err := RunContext(ctx, cfg, []string{"mcf", "libquantum"}, RunOptions{Quanta: 8, GroundTruth: true})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, %v; want no result and context.Canceled", res, err)
	}
	if !strings.Contains(err.Error(), "run cancelled after 0 quanta") {
		t.Fatalf("error %q does not report a mid-quantum stop", err)
	}
}

// TestRunSharedAloneCacheMatchesPrivate: Run's ground truth follows the
// shared run on its own goroutines, on a cache private to the Run or on a
// shared one; the results must be identical.
func TestRunSharedAloneCacheMatchesPrivate(t *testing.T) {
	names := []string{"mcf", "povray", "gcc", "libquantum"}
	opt := RunOptions{WarmupQuanta: 1, Quanta: 1, GroundTruth: true}
	want, err := Run(fastConfig(), names, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SharedAloneCache = NewAloneCurveCache()
	got, err := Run(fastConfig(), names, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-cache run %+v, private-cache run %+v", got, want)
	}
}

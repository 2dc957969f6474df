package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0: 1, 50: 2.5, 100: 4, 25: 1.75} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Error("percentile sorted its argument in place")
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "load", Start: 10, End: 90},
		// Two parallel items overlapping on [30,50], one sticking out of
		// its parent, and one never closed.
		{ID: 3, Parent: 2, Name: "item", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "item", Start: 30, End: 70},
		{ID: 5, Parent: 2, Name: "item", Start: 85, End: 95},
		{ID: 6, Parent: 2, Name: "item", Start: 40, End: -1},
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]selfRow{
		"run":  {Name: "run", Count: 1, TotalMS: 100e-6, SelfMS: 20e-6},
		"load": {Name: "load", Count: 1, TotalMS: 80e-6, SelfMS: 25e-6}, // 80 - ([20,70] + [85,90])
		"item": {Name: "item", Count: 3, TotalMS: 80e-6, SelfMS: 80e-6},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.TotalMS-w.TotalMS) > 1e-12 || math.Abs(g.SelfMS-w.SelfMS) > 1e-12 {
			t.Errorf("self time of %s = %+v, want %+v", name, g, w)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x")
	tr.end(id, nil)
	if id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestSeedNamesTheInputs(t *testing.T) {
	sz := fullSizes
	for name, gen := range map[string]func(uint64) any{
		"mixed":  func(s uint64) any { return mixedMixes(s, sz) },
		"mem":    func(s uint64) any { return memMixes(s, sz) },
		"policy": func(s uint64) any { return policyMixes(s, sz) },
		"jobs":   func(s uint64) any { return jobList(s, sz) },
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func countApps(mixes [][]string) map[string]int {
	n := map[string]int{}
	for _, m := range mixes {
		for _, a := range m {
			n[a]++
		}
	}
	return n
}

func TestMixDesignsKeepWorkConstant(t *testing.T) {
	sz := fullSizes
	pool := suitePool()
	for seed := uint64(1); seed <= 20; seed++ {
		mixed := mixedMixes(seed, sz)
		if want := len(pool) / 4 * sz.MixedReps; len(mixed) != want {
			t.Fatalf("seed %d: %d mixed mixes, want %d", seed, len(mixed), want)
		}
		for app, n := range countApps(mixed) {
			if n != sz.MixedReps {
				t.Errorf("seed %d: %s appears %d times in acc_mixed, want %d", seed, app, n, sz.MixedReps)
			}
		}
		mem := countApps(memMixes(seed, sz))
		high := ofClass(pool, classHigh)
		if len(mem) != len(high)/4*4 {
			t.Errorf("seed %d: acc_mem uses %d apps, want %d", seed, len(mem), len(high)/4*4)
		}
		for app, n := range mem {
			if n != sz.MemReps {
				t.Errorf("seed %d: %s appears %d times in acc_mem, want %d", seed, app, n, sz.MemReps)
			}
		}
		class := map[string]int{}
		for _, a := range pool {
			class[a.Name] = a.Class
		}
		policy := policyMixes(seed, sz)
		for app, n := range countApps(policy) {
			if n != 1 {
				t.Errorf("seed %d: %s appears %d times in policy_sched", seed, app, n)
			}
		}
		for _, m := range policy {
			per := map[int]int{}
			for _, a := range m {
				per[class[a]]++
			}
			if len(m) != 8 || per[classLow] != 2 || per[classMedium] != 3 || per[classHigh] != 3 {
				t.Errorf("seed %d: policy mix %v has class counts %v", seed, m, per)
			}
		}
	}
}

func TestJobListHitsOnlyFinishedJobs(t *testing.T) {
	sz := fullSizes
	list := jobList(3, sz)
	cold, hits, latest := 0, 0, -1
	seeds := map[uint64]bool{}
	for i, e := range list {
		if e.Cold {
			cold++
			latest = e.Twin
			if seeds[e.Doc.Seed] {
				t.Fatalf("entry %d: cold job repeats seed %d", i, e.Doc.Seed)
			}
			seeds[e.Doc.Seed] = true
			continue
		}
		hits++
		if e.Twin > latest-sz.HitGap {
			t.Errorf("entry %d: hit on cold job %d with only job %d submitted", i, e.Twin, latest)
		}
		if !seeds[e.Doc.Seed] {
			t.Errorf("entry %d: hit on a job never submitted cold", i)
		}
	}
	if cold != sz.ColdJobs || hits != sz.ColdJobs*sz.HitsPerCold {
		t.Errorf("%d cold, %d hits; want %d and %d", cold, hits, sz.ColdJobs, sz.ColdJobs*sz.HitsPerCold)
	}
}

// runQuick measures one workload at the tests' sizes, one round.
func runQuick(t *testing.T, name string, trace bool) *report {
	t.Helper()
	return runQuickIn(t, name, trace, t.TempDir())
}

func runQuickIn(t *testing.T, name string, trace bool, outDir string) *report {
	t.Helper()
	o := options{Seed: 5, Seconds: 0, Trace: trace, OutDir: outDir}
	rep, err := measure(context.Background(), name, o, quickSizes)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Result.Correct || rep.Result.Failed != 0 {
		t.Fatalf("%s: output checks failed: %v", name, rep.Failures)
	}
	return rep
}

func TestEveryWorkloadInMiniature(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep := runQuick(t, name, false)
			if len(rep.Result.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(rep.Result.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v := rep.Result.Metrics[d.Name]
				if !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive %s", d.Name, v, d.Unit)
				}
			}
			if rep.Instr == 0 || len(rep.Digest) != 64 || rep.Result.Attempted < 1 {
				t.Errorf("instr=%d digest=%q attempted=%d", rep.Instr, rep.Digest, rep.Result.Attempted)
			}
			again := runQuick(t, name, false)
			if again.Digest != rep.Digest || again.Instr != rep.Instr {
				t.Errorf("same seed, different simulated results: %s/%d vs %s/%d", rep.Digest, rep.Instr, again.Digest, again.Instr)
			}
		})
	}
}

func TestTracedRunMeasuresEveryLayer(t *testing.T) {
	for _, name := range []string{wlAccMem, wlServeJobs} {
		t.Run(name, func(t *testing.T) {
			outDir := t.TempDir()
			rep := runQuickIn(t, name, true, outDir)
			if len(rep.Result.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(rep.Result.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v := rep.Result.Metrics[d.Name]; math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v", d.Name, v)
				}
			}
			if rep.Rounds < 2 || len(rep.Self) == 0 {
				t.Errorf("rounds=%d self rows=%d: want a traced and an untraced round, and spans", rep.Rounds, len(rep.Self))
			}
			b, err := os.ReadFile(filepath.Join(outDir, "spans-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc spanFile
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, s := range doc.Spans {
				names[s.Name] = true
				if s.End < s.Start {
					t.Errorf("span %d (%s) was never closed", s.ID, s.Name)
				}
			}
			for _, want := range []string{"run", "layers", "layer:dram", "workload", "setup", "load", "verify", "item"} {
				if !names[want] {
					t.Errorf("no %q span in %v", want, names)
				}
			}
			if entries, _ := os.ReadDir(outDir); len(entries) != 1 {
				t.Errorf("scratch state left behind in the out directory: %v", entries)
			}
		})
	}
}

func TestReportEndsWithTheContractLine(t *testing.T) {
	rep := runQuick(t, wlAccMem, false)
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := []string{}
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("report does not print %s", d.Name)
		}
	}
	if !strings.Contains(out.String(), "failed_frac=0.000000") {
		t.Error("report does not print failed_frac when it is zero")
	}
}

func TestFailedChecksAreCountedNotDropped(t *testing.T) {
	if err := checkTable(table{ID: "t", Header: []string{"b", "ASM"}, Rows: [][]string{{"x", "oops"}}}); err == nil {
		t.Error("an unparseable cell passed the table check")
	}
	if err := checkTable(table{ID: "t", Header: []string{"b", "ASM"}, Rows: [][]string{{"x", "1.0%"}}, Failures: []string{"lost"}}); err == nil {
		t.Error("a partial table passed the table check")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), 0.5} {
		if slowdownOK(v) {
			t.Errorf("slowdown %v passed the output check", v)
		}
	}
	if got := run([]string{"-workload", "no_such_workload", "-seconds", "0", "-out", t.TempDir()}, io.Discard, io.Discard); got != 1 {
		t.Errorf("unknown workload exited %d, want 1", got)
	}
	if got := run([]string{"-trace", "2"}, io.Discard, io.Discard); got != 2 {
		t.Errorf("bad -trace exited %d, want 2", got)
	}
}

func TestCompareSetsAppliesEachMetricsOwnBound(t *testing.T) {
	mk := func(wall, setup float64, digest string) []*report {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		m["wall_s"], m["setup_s"] = metricValue{Value: wall}, metricValue{Value: setup}
		return []*report{{Workload: wlAccMem, Result: result{Metrics: m}, Digest: digest, Instr: 9,
			Extra: map[string]float64{"core.asm_err_pct": 12.5}}}
	}
	wall, _ := lookup(endToEnd, "wall_s")
	setup, _ := lookup(endToEnd, "setup_s")
	var out bytes.Buffer
	if bad := compareSets(&out, mk(1, 1, "d"), mk(1+wall.Bound-0.01, 1+setup.Bound-0.01, "d")); bad != 0 {
		t.Errorf("differences inside each metric's bound, got %d disagreements:\n%s", bad, out.String())
	}
	if bad := compareSets(io.Discard, mk(1, 1, "d"), mk(1+wall.Bound+0.01, 1, "d")); bad != 1 {
		t.Errorf("wall_s beyond its bound must disagree, got %d", bad)
	}
	if bad := compareSets(io.Discard, mk(1, 1, "d"), mk(1, 1, "e")); bad != 1 {
		t.Errorf("a different digest must be a mismatch, got %d", bad)
	}
}

// TestBenchmarkJSONMatchesHarness keeps ../BENCHMARK.json and the
// harness's own declarations identical, so neither can drift.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness")
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d = %+v", i, w)
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths=%v run_seconds=%d", doc.Paths, doc.RunSeconds)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if d, ok := lookup(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" || d.Bound > 0.25 {
		t.Errorf("setup_s = %+v", d)
	}
}

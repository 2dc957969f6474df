package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
)

// fixtureAttribution builds a 2-app quantum snapshot with non-trivial
// matrices, the shape asmsim emits into a chrome-trace file.
func fixtureAttribution(q int) evtrace.QuantumAttribution {
	return evtrace.QuantumAttribution{
		Quantum: q, EndCycle: uint64(q+1) * 200_000, Cycles: 200_000,
		Apps:         []string{"mcf", "lbm"},
		Mem:          [][]float64{{0, 120_000, 3_000}, {90_000, 0, 2_000}},
		MemRowTotals: []float64{123_000, 92_000},
		Cache:        [][]float64{{0, 40_000, 0}, {25_000, 0, 0}},
		AppStats: []evtrace.AppQuantumStats{
			{Name: "mcf", Retired: 80_000, MemStallCycles: 150_000, MemInterf: 123_000, CacheInterf: 40_000},
			{Name: "lbm", Retired: 120_000, MemStallCycles: 130_000, MemInterf: 92_000, CacheInterf: 25_000},
		},
	}
}

// writeFixtureTrace writes a minimal chrome-trace file carrying two
// attribution snapshots.
func writeFixtureTrace(t *testing.T, path string) {
	t.Helper()
	writeTrace(t, path, fixtureAttribution(0), fixtureAttribution(1))
}

// writeTrace writes a chrome-trace file carrying one attribution event
// per snapshot, in order.
func writeTrace(t *testing.T, path string, quanta ...evtrace.QuantumAttribution) {
	t.Helper()
	type arg struct {
		Attribution evtrace.QuantumAttribution `json:"attribution"`
	}
	events := make([]map[string]any, len(quanta))
	for i, q := range quanta {
		events[i] = map[string]any{"name": "attribution", "ph": "i", "ts": float64(i), "pid": 1, "args": arg{q}}
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runCapture drives run() in-process and returns (exit, stdout, stderr).
func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestExitCodes is the satellite golden test: usage errors exit 2 with
// usage on stderr, operational failures exit 1, successes exit 0.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	writeFixtureTrace(t, tracePath)
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed trace plus one attribution event whose payload does
	// not decode: the summary must not quietly drop it.
	badAttr := filepath.Join(dir, "bad-attribution.trace.json")
	writeFixtureTrace(t, badAttr)
	data, err := os.ReadFile(badAttr)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"traceEvents":[`),
		[]byte(`"traceEvents":[{"name":"attribution","ph":"i","ts":0,"pid":1,"args":{"attribution":"oops"}},`), 1)
	if err := os.WriteFile(badAttr, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		code       int
		wantUsage  bool // usage text must reach stderr
		wantStderr string
	}{
		{name: "no args", args: nil, code: 2, wantUsage: true},
		{name: "missing path reads as file", args: []string{"absent.trace.json"},
			code: 1, wantStderr: "absent.trace.json"},
		{name: "too many positionals", args: []string{tracePath, tracePath}, code: 2, wantUsage: true},
		{name: "bad flag", args: []string{"-definitely-not-a-flag", tracePath}, code: 2, wantUsage: true},
		{name: "diff is an unknown flag", args: []string{"-diff", tracePath, tracePath}, code: 2,
			wantUsage: true, wantStderr: "flag provided but not defined: -diff"},
		{name: "tol is an unknown flag", args: []string{"-tol", "0.02", tracePath}, code: 2,
			wantUsage: true, wantStderr: "flag provided but not defined: -tol"},
		{name: "summarize ok", args: []string{tracePath}, code: 0},
		{name: "check ok", args: []string{"-check", tracePath}, code: 0},
		{name: "check garbage", args: []string{"-check", garbage}, code: 1},
		{name: "summarize bad attribution", args: []string{badAttr}, code: 1, wantStderr: "bad attribution event"},
		{name: "check bad attribution", args: []string{"-check", badAttr}, code: 1, wantStderr: "bad attribution event"},
		{name: "bad format", args: []string{"-format", "yaml", tracePath}, code: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCapture(t, tc.args...)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr)
			}
			if tc.wantUsage && !strings.Contains(stderr, "usage:") {
				t.Errorf("run(%v) stderr lacks usage text: %q", tc.args, stderr)
			}
			if tc.wantStderr != "" && !strings.Contains(stderr, tc.wantStderr) {
				t.Errorf("run(%v) stderr = %q, want substring %q", tc.args, stderr, tc.wantStderr)
			}
		})
	}
}

// TestSummarizeSplitsAppSets: a trace holding runs over different app
// sets (a cluster's machines, or a migrated machine's rounds) interleaves their snapshots; here two
// single-app runs each carry one snapshot. Each app must get its own CPI
// row with its own CPI, not be folded into the first app's row.
func TestSummarizeSplitsAppSets(t *testing.T) {
	oneApp := func(q int, app string, retired uint64) evtrace.QuantumAttribution {
		return evtrace.QuantumAttribution{
			Quantum: q, EndCycle: uint64(q+1) * 200_000, Cycles: 200_000,
			Apps:         []string{app},
			Mem:          [][]float64{{0, 3_000}},
			MemRowTotals: []float64{3_000},
			Cache:        [][]float64{{0, 0}},
			AppStats:     []evtrace.AppQuantumStats{{Name: app, Retired: retired, MemStallCycles: 150_000}},
		}
	}
	path := filepath.Join(t.TempDir(), "sets.trace.json")
	writeTrace(t, path, oneApp(0, "mcf", 25_000), oneApp(0, "lbm", 40_000))

	code, stdout, stderr := runCapture(t, "-format", "json", path)
	if code != 0 {
		t.Fatalf("summarize failed (%d): %s", code, stderr)
	}
	var tables []exp.Table
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil {
		t.Fatalf("summary is not a table array: %v\n%s", err, stdout)
	}
	cpi := map[string]string{}
	for _, tb := range tables {
		if tb.ID != "trace-cpi" {
			continue
		}
		for _, row := range tb.Rows {
			if _, dup := cpi[row[0]]; dup {
				t.Errorf("app %s has more than one CPI row", row[0])
			}
			cpi[row[0]] = row[1]
		}
	}
	want := map[string]string{"mcf": "8.000", "lbm": "5.000"} // 200,000 cycles over each app's own retired count
	if len(cpi) != len(want) {
		t.Fatalf("CPI rows %v, want one per app %v", cpi, want)
	}
	for app, w := range want {
		if cpi[app] != w {
			t.Errorf("%s CPI = %q, want %q", app, cpi[app], w)
		}
	}
}

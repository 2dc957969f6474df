package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
		{name: "unknown subcommand", args: []string{"frobnicate"}, code: 2,
			wantUsage: true, wantStderr: "unknown subcommand"},
		{name: "unknown subcommand with file", args: []string{"frobnicate", tracePath},
			code: 2, wantUsage: true, wantStderr: "unknown subcommand"},
		{name: "missing path reads as file", args: []string{"absent.trace.json"},
			code: 1, wantStderr: "absent.trace.json"},
		{name: "too many positionals", args: []string{tracePath, tracePath}, code: 2, wantUsage: true},
		{name: "bad flag", args: []string{"-definitely-not-a-flag", tracePath}, code: 2, wantUsage: true},
		{name: "diff missing args", args: []string{"-diff", tracePath}, code: 2, wantUsage: true},
		{name: "merge without files", args: []string{"merge"}, code: 2, wantUsage: true},
		{name: "merge bad flag", args: []string{"merge", "-nope"}, code: 2, wantUsage: true},
		{name: "merge unreadable input", args: []string{"merge", filepath.Join(dir, "absent.json")}, code: 1},
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

// TestMergeSubcommandEndToEnd folds two fixture node traces and checks
// the merged file passes `tracesum -check` and summarizes cleanly, all
// through the public run() seam.
func TestMergeSubcommandEndToEnd(t *testing.T) {
	dir := t.TempDir()
	n0 := filepath.Join(dir, "node0.trace.json")
	n1 := filepath.Join(dir, "node1.trace.json")
	writeFixtureTrace(t, n0)
	writeFixtureTrace(t, n1)
	merged := filepath.Join(dir, "merged.trace.json")

	code, _, stderr := runCapture(t, "merge", "-o", merged, n0, n1)
	if code != 0 {
		t.Fatalf("merge failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stderr, "merged 2 node traces") {
		t.Errorf("merge skew report missing: %q", stderr)
	}

	code, stdout, stderr := runCapture(t, "-check", merged)
	if code != 0 {
		t.Fatalf("-check on merged file failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "OK") {
		t.Errorf("-check output: %q", stdout)
	}

	code, stdout, stderr = runCapture(t, merged)
	if code != 0 {
		t.Fatalf("summarize on merged file failed (%d): %s", code, stderr)
	}
	// The cluster summary must show node-qualified app names for all
	// 2+2 apps, proving the plain summarizer read the cluster-level
	// matrix, not a sum of per-node ones.
	for _, name := range []string{"n0/mcf", "n0/lbm", "n1/mcf", "n1/lbm"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("merged summary lacks app %q", name)
		}
	}
}

// TestMergeToStdout: without -o the trace itself lands on stdout (valid
// JSON) and the report on stderr.
func TestMergeToStdout(t *testing.T) {
	dir := t.TempDir()
	n0 := filepath.Join(dir, "node0.trace.json")
	writeFixtureTrace(t, n0)
	code, stdout, stderr := runCapture(t, "merge", n0)
	if code != 0 {
		t.Fatalf("merge failed (%d): %s", code, stderr)
	}
	if !strings.HasPrefix(strings.TrimSpace(stdout), "{") {
		t.Errorf("stdout is not a JSON document: %.60q", stdout)
	}
	if strings.Contains(stdout, "merged 1 node traces") {
		t.Error("skew report leaked into the piped trace on stdout")
	}
}

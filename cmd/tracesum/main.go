// Command tracesum summarizes an asmsim event trace: it folds the trace's
// per-quantum interference attribution snapshots into run-level N×N
// attribution matrices (cycles app i delayed app j, split shared-cache vs
// main-memory) and per-app CPI stacks, and optionally validates that the
// file is well-formed Perfetto-loadable chrome-trace JSON.
//
// Usage:
//
//	asmsim -apps mcf,libquantum,bzip2,h264ref -trace /tmp/run.trace.json
//	tracesum /tmp/run.trace.json
//	tracesum -check /tmp/run.trace.json       # schema validation only
//	tracesum -format csv /tmp/run.trace.json
//	tracesum -format json /tmp/run.trace.json > summary.json  # golden-ready
//
// A trace whose attribution snapshots carry more than one app set — a
// cluster trace, whose machines name their apps "n<k>/<app>" and whose
// slots change app in a migration — is summarized one set at a time, in
// sorted set order, each table titled with its set.
//
// Exit codes: 0 success, 1 operational failure (unreadable file, failed
// validation), 2 usage error (missing file argument, bad flags).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: tracesum [-check] [-quanta] [-format text|csv|json] <trace.json>`

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, usageText)
	return 2
}

// run is the whole command behind a testable seam: argv in, exit code
// out, all output on the given writers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracesum", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		check    = fs.Bool("check", false, "validate the chrome-trace schema and exit (no tables)")
		format   = fs.String("format", "text", "output format: text, csv, json")
		perQuant = fs.Bool("quanta", false, "also print one interference row per quantum")
	)
	if err := fs.Parse(args); err != nil {
		return usage(stderr)
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	path := fs.Arg(0)

	nt, err := evtrace.LoadNodeTrace(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *check {
		if err := nt.Check(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: OK — %d events, %d attribution quanta\n",
			path, len(nt.Events), len(nt.Quanta))
		return 0
	}

	if len(nt.Quanta) == 0 {
		fmt.Fprintf(stderr, "%s: no attribution events (was the run traced?)\n", path)
		return 1
	}
	tables := summarizeTrace(nt.Quanta)
	if *perQuant {
		tables = append(tables, quantaTable(nt.Quanta))
	}
	// JSON emits the whole run as ONE document (an array of tables), the
	// form the committed goldens hold and jq reads without multi-document
	// hacks.
	if *format == "json" {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
		return 0
	}
	for i, t := range tables {
		out, err := t.Render(*format)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintln(stdout, out)
	}
	return 0
}

// summarizeTrace builds the summary tables of a trace, one table set per
// app set in sorted set order: Summarize folds quanta by slot, so quanta
// of different apps must never share one fold. Only a trace with several
// sets titles its tables with the set.
func summarizeTrace(quanta []evtrace.QuantumAttribution) []*exp.Table {
	sets := evtrace.SplitByApp(quanta)
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var tables []*exp.Table
	for _, k := range keys {
		for _, t := range summaryTables(evtrace.Summarize(sets[k])) {
			if len(keys) > 1 {
				t.Title += " — " + k
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// summaryTables builds the canonical table set for one app set's
// summary.
func summaryTables(sum evtrace.Summary) []*exp.Table {
	return []*exp.Table{
		matrixTable("trace-mem", "Memory interference attribution (Mcycles, cause × victim)", sum.Apps, sum.Mem, sum.MemRowTotals),
		matrixTable("trace-cache", "Shared-cache interference attribution (Mcycles, cause × victim)", sum.Apps, sum.Cache, nil),
		cpiTable(sum),
	}
}

// matrixTable renders a victim-major attribution matrix: one row per
// victim app, one column per cause (apps, then the system pseudo-cause),
// plus the row total when provided.
func matrixTable(id, title string, apps []string, m [][]float64, rowTotals []float64) *exp.Table {
	t := &exp.Table{ID: id, Title: title}
	t.Header = append(t.Header, "victim \\ cause")
	for _, a := range apps {
		t.Header = append(t.Header, a)
	}
	t.Header = append(t.Header, "system")
	if rowTotals != nil {
		t.Header = append(t.Header, "total")
	}
	for j, a := range apps {
		cells := []string{a}
		if j < len(m) {
			for _, v := range m[j] {
				cells = append(cells, fmt.Sprintf("%.3f", v/1e6))
			}
		}
		for len(cells) < len(apps)+2 {
			cells = append(cells, "0.000")
		}
		if rowTotals != nil {
			v := 0.0
			if j < len(rowTotals) {
				v = rowTotals[j]
			}
			cells = append(cells, fmt.Sprintf("%.3f", v/1e6))
		}
		t.AddRow(cells...)
	}
	t.AddNote("entry (j, i): million cycles cause i's occupancy delayed victim j")
	return t
}

// cpiTable renders the per-app CPI stacks.
func cpiTable(sum evtrace.Summary) *exp.Table {
	t := &exp.Table{
		ID:     "trace-cpi",
		Title:  "CPI stacks over the traced window",
		Header: []string{"app", "CPI", "compute%", "mem-alone%", "cache-interf%", "mem-interf%"},
	}
	for _, cs := range sum.CPIStacks() {
		t.AddRow(cs.Name,
			fmt.Sprintf("%.3f", cs.CPI),
			fmt.Sprintf("%.1f", 100*cs.Compute),
			fmt.Sprintf("%.1f", 100*cs.MemAlone),
			fmt.Sprintf("%.1f", 100*cs.CacheInterf),
			fmt.Sprintf("%.1f", 100*cs.MemInterf))
	}
	t.AddNote("%d quanta, %d cycles per app; interference components clamped into measured memory-stall time", sum.Quanta, sum.Cycles)
	return t
}

// quantaTable renders one row per (quantum, victim) with interference
// totals, for spotting phase changes over time.
func quantaTable(quanta []evtrace.QuantumAttribution) *exp.Table {
	t := &exp.Table{
		ID:     "trace-quanta",
		Title:  "Per-quantum interference (Mcycles)",
		Header: []string{"quantum", "app", "mem", "cache"},
	}
	for _, q := range quanta {
		for j, a := range q.Apps {
			var mem, cache float64
			if j < len(q.MemRowTotals) {
				mem = q.MemRowTotals[j]
			}
			if j < len(q.Cache) {
				for _, v := range q.Cache[j] {
					cache += v
				}
			}
			t.AddRow(fmt.Sprintf("%d", q.Quantum), a,
				fmt.Sprintf("%.3f", mem/1e6), fmt.Sprintf("%.3f", cache/1e6))
		}
	}
	return t
}

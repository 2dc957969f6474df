// Command benchdiff compares two cmd/benchjson reports — the perf-guard
// gate behind `make bench-diff`:
//
//	benchdiff -tol 0.15 BENCH_sweep.json fresh_sweep.json
//
// The first file is the committed baseline, the second the freshly
// measured run. Benchmarks are matched by name (less the -GOMAXPROCS
// suffix, so reports from differently sized machines still pair up);
// entries present in only one report are noted but never fail the
// comparison (renames and new benchmarks should not break CI).
// Improvements are reported and always pass.
//
// The gate is hard on what repeats and soft on what does not. B/op and
// allocs/op are properties of the code, not of the machine or its
// neighbours: a regression beyond the tolerance in either fails the
// command (exit 1, GitHub `::error::` annotation). ns/op on a shared
// runner is weather: a regression beyond the tolerance is marked and
// printed as a `::warning::` annotation so the CI run surfaces it
// inline, but does not change the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// hardMetrics are the deterministic per-op metrics the gate fails on.
var hardMetrics = []string{"B/op", "allocs/op"}

// Benchmark mirrors cmd/benchjson's entry shape.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report mirrors cmd/benchjson's document shape.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	tol := flag.Float64("tol", 0.15, "allowed fractional regression per metric (0.15 = +15%): B/op and allocs/op fail beyond it, ns/op warns")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.15] baseline.json fresh.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fresh, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if base.CPU != "" && fresh.CPU != "" && base.CPU != fresh.CPU {
		fmt.Printf("note: baseline CPU %q != fresh CPU %q — wall-clock deltas are indicative only\n",
			base.CPU, fresh.CPU)
	}

	matched, slower, failed := compare(os.Stdout, base, fresh, *tol)
	if matched == 0 {
		fatal(fmt.Errorf("benchdiff: no benchmarks in common between %s and %s", flag.Arg(0), flag.Arg(1)))
	}
	fmt.Println()
	if slower > 0 {
		fmt.Printf("%d of %d benchmark(s) slower than baseline by more than %.0f%% in ns/op (not gating)\n", slower, matched, *tol*100)
	}
	if failed > 0 {
		fmt.Printf("%d B/op or allocs/op regression(s) beyond %.0f%% across %d matched benchmark(s)\n", failed, *tol*100, matched)
		os.Exit(1)
	}
	fmt.Printf("all %d matched benchmark(s) within %.0f%% of baseline in B/op and allocs/op\n", matched, *tol*100)
}

// compare prints one row per benchmark of base and returns how many were
// matched in fresh, how many of those are slower in ns/op by more than
// tol (soft: annotated only) and how many hard-metric regressions beyond
// tol they show between them (these fail the gate).
func compare(w io.Writer, base, fresh *Report, tol float64) (matched, slower, failed int) {
	baseBy := byName(base)
	freshBy := byName(fresh)
	names := make([]string, 0, len(baseBy))
	for name := range baseBy {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-44s %14s %14s %8s\n", "benchmark", "baseline ns/op", "fresh ns/op", "delta")
	for _, name := range names {
		b := baseBy[name]
		f, ok := freshBy[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14s %8s\n", name, fmtNs(b.Metrics["ns/op"]), "absent", "-")
			continue
		}
		bn, fn := b.Metrics["ns/op"], f.Metrics["ns/op"]
		if bn <= 0 || fn <= 0 {
			fmt.Fprintf(w, "%-44s %14s %14s %8s\n", name, fmtNs(bn), fmtNs(fn), "n/a")
			continue
		}
		matched++
		delta := fn/bn - 1
		mark := ""
		if delta > tol {
			mark = "  slower"
			slower++
			fmt.Fprintf(w, "::warning title=benchmark slower::%s ns/op %+.1f%% (baseline %s, fresh %s, tolerance %.0f%%)\n",
				name, delta*100, fmtNs(bn), fmtNs(fn), tol*100)
		}
		fmt.Fprintf(w, "%-44s %14s %14s %+7.1f%%%s\n", name, fmtNs(bn), fmtNs(fn), delta*100, mark)
		for _, unit := range hardMetrics {
			bv, okb := b.Metrics[unit]
			fv, okf := f.Metrics[unit]
			if !okb || !okf || fv <= bv*(1+tol) {
				continue
			}
			failed++
			fmt.Fprintf(w, "::error title=benchmark regression::%s %s %.0f -> %.0f (tolerance %.0f%%)\n",
				name, unit, bv, fv, tol*100)
			fmt.Fprintf(w, "%-44s %14.0f %14.0f %8s  REGRESSION %s\n", "", bv, fv, pct(bv, fv), unit)
		}
	}
	for name := range freshBy {
		if _, ok := baseBy[name]; !ok {
			fmt.Fprintf(w, "%-44s %14s %14s %8s\n", name, "absent", fmtNs(freshBy[name].Metrics["ns/op"]), "new")
		}
	}
	return matched, slower, failed
}

// pct formats the relative change from base to fresh; a zero base has none.
func pct(base, fresh float64) string {
	if base <= 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", (fresh/base-1)*100)
}

func load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s holds no benchmarks", path)
	}
	return &r, nil
}

// byName indexes a report, keeping the fastest entry when -count>1
// produced duplicates (min is the standard robust pick for wall-clock
// benchmarks).
func byName(r *Report) map[string]Benchmark {
	m := map[string]Benchmark{}
	for _, b := range r.Benchmarks {
		name := trimProcs(b.Name)
		if prev, ok := m[name]; ok && prev.Metrics["ns/op"] <= b.Metrics["ns/op"] {
			continue
		}
		m[name] = b
	}
	return m
}

// trimProcs drops the "-N" GOMAXPROCS suffix `go test` appends to a
// benchmark's name when N > 1.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func fmtNs(v float64) string {
	switch {
	case v <= 0:
		return "?"
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", v/1e3)
	}
	return fmt.Sprintf("%.0fns", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

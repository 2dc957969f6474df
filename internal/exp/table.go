// Package exp is the benchmark harness that regenerates every table and
// figure in the paper's evaluation (Section 6 and Section 7), plus a set
// of ablation experiments for the design choices DESIGN.md calls out.
//
// Each experiment is registered with an id (fig2, tab3, ...) and produces
// a Table; cmd/experiments renders them from the command line and the
// root-level benchmarks in bench_test.go run them under `go test -bench`.
// Quick scale runs the identical code paths at reduced workload counts and
// quantum lengths so the whole suite finishes in minutes; full scale
// approaches the paper's sizes.
package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one experiment's result in row/column form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries the paper's reference numbers and any methodology
	// remarks (e.g., substitutions or scale caveats).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			for ; pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC 4180 CSV (header row first; notes become
// trailing comment lines prefixed with '#').
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Header)
	for _, row := range t.Rows {
		w.Write(row)
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// JSON renders the table as an indented JSON object.
func (t *Table) JSON() (string, error) {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// Render renders the table in one of the formats text, csv or json.
func (t *Table) Render(format string) (string, error) {
	switch format {
	case "text":
		return t.String(), nil
	case "csv":
		return t.CSV(), nil
	case "json":
		return t.JSON()
	}
	return "", fmt.Errorf("unknown format %q (want text, csv or json)", format)
}

// f2, f3 and pct are terse cell formatters.
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x) }

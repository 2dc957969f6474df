// Diff mode: a regression gate over attribution matrices and CPI
// stacks. Two runs of the deterministic simulator over the same recipe
// must produce the same tables; `tracesum -diff golden.json fresh.json`
// makes that checkable in CI without bit-comparing raw traces (which
// embed sampled span events and are sensitive to -trace-sample).
//
// Each side may be a raw chrome-trace (summarized on the fly) or a
// summary saved with -format json. Numeric cells compare by relative
// error against -tol; cells where both sides are near zero are skipped
// (relative error on noise-floor values is meaningless). Structural
// drift — missing tables, reordered headers, changed row sets — always
// fails regardless of tolerance.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
)

// diffFloor: cells where both magnitudes sit below this are skipped.
// Matrix cells are Mcycles and CPI cells are absolute CPI / percent, so
// 0.05 is comfortably below anything the model treats as signal.
const diffFloor = 0.05

type cellDiff struct {
	table, row, col string
	oldV, newV      float64
	rel             float64
}

func (d cellDiff) String() string {
	return fmt.Sprintf("%s[%s][%s]: %g -> %g (%+.1f%%)",
		d.table, d.row, d.col, d.oldV, d.newV, 100*d.rel*sign(d.newV-d.oldV))
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// runDiff loads both sides, compares them, reports, and returns an
// error when the comparison fails — structurally or past tolerance.
func runDiff(oldPath, newPath string, tol float64) error {
	oldT, err := loadTables(oldPath)
	if err != nil {
		return err
	}
	newT, err := loadTables(newPath)
	if err != nil {
		return err
	}
	diffs, cells, err := diffTables(oldT, newT, tol)
	if err != nil {
		return fmt.Errorf("diff %s vs %s: %w", oldPath, newPath, err)
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	fmt.Printf("tracesum -diff: %d tables, %d numeric cells compared, %d beyond ±%.1f%% tolerance\n",
		len(oldT), cells, len(diffs), 100*tol)
	if len(diffs) > 0 {
		return fmt.Errorf("%s and %s diverge in %d cells", oldPath, newPath, len(diffs))
	}
	return nil
}

// loadTables reads either format: a chrome-trace object (detected by a
// non-empty traceEvents array) is summarized into the canonical tables;
// otherwise the file must be a -format json table array (or a single
// table object, for hand-built fixtures).
func loadTables(path string) ([]*exp.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if nt, err := evtrace.ParseTrace(data); err == nil && len(nt.Events) > 0 {
		if len(nt.Quanta) == 0 {
			return nil, fmt.Errorf("%s: trace has no attribution events", path)
		}
		return summaryTables(evtrace.Summarize(nt.Quanta)), nil
	}
	var tables []*exp.Table
	if err := json.Unmarshal(data, &tables); err == nil && len(tables) > 0 && tables[0].ID != "" {
		return tables, nil
	}
	var one exp.Table
	if err := json.Unmarshal(data, &one); err == nil && one.ID != "" {
		return []*exp.Table{&one}, nil
	}
	return nil, fmt.Errorf("%s: neither a chrome-trace nor a tracesum summary", path)
}

// diffTables compares new against old table by table (matched by ID).
// It returns the out-of-tolerance cells, the number of numeric cells
// compared, and a non-nil error for structural mismatches.
func diffTables(oldT, newT []*exp.Table, tol float64) ([]cellDiff, int, error) {
	byID := make(map[string]*exp.Table, len(newT))
	for _, t := range newT {
		byID[t.ID] = t
	}
	if len(newT) != len(oldT) {
		return nil, 0, fmt.Errorf("table count changed: %d -> %d", len(oldT), len(newT))
	}
	var diffs []cellDiff
	cells := 0
	for _, ot := range oldT {
		nt := byID[ot.ID]
		if nt == nil {
			return nil, 0, fmt.Errorf("table %q missing from new side", ot.ID)
		}
		d, n, err := diffOne(ot, nt, tol)
		if err != nil {
			return nil, 0, fmt.Errorf("table %q: %w", ot.ID, err)
		}
		diffs = append(diffs, d...)
		cells += n
	}
	return diffs, cells, nil
}

func diffOne(ot, nt *exp.Table, tol float64) ([]cellDiff, int, error) {
	if len(ot.Header) != len(nt.Header) {
		return nil, 0, fmt.Errorf("header width changed: %v -> %v", ot.Header, nt.Header)
	}
	for i := range ot.Header {
		if ot.Header[i] != nt.Header[i] {
			return nil, 0, fmt.Errorf("header column %d changed: %q -> %q", i, ot.Header[i], nt.Header[i])
		}
	}
	if len(ot.Rows) != len(nt.Rows) {
		return nil, 0, fmt.Errorf("row count changed: %d -> %d", len(ot.Rows), len(nt.Rows))
	}
	var diffs []cellDiff
	cells := 0
	for r := range ot.Rows {
		or, nr := ot.Rows[r], nt.Rows[r]
		if len(or) == 0 || len(nr) == 0 || or[0] != nr[0] {
			return nil, 0, fmt.Errorf("row %d label changed: %v -> %v", r, or, nr)
		}
		if len(or) != len(nr) {
			return nil, 0, fmt.Errorf("row %q width changed: %d -> %d cells", or[0], len(or), len(nr))
		}
		for c := 1; c < len(or); c++ {
			col := fmt.Sprintf("col%d", c)
			if c < len(ot.Header) {
				col = ot.Header[c]
			}
			ov, oerr := strconv.ParseFloat(or[c], 64)
			nv, nerr := strconv.ParseFloat(nr[c], 64)
			if oerr != nil || nerr != nil {
				// Non-numeric cells (labels embedded in a row) compare exactly.
				if or[c] != nr[c] {
					return nil, 0, fmt.Errorf("row %q, %s: non-numeric cell changed: %q -> %q", or[0], col, or[c], nr[c])
				}
				continue
			}
			cells++
			mag := math.Max(math.Abs(ov), math.Abs(nv))
			if mag < diffFloor {
				continue
			}
			if rel := math.Abs(nv-ov) / mag; rel > tol {
				diffs = append(diffs, cellDiff{
					table: ot.ID, row: or[0], col: col,
					oldV: ov, newV: nv, rel: rel,
				})
			}
		}
	}
	return diffs, cells, nil
}

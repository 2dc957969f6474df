package evtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// sampleQuantum builds a small two-app attribution snapshot.
func sampleQuantum(q int) QuantumAttribution {
	return QuantumAttribution{
		Quantum:  q,
		EndCycle: uint64(q+1) * 1000,
		Cycles:   1000,
		Apps:     []string{"a", "b"},
		Mem: [][]float64{
			{0, 80, 20},
			{40, 0, 0},
		},
		MemRowTotals: []float64{100, 40},
		Cache: [][]float64{
			{0, 10, 0},
			{5, 0, 0},
		},
		AppStats: []AppQuantumStats{
			{Name: "a", Retired: 500, MemStallCycles: 400, MemInterf: 100, CacheInterf: 10},
			{Name: "b", Retired: 800, MemStallCycles: 200, MemInterf: 40, CacheInterf: 5},
		},
	}
}

func TestTracerWritesValidChromeTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Config{SampleEvery: 1})
	tr.BeginRun([]string{"mcf", "bzip2"})
	tr.MissSpan(MissSpan{
		App: 0, Line: 0x40, Detect: 100, Enqueue: 110, Start: 250,
		Complete: 400, Done: 420, Channel: 0, Bank: 3, RowHit: true,
		InterfCycles: 140, Causes: []uint64{0, 140, 0}, CacheCause: 1,
	})
	tr.Quantum(sampleQuantum(0))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Pid  int             `json:"pid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Name+"/"+e.Ph]++
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative timing in %s: ts=%v dur=%v", e.Name, e.Ts, e.Dur)
		}
	}
	for _, want := range []string{"process_name/M", "miss/X", "mc-queue/X", "bank-service/X", "attribution/i", "interference/C"} {
		if counts[want] == 0 {
			t.Errorf("missing event %s (have %v)", want, counts)
		}
	}
	// The attribution event round-trips through JSON.
	var got []QuantumAttribution
	for _, e := range doc.TraceEvents {
		if e.Name != "attribution" {
			continue
		}
		var args struct {
			Attribution QuantumAttribution `json:"attribution"`
		}
		if err := json.Unmarshal(e.Args, &args); err != nil {
			t.Fatal(err)
		}
		got = append(got, args.Attribution)
	}
	if len(got) != 1 || got[0].MemRowTotals[0] != 100 || got[0].Apps[1] != "b" {
		t.Fatalf("attribution did not round-trip: %+v", got)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := New(&bytes.Buffer{}, Config{SampleEvery: 3})
	hits := 0
	for i := 0; i < 9; i++ {
		if tr.SampleMiss() {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("1-in-3 sampling over 9 misses: %d hits", hits)
	}
	if got := tr.SampleEvery(); got != 3 {
		t.Fatalf("SampleEvery = %d", got)
	}
}

func TestNilTracerIsNoOpAndAllocFree(t *testing.T) {
	var tr *Tracer
	sp := MissSpan{App: 1, InterfCycles: 7}
	q := sampleQuantum(0)
	allocs := testing.AllocsPerRun(100, func() {
		tr.BeginRun(nil)
		if tr.SampleMiss() {
			t.Fatal("nil tracer sampled a miss")
		}
		tr.MissSpan(sp)
		tr.Quantum(q)
		if tr.Err() != nil || tr.Close() != nil {
			t.Fatal("nil tracer reported an error")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v times per run", allocs)
	}
}

func TestTracerCloseIdempotentAndSticky(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Config{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("second Close wrote more data")
	}
	tr.MissSpan(MissSpan{}) // after close: dropped, no panic
}

func TestScaleRowsBitExactRowSums(t *testing.T) {
	cases := []struct {
		raw    [][]uint64
		totals []float64
	}{
		{[][]uint64{{0, 80, 20}, {40, 0, 1}}, []float64{123.456, 7.25}},
		{[][]uint64{{1, 1 << 40, 7}}, []float64{1e9 + 0.1}},
		{[][]uint64{{3, 0, 0}}, []float64{0.1}},
		{[][]uint64{{0, 0, 0}}, []float64{5}}, // empty row stays zero
		{[][]uint64{{9, 9, 9, 1}}, []float64{1.0 / 3.0}},
		{[][]uint64{{1, 1}}, []float64{math.Pi}},
	}
	for ci, c := range cases {
		scaled := ScaleRows(c.raw, c.totals)
		for j, row := range scaled {
			var rawSum uint64
			for _, v := range c.raw[j] {
				rawSum += v
			}
			want := c.totals[j]
			if rawSum == 0 {
				want = 0
			}
			if got := RowSum(row); got != want {
				t.Errorf("case %d row %d: RowSum = %v, want bit-exact %v (diff %g)",
					ci, j, got, want, got-want)
			}
			for i, v := range row {
				if c.raw[j][i] == 0 && v != 0 {
					t.Errorf("case %d row %d col %d: zero raw scaled to %v", ci, j, i, v)
				}
				if v < 0 {
					t.Errorf("case %d row %d col %d: negative %v", ci, j, i, v)
				}
			}
		}
	}
}

func TestSummarizeAndCPIStacks(t *testing.T) {
	sum := Summarize([]QuantumAttribution{sampleQuantum(0), sampleQuantum(1)})
	if sum.Quanta != 2 || sum.Cycles != 2000 {
		t.Fatalf("quanta %d cycles %d", sum.Quanta, sum.Cycles)
	}
	if sum.Mem[0][1] != 160 || sum.MemRowTotals[0] != 200 {
		t.Fatalf("mem aggregate wrong: %+v totals %v", sum.Mem, sum.MemRowTotals)
	}
	if sum.Cache[1][0] != 10 {
		t.Fatalf("cache aggregate wrong: %+v", sum.Cache)
	}
	if sum.AppStats[0].Retired != 1000 || sum.AppStats[1].MemInterf != 80 {
		t.Fatalf("app stats wrong: %+v", sum.AppStats)
	}

	stacks := sum.CPIStacks()
	if len(stacks) != 2 {
		t.Fatalf("%d stacks", len(stacks))
	}
	for _, cs := range stacks {
		total := cs.Compute + cs.MemAlone + cs.CacheInterf + cs.MemInterf
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("%s: fractions sum to %v", cs.Name, total)
		}
		if cs.CPI <= 0 {
			t.Errorf("%s: CPI %v", cs.Name, cs.CPI)
		}
	}
	// App a: 800 stall cycles of 2000, 200 mem interference, 20 cache.
	a := stacks[0]
	if a.Compute != (2000.0-800)/2000 || a.MemInterf != 200.0/2000 || a.CacheInterf != 20.0/2000 {
		t.Fatalf("stack a: %+v", a)
	}

	if s := Summarize(nil); s.Quanta != 0 || s.Apps != nil {
		t.Fatalf("empty summarize: %+v", s)
	}
}

func TestCPIStacksClampIntoStallBudget(t *testing.T) {
	// Attributed interference can exceed measured stall time (raw
	// occupancy overlaps); the stack must clamp, not go negative.
	q := sampleQuantum(0)
	q.AppStats[0].MemStallCycles = 50
	q.AppStats[0].MemInterf = 100
	q.AppStats[0].CacheInterf = 100
	cs := Summarize([]QuantumAttribution{q}).CPIStacks()[0]
	if cs.MemAlone < 0 || cs.CacheInterf < 0 {
		t.Fatalf("negative component: %+v", cs)
	}
	if cs.MemInterf != 50.0/1000 || cs.CacheInterf != 0 {
		t.Fatalf("clamp wrong: %+v", cs)
	}
}

func TestAddMatrixGrows(t *testing.T) {
	dst := AddMatrix(nil, [][]float64{{1, 2}, {3}})
	dst = AddMatrix(dst, [][]float64{{1}, {0, 5}, {7}})
	want := [][]float64{{2, 2}, {3, 5}, {7}}
	for j := range want {
		for i := range want[j] {
			if dst[j][i] != want[j][i] {
				t.Fatalf("dst[%d][%d] = %v, want %v", j, i, dst[j][i], want[j][i])
			}
		}
	}
}

func seriesQuantum(q int, apps []string) QuantumAttribution {
	return QuantumAttribution{
		Quantum: q, EndCycle: uint64(q+1) * 1000, Cycles: 1000,
		Apps: apps,
		AppStats: []AppQuantumStats{
			{Name: apps[0], Retired: uint64(100 * (q + 1)), MemStallCycles: 50},
		},
	}
}

func TestSplitByApp(t *testing.T) {
	series := []QuantumAttribution{
		seriesQuantum(0, []string{"mcf"}),
		seriesQuantum(0, []string{"lbm"}),
		seriesQuantum(1, []string{"mcf"}),
		seriesQuantum(0, []string{"mcf", "lbm"}),
		seriesQuantum(1, []string{"lbm"}),
	}
	got := SplitByApp(series)
	if len(got) != 3 {
		t.Fatalf("split into %d groups, want 3", len(got))
	}
	if len(got["mcf"]) != 2 || got["mcf"][0].Quantum != 0 || got["mcf"][1].Quantum != 1 {
		t.Fatalf("mcf series = %+v", got["mcf"])
	}
	if len(got["lbm"]) != 2 {
		t.Fatalf("lbm series = %+v", got["lbm"])
	}
	if len(got["mcf+lbm"]) != 1 {
		t.Fatalf("mixed series = %+v", got["mcf+lbm"])
	}
	if SplitByApp(nil) == nil {
		t.Fatal("SplitByApp(nil) must return an empty map, not nil")
	}
}

// TestSinkTracerRetainsAndForwards: a tracer keeps no snapshots itself;
// the file it writes retains every quantum it was handed, and ParseTrace
// forwards that series back unchanged and in order.
func TestSinkTracerRetainsAndForwards(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Config{SampleEvery: 1})
	tr.BeginRun([]string{"a", "b"})
	var want []QuantumAttribution
	for q := 0; q < 3; q++ {
		want = append(want, sampleQuantum(q))
		tr.Quantum(sampleQuantum(q))
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	nt, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nt.Quanta, want) {
		t.Fatalf("file carries %+v, want %+v", nt.Quanta, want)
	}
}

// TestOnQuantumWithFileTracer: a file tracer writes each quantum's
// attribution after the events emitted before it.
func TestOnQuantumWithFileTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Config{SampleEvery: 1})
	tr.BeginRun([]string{"a", "b"})
	tr.MissSpan(MissSpan{App: 0, Detect: 10, Enqueue: 20, Start: 30, Complete: 40, Done: 50, CacheCause: -1})
	tr.Quantum(sampleQuantum(0))
	tr.Quantum(sampleQuantum(1))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	nt, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(nt.Quanta) != 2 || nt.Quanta[1].Quantum != 1 {
		t.Fatalf("file carries quanta %+v", nt.Quanta)
	}
	miss, attr := -1, -1
	for i, e := range nt.Events {
		if e.Name == "miss" && miss < 0 {
			miss = i
		}
		if e.Name == "attribution" && attr < 0 {
			attr = i
		}
	}
	if miss < 0 || attr < 0 || attr < miss {
		t.Fatalf("miss event at %d, first attribution at %d: want the miss first", miss, attr)
	}
}

package evtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeNodeFixture writes a realistic node trace through the real Tracer
// API: `rounds` evaluation rounds, each of `quanta` quanta of `qlen`
// cycles, with a "round" instant at each round start and irrational
// matrix values so bit-identity is a real test, not an integer accident.
func writeNodeFixture(t testing.TB, path string, node int, names []string, rounds, quanta int, qlen uint64) {
	t.Helper()
	tr, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRun(names)
	n := len(names)
	var clock uint64
	for r := 0; r < rounds; r++ {
		tr.SetClockOffset(clock)
		tr.Instant("round", "cluster", 0, map[string]any{
			"round": r, "cycle": clock, "node": node,
		})
		for q := 0; q < quanta; q++ {
			qa := QuantumAttribution{
				Quantum:  q,
				EndCycle: uint64(q+1) * qlen,
				Cycles:   qlen,
				Apps:     names,
				Mem:      make([][]float64, n),
				Cache:    make([][]float64, n),
			}
			qa.MemRowTotals = make([]float64, n)
			for j := 0; j < n; j++ {
				qa.Mem[j] = make([]float64, n+1)
				qa.Cache[j] = make([]float64, n+1)
				for i := 0; i <= n; i++ {
					// Values with full mantissas, distinct per (node, round,
					// quantum, victim, cause).
					seed := float64(node*1000+r*100+q*10+j) + float64(i)*0.1
					qa.Mem[j][i] = math.Sqrt(seed+2) * 1e3
					qa.Cache[j][i] = math.Cbrt(seed+3) * 1e2
				}
				qa.MemRowTotals[j] = RowSum(qa.Mem[j])
				statSeed := float64(node*1000 + r*100 + q*10 + j)
				qa.AppStats = append(qa.AppStats, AppQuantumStats{
					Name:           names[j],
					Retired:        uint64(node+1) * uint64(r+1) * uint64(q+1) * 1000,
					MemStallCycles: uint64(j+1) * 37,
					MemInterf:      math.Sqrt(statSeed + 5),
					CacheInterf:    math.Cbrt(statSeed + 7),
				})
			}
			tr.Quantum(qa)
		}
		clock += uint64(quanta) * qlen
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func loadFixtures(t *testing.T, specs [][]string, rounds []int) []*NodeTrace {
	t.Helper()
	dir := t.TempDir()
	nodes := make([]*NodeTrace, len(specs))
	for k, names := range specs {
		p := filepath.Join(dir, "node.trace.json")
		p = filepath.Join(dir, "node"+string(rune('0'+k))+".trace.json")
		writeNodeFixture(t, p, k, names, rounds[k], 2, 100000)
		nt, err := LoadNodeTrace(p, k)
		if err != nil {
			t.Fatal(err)
		}
		nodes[k] = nt
	}
	return nodes
}

// TestMergePreservesNodeMatrices is the acceptance gate: every per-node
// diagonal block of the merged cluster attribution matrix must be
// bit-identical to that node's standalone summarized matrix, after a
// full write→load→merge round trip through JSON.
func TestMergePreservesNodeMatrices(t *testing.T) {
	specs := [][]string{{"mcf", "libquantum"}, {"astar", "lbm", "milc"}}
	nodes := loadFixtures(t, specs, []int{3, 3})
	m, err := Merge(nodes)
	if err != nil {
		t.Fatal(err)
	}
	ca := m.Attribution
	n := len(ca.Apps)
	if n != 5 {
		t.Fatalf("cluster apps = %d, want 5", n)
	}
	off := 0 // node k's first row/column in the cluster matrix
	for k, nt := range nodes {
		want := Summarize(nt.Quanta)
		nk := len(nt.Names)
		for j := 0; j < nk; j++ {
			row := off + j
			if ca.MemRowTotals[row] != want.MemRowTotals[j] {
				t.Errorf("node %d victim %d: MemRowTotals %v != %v",
					k, j, ca.MemRowTotals[row], want.MemRowTotals[j])
			}
			for i := 0; i < nk; i++ {
				if got, w := ca.Mem[row][off+i], want.Mem[j][i]; got != w {
					t.Errorf("node %d Mem[%d][%d]: %v != %v (bit mismatch)", k, j, i, got, w)
				}
				if got, w := ca.Cache[row][off+i], want.Cache[j][i]; got != w {
					t.Errorf("node %d Cache[%d][%d]: %v != %v", k, j, i, got, w)
				}
			}
			// System pseudo-cause: node column nk lands in the cluster's last column.
			if got, w := ca.Mem[row][n], want.Mem[j][nk]; got != w {
				t.Errorf("node %d victim %d system col: %v != %v", k, j, got, w)
			}
			if got, w := ca.Cache[row][n], want.Cache[j][nk]; got != w {
				t.Errorf("node %d victim %d cache system col: %v != %v", k, j, got, w)
			}
			// Off-diagonal blocks are zero: nodes share no hardware.
			for i := 0; i < n; i++ {
				if i >= off && i < off+nk {
					continue
				}
				if ca.Mem[row][i] != 0 || ca.Cache[row][i] != 0 {
					t.Errorf("node %d victim %d: nonzero cross-node cell at col %d", k, j, i)
				}
			}
			// AppStats integers ride along unchanged.
			ws := want.AppStats[j]
			gs := ca.AppStats[row]
			if gs.Retired != ws.Retired || gs.MemStallCycles != ws.MemStallCycles ||
				gs.MemInterf != ws.MemInterf || gs.CacheInterf != ws.CacheInterf {
				t.Errorf("node %d app %d stats diverged: got %+v want %+v", k, j, gs, ws)
			}
		}
		off += nk
	}
	// And the same identity must survive the merged-file round trip: write
	// the merged trace, re-load its cluster attribution instant, compare.
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Attribution QuantumAttribution `json:"attribution"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var cluster *QuantumAttribution
	nodeAttr := 0
	for i := range doc.TraceEvents {
		switch doc.TraceEvents[i].Name {
		case "attribution":
			if cluster != nil {
				t.Fatal("merged file has more than one cluster attribution instant")
			}
			cluster = &doc.TraceEvents[i].Args.Attribution
		case "node-attribution":
			nodeAttr++
		}
	}
	if cluster == nil {
		t.Fatal("merged file has no cluster attribution instant")
	}
	if wantN := 2 * 3 * 2; nodeAttr != wantN { // 2 nodes × 3 rounds × 2 quanta
		t.Errorf("merged file has %d node-attribution events, want %d", nodeAttr, wantN)
	}
	if !reflect.DeepEqual(cluster.Mem, ca.Mem) || !reflect.DeepEqual(cluster.Cache, ca.Cache) {
		t.Error("cluster attribution did not survive the JSON round trip bit-exactly")
	}
	if !reflect.DeepEqual(cluster.MemRowTotals, ca.MemRowTotals) {
		t.Error("MemRowTotals did not survive the JSON round trip")
	}
}

// TestMergeClockReconciliation: nodes that reach the same round at
// different local clocks are aligned to the latest arrival, and the
// reported skew is the spread the alignment absorbed.
func TestMergeClockReconciliation(t *testing.T) {
	// Node 0 runs 3 rounds of 2×100k cycles (round starts at 0, 200k,
	// 400k). Node 1 only completes 2 rounds' cycles over 3 round marks by
	// simulating shorter quanta — emulate with differing quanta cycles.
	dir := t.TempDir()
	p0 := filepath.Join(dir, "n0.json")
	p1 := filepath.Join(dir, "n1.json")
	writeNodeFixture(t, p0, 0, []string{"a", "b"}, 3, 2, 100000)
	// Node 1: same rounds but 60k-cycle quanta → round starts 0, 120k, 240k.
	writeNodeFixture(t, p1, 1, []string{"c"}, 3, 2, 60000)
	n0, err := LoadNodeTrace(p0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := LoadNodeTrace(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge([]*NodeTrace{n0, n1})
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := []ClusterRound{
		{Round: 0, Cycle: 0, Skew: 0},
		{Round: 1, Cycle: 200000, Skew: 80000},
		{Round: 2, Cycle: 400000, Skew: 160000},
	}
	if !reflect.DeepEqual(m.Rounds, wantRounds) {
		t.Errorf("Rounds = %+v, want %+v", m.Rounds, wantRounds)
	}
	if m.MaxSkewCycles != 160000 {
		t.Errorf("MaxSkewCycles = %d, want 160000", m.MaxSkewCycles)
	}
	// Node 0 is never shifted (it is the latest arrival everywhere);
	// node 1's round-2 events shift by 160k cycles.
	if got := m.shiftUs(0, 450000.0/1000.0); got != 0 {
		t.Errorf("node 0 shift = %v, want 0", got)
	}
	if got := m.shiftUs(1, 250000.0/1000.0); got != 160000.0/1000.0 {
		t.Errorf("node 1 late shift = %v µs, want 160", got)
	}
	if got := m.shiftUs(1, 130000.0/1000.0); got != 80000.0/1000.0 {
		t.Errorf("node 1 mid shift = %v µs, want 80", got)
	}
}

// TestMergePidNamespacing: merged events land in per-node pid blocks of
// PidStride, with process metadata for every (node, app) pair.
func TestMergePidNamespacing(t *testing.T) {
	specs := [][]string{{"mcf", "lbm"}, {"milc"}}
	nodes := loadFixtures(t, specs, []int{1, 1})
	m, err := Merge(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc rawTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	wantPids := map[int]bool{0: false, 1: false, PidStride: false}
	sortIdx := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.Pid != nil {
			if _, ok := wantPids[*e.Pid]; ok {
				wantPids[*e.Pid] = true
			} else {
				t.Errorf("unexpected process_name pid %d", *e.Pid)
			}
		}
		if e.Ph == "M" && e.Name == "process_sort_index" {
			sortIdx++
		}
		if e.Ph == "C" && e.Pid != nil {
			// interference counters from node 1 must live at pid ≥ PidStride
			// exactly when their origin pid says so; all node-0 counters stay
			// below PidStride. Node composition: node 0 has 2 apps (pids 0,1),
			// node 1 has 1 app (pid 1000).
			if *e.Pid != 0 && *e.Pid != 1 && *e.Pid != PidStride {
				t.Errorf("counter event at unexpected pid %d", *e.Pid)
			}
		}
	}
	for pid, seen := range wantPids {
		if !seen {
			t.Errorf("missing process_name metadata for pid %d", pid)
		}
	}
	if sortIdx != 3 {
		t.Errorf("process_sort_index count = %d, want 3", sortIdx)
	}
}

// TestMergeFilesEndToEnd drives the one-call wrapper and checks the
// merged document passes the same structural validation tracesum -check
// applies (phases known, ts present, exactly one attribution instant).
func TestMergeFilesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	p0 := filepath.Join(dir, "n0.json")
	p1 := filepath.Join(dir, "n1.json")
	writeNodeFixture(t, p0, 0, []string{"a"}, 2, 1, 50000)
	writeNodeFixture(t, p1, 1, []string{"b"}, 2, 1, 50000)
	out := filepath.Join(dir, "merged.json")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeFiles(f, []string{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 2 || len(m.Attribution.Apps) != 2 {
		t.Fatalf("merged %d nodes / %d apps, want 2/2", len(m.Nodes), len(m.Attribution.Apps))
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc rawTraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged file is not valid JSON: %v", err)
	}
	attrib := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X", "M", "i", "I", "C", "B", "E":
		default:
			t.Errorf("unknown phase %q in merged file", e.Ph)
		}
		if e.Ph != "M" {
			if e.Ts == nil {
				t.Errorf("event %q missing ts", e.Name)
			} else if *e.Ts < 0 {
				t.Errorf("event %q has negative ts %v", e.Name, *e.Ts)
			}
			if e.Pid == nil {
				t.Errorf("event %q missing pid", e.Name)
			}
		}
		if e.Name == "attribution" && e.Ph == "i" {
			attrib++
		}
	}
	if attrib != 1 {
		t.Errorf("merged file has %d attribution instants, want exactly 1", attrib)
	}
	if doc.OtherData["pid_stride"] == nil || doc.OtherData["max_skew_cycles"] == nil {
		t.Error("merged file otherData missing pid_stride / max_skew_cycles")
	}
}

// TestMergeErrors: empty input and unreadable files fail loudly.
func TestMergeErrors(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Error("Merge(nil) did not error")
	}
	if _, err := LoadNodeTrace(filepath.Join(t.TempDir(), "absent.json"), 0); err == nil {
		t.Error("LoadNodeTrace on a missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNodeTrace(bad, 0); err == nil {
		t.Error("LoadNodeTrace on garbage did not error")
	}
}

// FuzzLoadNodeTrace feeds arbitrary bytes to the node-trace parser and,
// when they parse, checks and merges that one node: none may panic,
// whatever the file holds. It parses in memory (ParseTrace, the body of
// LoadNodeTrace), so the fuzzer writes no files.
func FuzzLoadNodeTrace(f *testing.F) {
	dir := f.TempDir()
	for k, names := range [][]string{{"mcf", "libquantum"}, {"astar", "lbm", "milc"}} {
		p := filepath.Join(dir, "seed.json")
		writeNodeFixture(f, p, k, names, 2, 2, 100000)
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		nt, err := ParseTrace(data)
		if err != nil {
			return
		}
		nt.Check()
		Merge([]*NodeTrace{nt})
	})
}

// wellFormed reports whether q has the shape BlockDiagonal embeds: N
// apps, N row totals, and N rows of N+1 columns (the trailing system
// column) in both splits, with N > 0.
func wellFormed(q *QuantumAttribution) bool {
	n := len(q.Apps)
	if n == 0 || len(q.Mem) != n || len(q.Cache) != n || len(q.MemRowTotals) != n {
		return false
	}
	for j := 0; j < n; j++ {
		if len(q.Mem[j]) != n+1 || len(q.Cache[j]) != n+1 {
			return false
		}
	}
	return true
}

// TestBlockDiagonal: blocks land on the diagonal under their given node
// ids, each system column in the cluster's last column, values verbatim,
// and the cluster clock is the furthest node's.
func TestBlockDiagonal(t *testing.T) {
	a := sampleQuantum(4) // apps a, b
	b := QuantumAttribution{
		Quantum: 2, EndCycle: 9000, Cycles: 3000, Apps: []string{"c"},
		Mem: [][]float64{{0, 7}}, MemRowTotals: []float64{7}, Cache: [][]float64{{0, 1}},
		AppStats: []AppQuantumStats{{Name: "c", Retired: 9}},
	}
	for _, q := range []QuantumAttribution{a, b} {
		if !wellFormed(&q) {
			t.Fatalf("%v is not well formed", q.Apps)
		}
	}
	got := BlockDiagonal([]int{3, 5}, []QuantumAttribution{a, b})
	want := QuantumAttribution{
		Quantum: 4, EndCycle: 9000, Cycles: 3000,
		Apps:         []string{"n3/a", "n3/b", "n5/c"},
		Mem:          [][]float64{{0, 80, 0, 20}, {40, 0, 0, 0}, {0, 0, 0, 7}},
		MemRowTotals: []float64{100, 40, 7},
		Cache:        [][]float64{{0, 10, 0, 0}, {5, 0, 0, 0}, {0, 0, 0, 1}},
		AppStats: []AppQuantumStats{
			{Name: "n3/a", Retired: 500, MemStallCycles: 400, MemInterf: 100, CacheInterf: 10},
			{Name: "n3/b", Retired: 800, MemStallCycles: 200, MemInterf: 40, CacheInterf: 5},
			{Name: "n5/c", Retired: 9},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BlockDiagonal:\ngot  %+v\nwant %+v", got, want)
	}
	torn := sampleQuantum(0)
	torn.Cache[1] = torn.Cache[1][:2]
	if wellFormed(&torn) || wellFormed(&QuantumAttribution{}) {
		t.Fatal("a torn or empty snapshot reads as well formed")
	}
}

package evtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeClusterFixture writes a realistic cluster trace through the real
// Tracer API: one node view per entry of specs, `rounds` rounds of
// `quanta` quanta of `qlen` cycles, a "round" instant at each round
// start on the cluster clock, sampled miss spans, and matrices with full
// mantissas.
func writeClusterFixture(t testing.TB, w *bytes.Buffer, specs [][]string, rounds, quanta int, qlen uint64) {
	t.Helper()
	tr := New(w, Config{SampleEvery: 2})
	for r := 0; r < rounds; r++ {
		tr.SetClockOffset(uint64(r*quanta) * qlen)
		tr.Instant("round", "cluster", 0, map[string]any{"round": r})
		for k, names := range specs {
			node := tr.Node(k)
			node.BeginRun(names)
			n := len(names)
			for q := 0; q < quanta; q++ {
				if node.SampleMiss() {
					node.MissSpan(MissSpan{App: q % n, Detect: uint64(q) * qlen, Enqueue: uint64(q)*qlen + 5,
						Start: uint64(q)*qlen + 40, Complete: uint64(q)*qlen + 90, Done: uint64(q)*qlen + 99, CacheCause: -1})
				}
				qa := QuantumAttribution{
					Quantum:      q,
					EndCycle:     uint64(q+1) * qlen,
					Cycles:       qlen,
					Apps:         names,
					Mem:          make([][]float64, n),
					Cache:        make([][]float64, n),
					MemRowTotals: make([]float64, n),
				}
				for j := 0; j < n; j++ {
					qa.Mem[j] = make([]float64, n+1)
					qa.Cache[j] = make([]float64, n+1)
					for i := 0; i <= n; i++ {
						seed := float64(k*1000+r*100+q*10+j) + float64(i)*0.1
						qa.Mem[j][i] = math.Sqrt(seed+2) * 1e3
						qa.Cache[j][i] = math.Cbrt(seed+3) * 1e2
					}
					qa.MemRowTotals[j] = RowSum(qa.Mem[j])
					qa.AppStats = append(qa.AppStats, AppQuantumStats{
						Name:      names[j],
						Retired:   uint64(k+1) * uint64(r+1) * uint64(q+1) * 1000,
						MemInterf: qa.MemRowTotals[j],
					})
				}
				node.Quantum(qa)
			}
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeViewsShareOneStream: node views write into the root tracer's
// file under their own pids and "n<k>/" app names, on the root's
// sampling clock and clock offset, while the root keeps pid base 0 and
// unprefixed names, and the caller's snapshot is left as it was.
func TestNodeViewsShareOneStream(t *testing.T) {
	if (*Tracer)(nil).Node(1) != nil {
		t.Fatal("Node of a nil tracer is not nil")
	}
	var buf bytes.Buffer
	root := New(&buf, Config{SampleEvery: 2})
	n1 := root.Node(1)
	root.BeginRun([]string{"a", "b"})
	n1.BeginRun([]string{"a", "b"})
	n1.BeginRun([]string{"x", "y"}) // the first call on a view wins
	if root.SampleMiss() || !n1.SampleMiss() {
		t.Fatal("node view does not share the root's sampling clock")
	}
	root.SetClockOffset(5000)
	n1.MissSpan(MissSpan{App: 1, Detect: 0, Enqueue: 10, Start: 20, Complete: 30, Done: 40, CacheCause: -1})
	q := sampleQuantum(0)
	want := sampleQuantum(0)
	n1.Quantum(q)
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("node view modified the caller's snapshot: %+v", q)
	}
	root.Quantum(q)
	if err := n1.Close(); err != nil { // closes the shared file
		t.Fatal(err)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	nt, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("shared file does not parse: %v\n%s", err, buf.String())
	}
	if err := nt.Check(); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	for _, e := range nt.Events {
		switch e.Name {
		case "process_name":
			var args struct{ Name string }
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			if _, dup := names[*e.Pid]; dup {
				t.Errorf("pid %d named twice", *e.Pid)
			}
			names[*e.Pid] = args.Name
		case "miss":
			if *e.Pid != PidStride+1 || *e.Ts != 5 {
				t.Errorf("node 1's miss at pid %d ts %v, want pid %d ts 5", *e.Pid, *e.Ts, PidStride+1)
			}
		}
	}
	wantNames := map[int]string{0: "app0 a", 1: "app1 b", PidStride: "app0 n1/a", PidStride + 1: "app1 n1/b"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("process names = %v, want %v", names, wantNames)
	}
	if len(nt.Quanta) != 2 {
		t.Fatalf("%d attribution snapshots, want 2", len(nt.Quanta))
	}
	node, plain := nt.Quanta[0], nt.Quanta[1]
	if !reflect.DeepEqual(plain, want) {
		t.Errorf("root snapshot = %+v, want %+v", plain, want)
	}
	if !reflect.DeepEqual(node.Apps, []string{"n1/a", "n1/b"}) ||
		node.AppStats[0].Name != "n1/a" || node.AppStats[1].Name != "n1/b" {
		t.Errorf("node snapshot names = %v / %+v", node.Apps, node.AppStats)
	}
	node.Apps, node.AppStats[0].Name, node.AppStats[1].Name = want.Apps, "a", "b"
	if !reflect.DeepEqual(node, want) {
		t.Errorf("node snapshot values differ from the caller's: %+v", node)
	}
}

// TestNodeViewsConcurrent: the root and several node views write into
// one file from separate goroutines; every event lands whole and the
// file parses.
func TestNodeViewsConcurrent(t *testing.T) {
	var buf bytes.Buffer
	root := New(&buf, Config{SampleEvery: 3})
	var wg sync.WaitGroup
	for k := -1; k < 4; k++ {
		tr := root
		if k >= 0 {
			tr = root.Node(k)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.BeginRun([]string{"a", "b"})
			for q := 0; q < 20; q++ {
				if tr.SampleMiss() {
					tr.MissSpan(MissSpan{App: q % 2, Detect: 1, Enqueue: 2, Start: 3, Complete: 4, Done: 5, CacheCause: -1})
				}
				tr.Quantum(sampleQuantum(q))
				tr.SetClockOffset(uint64(q))
			}
		}()
	}
	wg.Wait()
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	nt, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(SplitByApp(nt.Quanta)); got != 5 {
		t.Fatalf("%d app sets, want 5 (the root's and four views')", got)
	}
}

// TestLoadNodeTraceErrors: unreadable and malformed files fail loudly.
func TestLoadNodeTraceErrors(t *testing.T) {
	if _, err := LoadNodeTrace(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("LoadNodeTrace on a missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNodeTrace(bad); err == nil {
		t.Error("LoadNodeTrace on garbage did not error")
	}
}

// FuzzLoadNodeTrace feeds arbitrary bytes to the trace parser and, when
// they parse, checks the trace and summarizes each of its app sets: none
// may panic, whatever the file holds. It parses in memory (ParseTrace,
// the body of LoadNodeTrace), so the fuzzer writes no files.
func FuzzLoadNodeTrace(f *testing.F) {
	for _, specs := range [][][]string{{{"mcf", "libquantum"}}, {{"mcf", "libquantum"}, {"astar", "lbm", "milc"}}} {
		var buf bytes.Buffer
		writeClusterFixture(f, &buf, specs, 2, 2, 100000)
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		nt, err := ParseTrace(data)
		if err != nil {
			return
		}
		nt.Check()
		for _, series := range SplitByApp(nt.Quanta) {
			Summarize(series).CPIStacks()
		}
	})
}

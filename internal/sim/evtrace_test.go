package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
)

// traceSystem builds a contended multi-core system observed by a tracer
// writing into the returned buffer (nil when sampleEvery is 0: no
// tracer) and by an attribution collector filling the returned series.
func traceSystem(t *testing.T, sampleEvery int) (*System, *evtrace.Tracer, *bytes.Buffer, *[]evtrace.QuantumAttribution) {
	t.Helper()
	cfg := testConfig()
	cfg.Channels = 2
	sys, err := New(cfg, testSpecs(t, "mcf", "libquantum", "bzip2", "h264ref"))
	if err != nil {
		t.Fatal(err)
	}
	var buf *bytes.Buffer
	var series []evtrace.QuantumAttribution
	o := telemetry.Options{Attribution: func(q evtrace.QuantumAttribution) { series = append(series, q) }}
	if sampleEvery > 0 {
		buf = &bytes.Buffer{}
		o.Trace = evtrace.New(buf, evtrace.Config{SampleEvery: sampleEvery})
	}
	sys.Observe(o)
	return sys, o.Trace, buf, &series
}

// TestAttributionConsistency is the tentpole cross-check: at every quantum
// boundary, the emitted attribution must reconcile bit-exactly with the
// memory controllers' own interference accounting — per-victim row totals
// equal dram InterferenceCycles, the scaled matrix rows sum back to those
// totals, and the quantum stats snapshot agrees.
func TestAttributionConsistency(t *testing.T) {
	sys, _, _, series := traceSystem(t, 4)
	quanta := 0
	sys.AddQuantumListener(func(s *System, st *QuantumStats) {
		quanta++
		qs := *series
		if len(qs) == 0 {
			t.Fatal("no attribution emitted before listener ran")
		}
		q := qs[len(qs)-1]
		if q.Quantum != st.Quantum {
			t.Fatalf("attribution quantum %d, stats quantum %d", q.Quantum, st.Quantum)
		}
		for j := range st.Apps {
			// Controller counters are still live here (reset happens after
			// listeners), so all three accountings must be bitwise equal.
			live := s.Mem().InterferenceCycles(j)
			if q.MemRowTotals[j] != live {
				t.Errorf("q%d app %d: row total %v != live controller %v (diff %g)",
					st.Quantum, j, q.MemRowTotals[j], live, q.MemRowTotals[j]-live)
			}
			if q.MemRowTotals[j] != st.Apps[j].MemInterfCycles {
				t.Errorf("q%d app %d: row total %v != quantum stats %v",
					st.Quantum, j, q.MemRowTotals[j], st.Apps[j].MemInterfCycles)
			}
			if got := evtrace.RowSum(q.Mem[j]); got != q.MemRowTotals[j] {
				t.Errorf("q%d app %d: scaled row sums to %v, want bit-exact %v (diff %g)",
					st.Quantum, j, got, q.MemRowTotals[j], got-q.MemRowTotals[j])
			}
			if q.Mem[j][j] != 0 {
				t.Errorf("q%d app %d: self-attributed %v memory cycles", st.Quantum, j, q.Mem[j][j])
			}
			if q.Cache[j][j] != 0 {
				t.Errorf("q%d app %d: self-attributed %v cache cycles", st.Quantum, j, q.Cache[j][j])
			}
			if q.AppStats[j].MemInterf != q.MemRowTotals[j] {
				t.Errorf("q%d app %d: app stats mem interf %v != row total %v",
					st.Quantum, j, q.AppStats[j].MemInterf, q.MemRowTotals[j])
			}
			if q.AppStats[j].Retired != st.Apps[j].Retired {
				t.Errorf("q%d app %d: retired %d != %d", st.Quantum, j, q.AppStats[j].Retired, st.Apps[j].Retired)
			}
		}
	})
	sys.RunQuanta(3)
	if quanta != 3 {
		t.Fatalf("listener ran %d times", quanta)
	}
	// Contended 4-core run: someone must have been interfered with.
	var tot float64
	for _, q := range *series {
		for _, v := range q.MemRowTotals {
			tot += v
		}
	}
	if tot == 0 {
		t.Fatal("no memory interference attributed across 3 contended quanta")
	}
}

// TestTracedRunEmitsValidTrace runs a real simulation with tracing and
// checks the output parses as chrome-trace JSON with the expected events.
func TestTracedRunEmitsValidTrace(t *testing.T) {
	sys, tr, buf, _ := traceSystem(t, 8)
	sys.RunQuanta(2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Name+"/"+e.Ph]++
	}
	if counts["attribution/i"] != 2 {
		t.Fatalf("want 2 attribution events for 2 quanta, have %v", counts)
	}
	for _, want := range []string{"process_name/M", "miss/X", "mc-queue/X", "bank-service/X"} {
		if counts[want] == 0 {
			t.Errorf("missing event %s (have %v)", want, counts)
		}
	}
}

// TestTracingDoesNotPerturbSimulation verifies the observer effect is
// zero: a traced run retires exactly the same instruction counts as an
// untraced run of the same configuration.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	run := func(traced bool) []uint64 {
		cfg := testConfig()
		cfg.Channels = 2
		sys, err := New(cfg, testSpecs(t, "mcf", "libquantum", "bzip2", "h264ref"))
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			sys.SetTracer(evtrace.New(&bytes.Buffer{}, evtrace.Config{SampleEvery: 1}))
		}
		sys.RunQuanta(2)
		out := make([]uint64, cfg.Cores)
		for a := 0; a < cfg.Cores; a++ {
			out[a] = sys.Retired(a)
		}
		return out
	}
	plain, traced := run(false), run(true)
	for a := range plain {
		if plain[a] != traced[a] {
			t.Fatalf("tracing perturbed app %d: retired %d with tracer, %d without", a, traced[a], plain[a])
		}
	}
}

// TestAttributionDeliveryPaths: the simulator hands every quantum's
// snapshot to the attribution observer with or without a trace file, and
// the series the file carries is the one both observers collected.
func TestAttributionDeliveryPaths(t *testing.T) {
	sys, tr, buf, traced := traceSystem(t, 8)
	sys.RunQuanta(2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	bare, _, _, collected := traceSystem(t, 0)
	bare.RunQuanta(2)
	nt, err := evtrace.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(nt.Quanta) != 2 || nt.Quanta[0].Quantum != 0 || nt.Quanta[1].Quantum != 1 {
		t.Fatalf("trace file carries %d quanta, want quanta 0 and 1", len(nt.Quanta))
	}
	if !reflect.DeepEqual(nt.Quanta, *traced) {
		t.Errorf("trace file and the traced run's collector disagree:\nfile:      %+v\ncollected: %+v", nt.Quanta, *traced)
	}
	if !reflect.DeepEqual(nt.Quanta, *collected) {
		t.Errorf("trace file and the untraced run's collector disagree:\nfile:      %+v\ncollected: %+v", nt.Quanta, *collected)
	}
}

// TestObserveCreatesAttributionSink: Observe turns attribution on for an
// Attribution observer alone or beside a trace file, and the file carries
// the same quanta the observer saw.
func TestObserveCreatesAttributionSink(t *testing.T) {
	for _, traced := range []bool{false, true} {
		sys, err := New(testConfig(), testSpecs(t, "mcf", "libquantum", "bzip2", "h264ref"))
		if err != nil {
			t.Fatal(err)
		}
		var seen []int
		o := telemetry.Options{Attribution: func(q evtrace.QuantumAttribution) {
			seen = append(seen, q.Quantum)
		}}
		var buf bytes.Buffer
		if traced {
			o.Trace = evtrace.New(&buf, evtrace.Config{SampleEvery: 8})
		}
		sys.Observe(o)
		sys.RunQuanta(2)
		if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
			t.Fatalf("traced=%v: attribution saw quanta %v, want [0 1]", traced, seen)
		}
		if !traced {
			continue
		}
		if err := o.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		nt, err := evtrace.ParseTrace(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(nt.Quanta) != 2 {
			t.Fatalf("the given tracer wrote %d quanta, want 2", len(nt.Quanta))
		}
	}
}

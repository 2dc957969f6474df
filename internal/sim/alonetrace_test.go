package sim

import (
	"bytes"
	"io"
	"math"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// aloneTraceSetup runs a 2-app shared mix with ground truth, tracing
// both the shared run and the alone-run replicas, and returns the shared
// summary plus the per-app alone summaries.
func aloneTraceSetup(t *testing.T) (evtrace.Summary, map[string]evtrace.Summary) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Quantum = 200_000
	cfg.Epoch = 10_000
	specs := make([]workload.Spec, 0, 2)
	for _, name := range []string{"mcf", "libquantum"} {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		specs = append(specs, s)
	}
	cfg.Cores = len(specs)
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var sharedSeries []evtrace.QuantumAttribution
	sys.Observe(telemetry.Options{Attribution: func(q evtrace.QuantumAttribution) {
		sharedSeries = append(sharedSeries, q)
	}})
	tracker, err := NewSlowdownTrackerShared(cfg, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var aloneFile bytes.Buffer
	aloneTr := evtrace.New(&aloneFile, evtrace.Config{})
	if n := tracker.AttachAloneTracer(aloneTr); n != len(specs) {
		t.Fatalf("AttachAloneTracer traced %d replicas, want %d", n, len(specs))
	}
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		tracker.ActualSlowdowns(st) // advances the replicas
	})
	sys.RunQuanta(3)
	if err := aloneTr.Close(); err != nil {
		t.Fatal(err)
	}
	aloneTrace, err := evtrace.ParseTrace(aloneFile.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	shared := evtrace.Summarize(sharedSeries)
	byApp := evtrace.SplitByApp(aloneTrace.Quanta)
	alone := make(map[string]evtrace.Summary, len(byApp))
	for key, series := range byApp {
		alone[key] = evtrace.Summarize(series)
	}
	return shared, alone
}

// TestAttachAloneTracerExportsReplicaSeries checks the span-export
// plumbing: every slot of a tracker with a private cache is traced, the interleaved series
// splits back into one single-app series per benchmark, and each carries
// real retired/stall accounting.
func TestAttachAloneTracerExportsReplicaSeries(t *testing.T) {
	_, alone := aloneTraceSetup(t)
	for _, name := range []string{"mcf", "libquantum"} {
		s, ok := alone[name]
		if !ok {
			t.Fatalf("no alone series for %s (got keys %v)", name, keysOf(alone))
		}
		if s.Quanta == 0 {
			t.Fatalf("%s: alone series has no quanta", name)
		}
		if len(s.Apps) != 1 || s.Apps[0] != name {
			t.Fatalf("%s: alone series apps = %v, want the single replica app", name, s.Apps)
		}
		st := s.AppStats[0]
		if st.Retired == 0 || st.MemStallCycles == 0 {
			t.Fatalf("%s: alone series stats empty: %+v", name, st)
		}
	}
}

// TestAttachAloneTracerSkipsCachedSlots: a tracker served entirely from
// a caller's shared curve cache has no replicas of its own to trace.
func TestAttachAloneTracerSkipsCachedSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 200_000
	specs := []workload.Spec{mustSpec(t, "mcf"), mustSpec(t, "libquantum")}
	cfg.Cores = len(specs)
	tracker, err := NewSlowdownTrackerShared(cfg, specs, NewAloneCurveCache())
	if err != nil {
		t.Fatal(err)
	}
	if n := tracker.AttachAloneTracer(evtrace.New(io.Discard, evtrace.Config{})); n != 0 {
		t.Fatalf("cached tracker traced %d replicas, want 0", n)
	}
	var nilTracker *SlowdownTracker
	if n := nilTracker.AttachAloneTracer(evtrace.New(io.Discard, evtrace.Config{})); n != 0 {
		t.Fatalf("nil tracker traced %d replicas", n)
	}
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return s
}

func keysOf(m map[string]evtrace.Summary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCPIStackMeasuredMatchesDerived is the model premise made testable:
// the CPI stack's "mem-alone" segment derived by subtraction (measured
// stall minus attributed interference) should agree with the segment
// measured directly from the traced alone-run replay over the same
// instructions. The two are computed from entirely different accounting
// (shared-run attribution vs replica simulation), so agreement within a
// modest tolerance validates both; the residual gap is attribution
// clamping plus the replica's slightly different cache state.
func TestCPIStackMeasuredMatchesDerived(t *testing.T) {
	shared, alone := aloneTraceSetup(t)
	derived := shared.CPIStacks()
	measured := shared.CPIStacksMeasured(alone)
	if len(derived) != len(measured) {
		t.Fatalf("stack lengths differ: %d vs %d", len(derived), len(measured))
	}
	const tolerance = 0.35 // relative gap on the mem-alone segment
	for i := range derived {
		d, m := derived[i], measured[i]
		if d.Name != m.Name || d.CPI != m.CPI || d.Compute != m.Compute ||
			d.MemInterf != m.MemInterf || d.CacheInterf != m.CacheInterf {
			t.Fatalf("%s: only MemAlone may differ:\nderived:  %+v\nmeasured: %+v", d.Name, d, m)
		}
		if m.MemAlone <= 0 {
			t.Fatalf("%s: measured mem-alone segment is empty", m.Name)
		}
		gap := math.Abs(d.MemAlone-m.MemAlone) / math.Max(d.MemAlone, m.MemAlone)
		t.Logf("%s: mem-alone derived=%.4f measured=%.4f (gap %.1f%%)",
			d.Name, d.MemAlone, m.MemAlone, 100*gap)
		if gap > tolerance {
			t.Errorf("%s: derived and measured mem-alone disagree beyond %.0f%%: derived %.4f, measured %.4f",
				d.Name, 100*tolerance, d.MemAlone, m.MemAlone)
		}
	}
	// Apps with no alone series fall back to the derived segment.
	fallback := shared.CPIStacksMeasured(nil)
	for i := range fallback {
		if fallback[i] != derived[i] {
			t.Fatalf("CPIStacksMeasured(nil) must equal CPIStacks: %+v vs %+v", fallback[i], derived[i])
		}
	}
}

package sim

import (
	"math"
	"reflect"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
)

// observeAttribution collects every attribution snapshot sys emits.
func observeAttribution(sys *System) *[]evtrace.QuantumAttribution {
	var series []evtrace.QuantumAttribution
	sys.Observe(telemetry.Options{Attribution: func(q evtrace.QuantumAttribution) {
		series = append(series, q)
	}})
	return &series
}

// TestAloneReplicaMatchesOneAppRun pins the recipe for an alone-run
// trace: a one-app run (what `asmsim -apps <app> -warmup 0 -trace f`
// simulates, with the mix's other configuration flags repeated) emits the
// same attribution snapshots, field for field, as the full solo replica of
// the ground-truth definition (newAloneOracle, under soloConfig). With one
// core, epoch prioritization has nobody to prioritize over. The last case
// moves every flag the recipe must repeat off its default: cache size,
// channels, prefetcher and seed.
func TestAloneReplicaMatchesOneAppRun(t *testing.T) {
	const quanta = 3
	nonDefault := func(c *Config) {
		c.L2Bytes = 4 << 20
		c.Channels = 2
		c.Prefetch = true
		c.Seed = 7
	}
	for _, tc := range []struct {
		name, app string
		mutate    func(*Config)
	}{
		{"mcf", "mcf", nil},
		{"libquantum", "libquantum", nil},
		{"h264ref", "h264ref", nil},
		{"libquantum/cache4MB-2ch-prefetch-seed7", "libquantum", nonDefault},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Quantum = 200_000
			cfg.Cores = 1
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			specs := mustSpecs(t, []string{tc.app})
			sys, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			run := observeAttribution(sys)
			sys.RunQuanta(quanta)

			oracle := newAloneOracle(t, cfg, SourcesFromSpecs(specs, cfg.streamSeed())[0])
			replica := observeAttribution(oracle.sys)
			tickN(oracle.sys, quanta*cfg.Quantum)

			if len(*run) != quanta || len(*replica) != quanta {
				t.Fatalf("snapshots: run %d, replica %d, want %d each", len(*run), len(*replica), quanta)
			}
			for q := range quanta {
				got, want := (*run)[q], (*replica)[q]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("quantum %d differs:\none-app run: %+v\nreplica:     %+v", q, got, want)
				}
			}
			st := (*run)[0].AppStats[0]
			if st.Retired == 0 || st.MemStallCycles == 0 {
				t.Fatalf("first snapshot has empty accounting: %+v", st)
			}
		})
	}
}

// measuredCPIStacks is evtrace.Summary.CPIStacks with the mem-alone
// segment measured instead of derived by subtraction: alone maps each
// app name to the summary of its full solo replica stepped over the same
// instructions, and the replica's memory-stall cycles per retired
// instruction are scaled to the shared run's retired count, clamped into
// the stall budget the interference components leave.
func measuredCPIStacks(s evtrace.Summary, alone map[string]evtrace.Summary) []evtrace.CPIStack {
	out := make([]evtrace.CPIStack, len(s.AppStats))
	for j, st := range s.AppStats {
		cs := evtrace.CPIStack{Name: st.Name}
		total := float64(s.Cycles)
		if total > 0 {
			stall := min(float64(st.MemStallCycles), total)
			mem := min(st.MemInterf, stall)
			cache := min(st.CacheInterf, stall-mem)
			memAlone := stall - mem - cache
			if as, ok := alone[st.Name]; ok && len(as.AppStats) > 0 && as.AppStats[0].Retired > 0 && st.Retired > 0 {
				ast := as.AppStats[0]
				memAlone = min(float64(ast.MemStallCycles)/float64(ast.Retired)*float64(st.Retired), memAlone)
			}
			cs.Compute = (total - stall) / total
			cs.MemAlone = memAlone / total
			cs.CacheInterf = cache / total
			cs.MemInterf = mem / total
			if st.Retired > 0 {
				cs.CPI = total / float64(st.Retired)
			}
		}
		out[j] = cs
	}
	return out
}

// TestCPIStackMeasuredMatchesDerived is the model premise made testable:
// the CPI stack's "mem-alone" segment derived by subtraction (measured
// stall minus attributed interference) should agree with the segment
// measured directly on each app's alone run over the same instructions.
// The two are computed from entirely different accounting (shared-run
// attribution vs replica simulation), so agreement within a modest
// tolerance validates both; the residual gap is attribution clamping plus
// the replica's slightly different cache state.
func TestCPIStackMeasuredMatchesDerived(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 200_000
	cfg.Epoch = 10_000
	specs := mustSpecs(t, []string{"mcf", "libquantum"})
	cfg.Cores = len(specs)
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	series := observeAttribution(sys)
	sys.RunQuanta(3)
	shared := evtrace.Summarize(*series)

	alone := map[string]evtrace.Summary{}
	for a, app := range SourcesFromSpecs(specs, cfg.streamSeed()) {
		oracle := newAloneOracle(t, cfg, app)
		replica := observeAttribution(oracle.sys)
		oracle.CyclesAt(shared.AppStats[a].Retired)
		alone[app.Name] = evtrace.Summarize(*replica)
	}

	derived := shared.CPIStacks()
	measured := measuredCPIStacks(shared, alone)
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
}

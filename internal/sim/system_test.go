package sim

import (
	"testing"

	"asmsim/internal/cache"
	"asmsim/internal/cpu"
	"asmsim/internal/dram"
	"asmsim/internal/workload"
)

// testConfig returns a small, fast configuration for integration tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Quantum = 200_000
	cfg.Epoch = 10_000
	return cfg
}

func testSpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		specs[i] = s
	}
	return specs
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Quantum = 0 },
		func(c *Config) { c.Epoch = 0 },                     // with EpochPriority on
		func(c *Config) { c.Quantum = 999; c.Epoch = 1000 }, // not a multiple
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.L2Bytes = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.L2Bytes = 3 << 20 },                     // non-power-of-two sets
		func(c *Config) { c.ATSSampledSets = 63 },                   // does not divide
		func(c *Config) { c.L1Bytes = 64 },                          // L1 smaller than one set
		func(c *Config) { c.Cores = 32; c.L1Bytes = 64 * c.L1Ways }, // one L1 set cannot tag 32 owners
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1Sets() != 256 {
		t.Fatalf("L1 sets %d, want 256 (64KB/4way/64B)", cfg.L1Sets())
	}
	if cfg.L2Sets() != 2048 {
		t.Fatalf("L2 sets %d, want 2048 (2MB/16way/64B)", cfg.L2Sets())
	}
}

func TestQuantumCounterConsistency(t *testing.T) {
	cfg := testConfig()
	sys, err := New(cfg, testSpecs(t, "mcf", "libquantum", "bzip2", "h264ref"))
	if err != nil {
		t.Fatal(err)
	}
	quanta := 0
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		quanta++
		var epochs uint64
		for a := range st.Apps {
			aq := &st.Apps[a]
			if aq.L2Accesses != aq.L2Hits+aq.L2Misses {
				t.Errorf("app %d: accesses %d != hits %d + misses %d", a, aq.L2Accesses, aq.L2Hits, aq.L2Misses)
			}
			if aq.EpochHits > aq.L2Hits || aq.EpochMisses > aq.L2Misses {
				t.Errorf("app %d: epoch counters exceed quantum counters", a)
			}
			if aq.EpochAccesses != aq.EpochHits+aq.EpochMisses {
				t.Errorf("app %d: epoch accesses inconsistent", a)
			}
			if aq.EpochATSProbes > aq.ATSProbes {
				t.Errorf("app %d: epoch ATS probes exceed quantum probes", a)
			}
			if aq.EpochHitTime > st.Cycles || aq.EpochMissTime > st.Cycles {
				t.Errorf("app %d: outstanding-time integral exceeds quantum", a)
			}
			// Unsampled ATS probes every demand access.
			if st.ATSScale == 1 && aq.ATSProbes != aq.L2Accesses {
				t.Errorf("app %d: unsampled ATS probed %d of %d accesses", a, aq.ATSProbes, aq.L2Accesses)
			}
			if aq.Retired == 0 {
				t.Errorf("app %d retired nothing", a)
			}
			epochs += aq.EpochCount
		}
		if want := st.Cycles / st.EpochLen; epochs != want {
			t.Errorf("epoch count %d, want %d", epochs, want)
		}
	})
	sys.RunQuanta(2)
	if quanta != 2 {
		t.Fatalf("listener fired %d times", quanta)
	}
	// ForcedWakes counts only productive failsafe rescues (the periodic
	// probe retired or fetched something the normal wake-up paths
	// missed), so any nonzero value means a wake-up path is broken.
	if fw := sys.ForcedWakes(); fw != 0 {
		t.Fatalf("%d forced wakes — a wake-up path is missing", fw)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() []uint64 {
		cfg := testConfig()
		sys, err := New(cfg, testSpecs(t, "mcf", "soplex", "bzip2", "h264ref"))
		if err != nil {
			t.Fatal(err)
		}
		sys.RunQuanta(2)
		out := make([]uint64, cfg.Cores)
		for a := 0; a < cfg.Cores; a++ {
			out[a] = sys.Retired(a)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic run: app %d retired %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSeedChangesExecution(t *testing.T) {
	retired := func(seed uint64) uint64 {
		cfg := testConfig()
		cfg.Seed = seed
		sys, err := New(cfg, testSpecs(t, "mcf", "soplex"))
		cfg.Cores = 2
		if err != nil {
			// Cores mismatch: rebuild with the right count.
			cfg := testConfig()
			cfg.Seed = seed
			cfg.Cores = 2
			sys, err = New(cfg, testSpecs(t, "mcf", "soplex"))
			if err != nil {
				t.Fatal(err)
			}
		}
		sys.RunQuanta(1)
		return sys.Retired(0)
	}
	if retired(1) == retired(99) {
		t.Fatal("different seeds produced identical executions (suspicious)")
	}
}

func TestEpochWeightsBiasAssignment(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	sys, err := New(cfg, testSpecs(t, "mcf", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEpochWeights([]float64{9, 1})
	var counts [2]uint64
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		counts[0] += st.Apps[0].EpochCount
		counts[1] += st.Apps[1].EpochCount
	})
	sys.RunQuanta(3)
	ratio := float64(counts[0]) / float64(counts[1]+1)
	if ratio < 5 {
		t.Fatalf("9:1 weights gave epoch ratio %v (%v)", ratio, counts)
	}
}

func TestRoundRobinEpochs(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.EpochRoundRobin = true
	sys, err := New(cfg, testSpecs(t, "mcf", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	var counts [2]uint64
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		counts[0] += st.Apps[0].EpochCount
		counts[1] += st.Apps[1].EpochCount
	})
	sys.RunQuanta(2)
	if counts[0] != counts[1] {
		t.Fatalf("round-robin epochs uneven: %v", counts)
	}
}

func TestPartitionAppliedToL2(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	sys, err := New(cfg, testSpecs(t, "libquantum", "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	alloc := []int{4, 12}
	sys.SetL2Partition(alloc)
	sys.RunQuanta(2)
	got := sys.L2Partition()
	if got[0] != 4 || got[1] != 12 {
		t.Fatalf("partition %v", got)
	}
	// The streaming app (libquantum) must be bounded near its quota:
	// 4/16 of the cache plus transient slack.
	frac := float64(sys.L2().Occupancy(0)) / float64(cfg.L2Sets()*cfg.L2Ways)
	if frac > 0.35 {
		t.Fatalf("partitioned app holds %.0f%% of the cache", frac*100)
	}
}

func TestInterferenceSlowsSharedRun(t *testing.T) {
	// The same app must retire fewer instructions per cycle with a hog
	// than alone — the basic premise of the whole paper.
	aloneCfg := testConfig()
	aloneCfg.Cores = 1
	aloneCfg.EpochPriority = false
	aloneCfg.Epoch = 0
	alone, err := New(aloneCfg, testSpecs(t, "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	alone.RunQuanta(2)

	sharedCfg := testConfig()
	sharedCfg.Cores = 2
	shared, err := New(sharedCfg, testSpecs(t, "bzip2", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	shared.RunQuanta(2)

	if shared.Retired(0) >= alone.Retired(0) {
		t.Fatalf("no interference: shared %d >= alone %d", shared.Retired(0), alone.Retired(0))
	}
}

func TestAloneCursorMonotonic(t *testing.T) {
	cfg := testConfig()
	tracker, err := NewSlowdownTrackerShared(cfg, testSpecs(t, "mcf"), NewAloneCurveCache())
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for _, target := range []uint64{100, 1000, 5000, 20000} {
		c := tracker.cursors[0].CyclesAt(target)
		if c < prev {
			t.Fatalf("alone cycles decreased: %d after %d", c, prev)
		}
		prev = c
	}
}

func TestSlowdownTrackerAtLeastOne(t *testing.T) {
	cfg := testConfig()
	specs := testSpecs(t, "mcf", "libquantum", "bzip2", "h264ref")
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewSlowdownTrackerShared(cfg, specs, NewAloneCurveCache())
	if err != nil {
		t.Fatal(err)
	}
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		for a, sd := range tracker.ActualSlowdowns(st) {
			if sd < 1 {
				t.Errorf("app %d slowdown %v < 1", a, sd)
			}
			if sd > 100 {
				t.Errorf("app %d slowdown %v absurd", a, sd)
			}
		}
	})
	sys.RunQuanta(2)
}

func TestPrefetchRun(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.Prefetch = true
	sys, err := New(cfg, testSpecs(t, "libquantum", "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	var issued, useful uint64
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		for a := range st.Apps {
			issued += st.Apps[a].PrefetchIssued
			useful += st.Apps[a].PrefetchUseful
		}
	})
	sys.RunQuanta(2)
	if issued == 0 {
		t.Fatal("streaming app triggered no prefetches")
	}
	if useful == 0 {
		t.Fatal("no prefetch was ever useful")
	}
}

func TestPrefetchImprovesStreamingIPC(t *testing.T) {
	retired := func(pf bool) uint64 {
		cfg := testConfig()
		cfg.Cores = 1
		cfg.EpochPriority = false
		cfg.Epoch = 0
		cfg.Prefetch = pf
		sys, err := New(cfg, testSpecs(t, "libquantum"))
		if err != nil {
			t.Fatal(err)
		}
		sys.RunQuanta(2)
		return sys.Retired(0)
	}
	without, with := retired(false), retired(true)
	if float64(with) < float64(without)*1.05 {
		t.Fatalf("prefetching did not help the streaming app: %d vs %d", with, without)
	}
}

// TestPrefetchPastTopOfAddressSpace streams through the last lines a
// 64-bit byte address can name. The stride prefetcher's targets run past
// cache.LineAddrLimit there; they name no memory, and the tag word holds
// no line at or past the limit, so the system must drop them.
func TestPrefetchPastTopOfAddressSpace(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	cfg.Prefetch = true
	const streamLines = 512
	instrs := make([]workload.Instr, 0, 4*streamLines)
	for l := cache.LineAddrLimit - streamLines; l < cache.LineAddrLimit; l++ {
		instrs = append(instrs, workload.Instr{IsMem: true, Addr: l * workload.LineSize},
			workload.Instr{}, workload.Instr{}, workload.Instr{})
	}
	sys, err := newSystem(cfg, []AppSource{{
		Name: "top",
		New:  func(int) cpu.InstrSource { return &loopSource{instrs: instrs} },
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var issued uint64
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) { issued += st.Apps[0].PrefetchIssued })
	sys.RunQuanta(1)
	if issued == 0 {
		t.Fatal("the stream triggered no prefetches")
	}
	for l := cache.LineAddrLimit - streamLines; l < cache.LineAddrLimit+streamLines; l++ {
		if in := sys.L2().Peek(l); in != (l < cache.LineAddrLimit) {
			t.Fatalf("line %#x in the L2 = %v after streaming up to the limit %#x", l, in, cache.LineAddrLimit)
		}
	}
}

// loopSource replays a fixed instruction slice, wrapping at its end.
type loopSource struct {
	instrs []workload.Instr
	pos    int
}

func (l *loopSource) Next(out *workload.Instr) {
	*out = l.instrs[l.pos]
	if l.pos++; l.pos == len(l.instrs) {
		l.pos = 0
	}
}

func TestMissListenerEvents(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	sys, err := New(cfg, testSpecs(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	sys.SetMissListener(func(ev MissEvent) {
		events++
		if ev.Latency == 0 {
			t.Error("zero-latency miss")
		}
		if ev.InterfCycles > ev.Latency {
			t.Errorf("interference %d exceeds latency %d", ev.InterfCycles, ev.Latency)
		}
		if ev.App < 0 || ev.App > 1 {
			t.Errorf("bad app %d", ev.App)
		}
	})
	sys.RunQuanta(1)
	if events == 0 {
		t.Fatal("no miss events delivered")
	}
}

func TestStatsClonedForListeners(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	sys, err := New(cfg, testSpecs(t, "mcf", "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	var snapshots []*QuantumStats
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		snapshots = append(snapshots, st)
	})
	sys.RunQuanta(2)
	if len(snapshots) != 2 || snapshots[0] == snapshots[1] {
		t.Fatal("listeners must receive distinct snapshots")
	}
	if snapshots[0].Quantum == snapshots[1].Quantum {
		t.Fatal("quantum indices must differ")
	}
}

func TestSpecCountMismatch(t *testing.T) {
	cfg := testConfig() // 4 cores
	if _, err := New(cfg, testSpecs(t, "mcf")); err == nil {
		t.Fatal("spec/core mismatch accepted")
	}
}

// TestRandomConfigsRun fuzzes system construction and short runs across
// the configuration space: any validated config must simulate without
// panicking and retire instructions.
func TestRandomConfigsRun(t *testing.T) {
	l2Sizes := []int{1 << 20, 2 << 20, 4 << 20}
	policies := []Policy{PolicyFRFCFS, PolicyPARBS, PolicyTCM}
	samples := []int{0, 64, 256}
	pool := workload.All()
	for i := 0; i < 12; i++ {
		cfg := DefaultConfig()
		cfg.Quantum = 50_000
		cfg.Epoch = 10_000
		cfg.Cores = 1 + i%3
		cfg.L2Bytes = l2Sizes[i%len(l2Sizes)]
		cfg.Policy = policies[i%len(policies)]
		cfg.ATSSampledSets = samples[i%len(samples)]
		cfg.Prefetch = i%2 == 0
		cfg.Channels = 1 + i%2
		cfg.Seed = uint64(i)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		specs := make([]workload.Spec, cfg.Cores)
		for j := range specs {
			specs[j] = pool[(i*7+j*3)%len(pool)]
		}
		sys, err := New(cfg, specs)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		sys.RunQuanta(1)
		for a := 0; a < cfg.Cores; a++ {
			if sys.Retired(a) == 0 {
				t.Fatalf("config %d app %d made no progress", i, a)
			}
		}
	}
}

// TestParkedWritebackKeepsLineAndApp: a writeback the full write queue
// refuses is parked and retried as posted. Lines up to cache.LineAddrLimit
// reach the write path, so a parked line with bits at or above 2^56 must
// come back with its own line and app.
func TestParkedWritebackKeepsLineAndApp(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	s, err := New(cfg, testSpecs(t, "povray", "h264ref"))
	if err != nil {
		t.Fatal(err)
	}
	const high = uint64(0x200000000000005)
	if high >= cache.LineAddrLimit {
		t.Fatalf("line %#x is not addressable", high)
	}
	type write struct {
		app  int
		line uint64
	}
	var done []write
	recycle := s.writeDone
	s.writeDone = func(r *dram.Request, now uint64) {
		done = append(done, write{r.App, r.LineAddr})
		recycle(r, now)
	}
	// Fill the write queue, then park app 1's write of the high line.
	for line := uint64(0); s.mem.CanEnqueue(line, true); line++ {
		s.enqueueWriteback(0, line, s.Cycle())
	}
	s.enqueueWriteback(1, high, s.Cycle())
	if len(s.pendingWB) != 1 {
		t.Fatalf("%d writebacks parked, want 1", len(s.pendingWB))
	}
	// The parked write joins the queue once a drain makes room; the two
	// light apps leave the read queue empty often, so queued writes issue.
	for end := s.Cycle() + 2_000_000; s.Cycle() < end; {
		s.Run(10_000)
		for _, w := range done {
			if w.line == high {
				if w.app != 1 {
					t.Fatalf("line %#x written back for app %d, want 1", high, w.app)
				}
				return
			}
		}
	}
	t.Fatalf("line %#x never written back (%d writes completed)", high, len(done))
}

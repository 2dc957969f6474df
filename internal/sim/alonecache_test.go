package sim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"asmsim/internal/rng"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

func mustSpecs(t testing.TB, names []string) []workload.Spec {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %q", n)
		}
		specs[i] = sp
	}
	return specs
}

// TestSlowdownTrackerSharedEquivalence: a tracker on a shared curve cache
// must produce bit-identical ActualSlowdowns and milestone cycles to the
// reference oracle (aloneOracle: a full solo replica stepped to each
// milestone) across a sweep of mixes that reuse benchmarks — including
// across configs that differ only in knobs the curve key normalizes away
// (per-mix Seed, Quantum, ATS sampling). This holds the cache's lean
// replica (no ATS, no pollution filter) to the full one at every
// milestone, for low-, medium- and high-intensity apps, with the
// prefetcher's ATS mirror skipped and on a two-channel memory system;
// unfollowed and followed (curves extended on chase goroutines), on one
// processor and on two. Run under -race (make race).
func TestSlowdownTrackerSharedEquivalence(t *testing.T) {
	mixes := [][]string{
		{"mcf", "libquantum", "bzip2", "h264ref"},
		{"bzip2", "h264ref", "gcc", "mcf"},
		{"povray", "sphinx3", "lbm", "h264ref"},
	}
	variants := []struct {
		name  string
		tweak func(*Config)
	}{
		{"base", func(*Config) {}},
		{"prefetch", func(c *Config) { c.Prefetch = true }},
		{"2ch", func(c *Config) { c.Channels = 2 }},
	}
	type answer struct {
		Slowdowns []float64
		Cycles    []uint64 // alone cycles at each app's milestone
	}
	// sweep runs the mixes one after the other under tweak; track builds
	// the ground truth under test for one mix and answers its quanta.
	sweep := func(t *testing.T, tweak func(*Config), track func(Config, []workload.Spec, *System) func(*QuantumStats) answer) []answer {
		var out []answer
		for mi, names := range mixes {
			cfg := DefaultConfig()
			cfg.Quantum = 120_000
			cfg.ATSSampledSets = 64
			cfg.Seed = 7 + uint64(mi)*1000 // per-mix seed, as the sweeps set it
			cfg.StreamSeed = 7
			if mi == 1 {
				cfg.Quantum = 60_000 // normalized out of the curve key
			}
			tweak(&cfg)
			specs := mustSpecs(t, names)
			sys, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			answerOf := track(cfg, specs, sys)
			sys.AddQuantumListener(func(_ *System, st *QuantumStats) { out = append(out, answerOf(st)) })
			if err := sys.RunQuantaCtx(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			want := sweep(t, v.tweak, func(cfg Config, specs []workload.Spec, _ *System) func(*QuantumStats) answer {
				o := newOracleTracker(t, cfg, SourcesFromSpecs(specs, cfg.streamSeed()))
				return func(st *QuantumStats) answer {
					return answer{o.ActualSlowdowns(st), slices.Clone(o.lastCycle)}
				}
			})
			for _, follow := range []bool{false, true} {
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					cache := NewAloneCurveCache()
					reg := telemetry.NewRegistry()
					cache.SetTelemetry(reg.Scope("sim"))
					got := sweep(t, v.tweak, func(cfg Config, specs []workload.Spec, sys *System) func(*QuantumStats) answer {
						tr, err := NewSlowdownTrackerShared(cfg, specs, cache)
						if err != nil {
							t.Fatal(err)
						}
						if follow {
							tr.Follow(sys)
						}
						return func(st *QuantumStats) answer {
							return answer{tr.ActualSlowdowns(st), slices.Clone(tr.lastCycle)}
						}
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("follow=%v GOMAXPROCS=%d: per-quantum answers differ from the oracle's\n got %+v\nwant %+v",
							follow, procs, got, want)
					}
					// 8 distinct benchmarks across the mixes; the repeats (and
					// the second mix's different Quantum/Seed) must all hit
					// shared entries.
					if cache.Len() != 8 {
						t.Fatalf("cache holds %d curves, want 8 (one per distinct benchmark)", cache.Len())
					}
					if cache.SavedCycles() == 0 {
						t.Fatal("repeated benchmarks saved no cycles")
					}
					sc := reg.Scope("sim").Scope("alone_cache")
					if sc.Counter("hits").Value() == 0 || sc.Counter("extensions").Value() == 0 {
						t.Fatal("telemetry recorded no alone_cache activity")
					}
					if got := sc.Counter("points").Value(); got != uint64(cache.Points()) || got == 0 {
						t.Fatalf("points counter %d, cache.Points() %d", got, cache.Points())
					}
					if segs := sc.Counter("segments").Value(); segs == 0 || segs >= uint64(cache.Points()) {
						t.Fatalf("segments counter %d not in (0, points=%d)", segs, cache.Points())
					}
				}
			}
		})
	}
}

// TestAloneCurveConcurrentExtension: many goroutines create cursors on
// one key at once (replicas are built outside the cache lock, so losers
// of the insert race must discard theirs) and then extend and query the
// same curve concurrently (run under -race); every answer must equal the
// reference oracle's, regardless of interleaving, and the curve must be
// counted exactly once.
func TestAloneCurveConcurrentExtension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	oracle := newAloneOracle(t, cfg, apps[0])
	const step, nq = 3_000, 40
	want := make([]uint64, nq)
	for i := range want {
		want[i] = oracle.CyclesAt(uint64(i+1) * step)
	}

	cache := NewAloneCurveCache()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			cu, err := cache.Cursor(cfg, apps[0])
			if err != nil {
				t.Error(err)
				return
			}
			// Different start/stride per goroutine: cursors race to extend
			// the shared curve while others answer from the covered prefix.
			for i := g % 4; i < nq; i += 1 + g%3 {
				m := uint64(i+1) * step
				if got := cu.CyclesAt(m); got != want[i] {
					t.Errorf("goroutine %d milestone %d: got %d want %d", g, m, got, want[i])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if cache.Len() != 1 {
		t.Fatalf("one stream produced %d curves", cache.Len())
	}
	if cache.Points() == 0 {
		t.Fatal("curve recorded no points")
	}
	sc := reg.Scope("alone_cache")
	if m := sc.Counter("misses").Value(); m != 1 {
		t.Fatalf("racing cursors counted %d misses, want 1", m)
	}
}

// TestAloneCacheTelemetryReattach: attaching the registry a cache already
// reports into keeps its handles, and attaching another registry sends
// only the activity that follows to the new one.
func TestAloneCacheTelemetryReattach(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	cache := NewAloneCurveCache()
	first := telemetry.NewRegistry()
	cache.SetTelemetry(first.Scope("sim"))
	handles := cache.tel.Load()
	cache.SetTelemetry(first.Scope("sim"))
	if cache.tel.Load() != handles {
		t.Fatal("re-attaching the same registry replaced the handles")
	}
	cu, err := cache.Cursor(cfg, apps[0])
	if err != nil {
		t.Fatal(err)
	}
	cu.CyclesAt(10_000)
	second := telemetry.NewRegistry()
	cache.SetTelemetry(second)
	cu.CyclesAt(20_000)
	sc1, sc2 := first.Scope("sim").Scope("alone_cache"), second.Scope("alone_cache")
	if sc1.Counter("misses").Value() != 1 || sc2.Counter("misses").Value() != 0 {
		t.Fatalf("misses %d and %d, want the curve counted once, before the switch",
			sc1.Counter("misses").Value(), sc2.Counter("misses").Value())
	}
	p1, p2 := sc1.Counter("points").Value(), sc2.Counter("points").Value()
	if p1 == 0 || p2 == 0 || p1+p2 != uint64(cache.Points()) {
		t.Fatalf("points %d + %d, want both nonzero and summing to the cache's %d", p1, p2, cache.Points())
	}
}

// TestCurveSegmentsMatchPointOracle: the run-length store against a naive
// point slice. Random monotone (instr, cycle) sequences — retire widths
// 1-3 that change mid-run, stall gaps, single-point segments, and both
// coordinates starting beyond 2^32 — are appended to both; lookup must
// agree on every milestone around every point, and the segment store must
// account every point exactly once.
func TestCurveSegmentsMatchPointOracle(t *testing.T) {
	type point struct{ instr, cycle uint64 }
	for trial := 0; trial < 40; trial++ {
		r := rng.NewNamed(uint64(trial)+1, "curve-oracle")
		var instr, cycle uint64
		if trial%2 == 1 {
			instr, cycle = 1<<32-50, 1<<33+uint64(trial) // crosses 2^32 mid-run
		}
		if trial%5 == 4 {
			instr, cycle = 1<<40, 1<<41
		}
		first := instr
		var cv aloneCurve
		var pts []point
		w := uint64(3)
		for len(pts) < 3000 {
			switch r.Intn(10) {
			case 0: // stall gap, sometimes long
				cycle += 1 + uint64(r.Intn(400))
			case 1: // width change mid-run
				w = 1 + uint64(r.Intn(3))
			case 2: // isolated single point
				cycle += 2
				instr += 1 + uint64(r.Intn(3))
				cycle++
				pts = append(pts, point{instr, cycle})
				cv.append(instr, cycle)
				cycle += 2
				continue
			}
			for run := 1 + r.Intn(60); run > 0; run-- {
				instr += w
				cycle++
				pts = append(pts, point{instr, cycle})
				cv.append(instr, cycle)
			}
		}
		cv.last.Store(instr)

		if cv.points != int64(len(pts)) {
			t.Fatalf("trial %d: %d points recorded, %d appended", trial, cv.points, len(pts))
		}
		segs := curveSegs(&cv)
		var sum int64
		for _, s := range segs {
			sum += int64(s.n)
		}
		if sum != cv.points {
			t.Fatalf("trial %d: segments hold %d points, counter says %d", trial, sum, cv.points)
		}
		if len(segs) != cv.segments() || len(segs) >= len(pts)/2 {
			t.Fatalf("trial %d: %d segments (counter %d) for %d points — runs are not merging",
				trial, len(segs), cv.segments(), len(pts))
		}

		// Every milestone from just below the first point to the last one.
		j := 0
		for n := first + 1; n <= instr; n++ {
			for pts[j].instr < n {
				j++
			}
			if got := cv.lookup(n); got != pts[j].cycle {
				t.Fatalf("trial %d: lookup(%d) = %d, oracle %d (point %d of %d)",
					trial, n, got, pts[j].cycle, j, len(pts))
			}
		}
		if got := cv.lookup(1); got != pts[0].cycle {
			t.Fatalf("trial %d: lookup(1) = %d, want the first point's cycle %d", trial, got, pts[0].cycle)
		}
	}

	// A retire jump wider than 2^32 is a run's width like any other.
	var cv aloneCurve
	const far = 10 + 1<<33
	cv.append(10, 5)
	cv.append(far, 6)
	cv.append(far+3, 7)
	for _, q := range []struct{ n, want uint64 }{{1, 5}, {10, 5}, {11, 6}, {far, 6}, {far + 1, 7}, {far + 3, 7}} {
		if got := cv.lookup(q.n); got != q.want {
			t.Fatalf("wide jump: lookup(%d) = %d, want %d", q.n, got, q.want)
		}
	}
}

// FuzzCurveMatchesPointOracle holds the coded curve store to a naive
// point list over byte-driven append sequences: runs at the current
// width, stall gaps, width changes, retire jumps wider than 2^32, and
// runs of single-point segments that end on and around the checkpoint
// boundaries (multiples of markEvery closed segments). The decoded
// segments must expand to exactly the appended points, and lookup must
// answer every point's first and last milestone and one between with the
// oracle's cycle.
func FuzzCurveMatchesPointOracle(f *testing.F) {
	f.Add([]byte{0, 0xf8, 0x0d, 0x07, 0x00, 0x8b, 0x04, 0x09, 0x06, 0x01, 0x03})
	f.Add([]byte{1, 0x07, 0x3f, 0x06, 0xff, 0x02, 0x07, 0x01, 0x00, 0x05, 0x00, 0xa8})
	f.Add([]byte{2, 0xe0, 0x04, 0xff, 0x05, 0x03, 0x07, 0x7f, 0x06, 0x10, 0x07, 0x80, 0x59})
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		// Start at 0, just below 2^32 or far up, leaving room for
		// every jump the input can make.
		starts := [...]uint64{0, 1<<32 - 40, 1 << 60}
		instr, cycle := starts[int(data[0])%len(starts)], starts[int(data[0])%len(starts)]/3
		var cv aloneCurve
		type point struct{ instr, cycle uint64 }
		var pts []point
		add := func(di, dc uint64) {
			instr, cycle = instr+di, cycle+dc
			pts = append(pts, point{instr, cycle})
			cv.append(instr, cycle)
		}
		w := uint64(1)
		for i := 1; i < len(data); i++ {
			op, arg := data[i]&7, uint64(data[i]>>3)
			switch op {
			case 0, 1, 2, 3: // a run at the current width
				for k := uint64(0); k <= arg; k++ {
					add(w, 1)
				}
			case 4: // a stall gap, then one point
				add(w, 2+arg*arg*40)
			case 5: // a width change
				w = 1 + arg%4
			case 6: // a jump wider than 2^32: a point, or the width of a run
				if arg%2 == 0 {
					add(1<<32+arg, 1)
				} else {
					w = 1<<32 + arg
				}
			case 7: // single points up to a checkpoint boundary, give or take
				end := (cv.closed/markEvery+1)*markEvery + int(arg%3) - 1
				for cv.closed < end {
					add(1+arg%2, 2)
				}
			}
		}
		if len(pts) == 0 {
			return
		}

		segs := curveSegs(&cv)
		if len(segs) != cv.segments() || cv.points != int64(len(pts)) {
			t.Fatalf("%d segments decoded, %d counted; %d points counted, %d appended",
				len(segs), cv.segments(), cv.points, len(pts))
		}
		if want := (cv.closed + markEvery - 1) / markEvery; len(cv.marks) != want {
			t.Fatalf("%d checkpoints over %d closed segments, want %d", len(cv.marks), cv.closed, want)
		}
		j := 0
		for _, s := range segs {
			for k := uint64(0); k < s.n; k++ {
				if p := (point{s.instr0 + k*s.w, s.cycle0 + k}); j >= len(pts) || p != pts[j] {
					t.Fatalf("decoded point %d is %+v, appended %+v", j, p, pts[min(j, len(pts)-1)])
				}
				j++
			}
		}
		if j != len(pts) {
			t.Fatalf("segments expand to %d points, %d appended", j, len(pts))
		}
		prev := pts[0].instr - 1
		for _, p := range pts {
			for _, n := range []uint64{prev + 1, prev + 1 + (p.instr-prev-1)/2, p.instr} {
				if got := cv.lookup(n); got != p.cycle {
					t.Fatalf("lookup(%d) = %d, oracle %d", n, got, p.cycle)
				}
			}
			prev = p.instr
		}
	})
}

// TestAloneCurveFootprint pins the curve store's size, which is an exact
// repeat for a fixed (app, instruction count, config): a storage
// regression fails here, not only in the benchmark ledger. 3 M
// instructions take a compute-bound app ~1 M retiring cycles (one point
// each before the run-length store) and a streaming one ~0.25 M.
func TestAloneCurveFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~20 M replica cycles")
	}
	for _, tc := range []struct {
		app               string
		maxSegs, maxBytes int
	}{{"povray", 2_000, 16 << 10}, {"libquantum", 300_000, 1280 << 10}} {
		cv := freshCurve(t, tc.app)
		cv.cyclesAt(3_000_000)
		t.Logf("%s: %d points in %d segments (%d KiB)", tc.app, cv.points, cv.segments(), curveBytes(cv)>>10)
		if cv.segments() > tc.maxSegs {
			t.Errorf("%s: 3 M instructions stored as %d segments, budget %d", tc.app, cv.segments(), tc.maxSegs)
		}
		if b := curveBytes(cv); b > tc.maxBytes {
			t.Errorf("%s: 3 M instructions stored in %d bytes, budget %d", tc.app, b, tc.maxBytes)
		}
	}

	// One paper quantum (Q = 5 M cycles) of a compute-bound alone run.
	cv := freshCurve(t, "povray")
	for n := uint64(1_000_000); cv.sys.Cycle() < 5_000_000; n += 1_000_000 {
		cv.cyclesAt(n)
	}
	t.Logf("povray: %d alone cycles, %d points in %d segments (%d KiB)",
		cv.sys.Cycle(), cv.points, cv.segments(), curveBytes(cv)>>10)
	if b := curveBytes(cv); b > 16<<10 {
		t.Errorf("a compute-bound curve over one 5 M-cycle quantum holds %d bytes, budget 16 KiB", b)
	}
}

// freshCurve returns an empty alone curve (on a cache of its own) for the
// named benchmark under the default configuration.
func freshCurve(tb testing.TB, name string) *aloneCurve {
	tb.Helper()
	cfg := DefaultConfig()
	apps := SourcesFromSpecs(mustSpecs(tb, []string{name}), cfg.streamSeed())
	cu, err := NewAloneCurveCache().Cursor(cfg, apps[0])
	if err != nil {
		tb.Fatal(err)
	}
	return cu.curve
}

// curveBytes is the memory a curve's store pins: the coded segments and
// the checkpoints (capacity, not length: growslice's slack is resident
// too).
func curveBytes(cv *aloneCurve) int {
	return cap(cv.enc) + cap(cv.marks)*int(unsafe.Sizeof(curveMark{}))
}

// curveSegs decodes every segment of cv, the open one last.
func curveSegs(cv *aloneCurve) []curveSeg {
	var segs []curveSeg
	for r := (curveReader{enc: cv.enc}); r.off < len(cv.enc); {
		segs = append(segs, r.next())
	}
	if cv.tail.n > 0 {
		segs = append(segs, cv.tail)
	}
	return segs
}

// TestAloneCursorZeroMilestone: milestone 0 answers cycle 0 without
// simulating, matching the reference oracle.
func TestAloneCursorZeroMilestone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	cache := NewAloneCurveCache()
	cu, err := cache.Cursor(cfg, apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if c := cu.CyclesAt(0); c != 0 {
		t.Fatalf("CyclesAt(0) = %d", c)
	}
	if cache.Points() != 0 {
		t.Fatal("zero milestone must not tick the replica")
	}
}

// TestAloneCursorRequiresKey: a curve is shared under its source's
// stream key, so a source without one is refused rather than given a
// curve that any other such source would read.
func TestAloneCursorRequiresKey(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	apps[0].Key = ""
	cache := NewAloneCurveCache()
	if cu, err := cache.Cursor(cfg, apps[0]); err == nil || cu != nil {
		t.Fatalf("Cursor on a source without a key = %v, %v; want an error", cu, err)
	}
	if _, err := newSlowdownTracker(cfg, apps, cache); err == nil {
		t.Fatal("tracker built over a source without a key")
	}
	if cache.Len() != 0 {
		t.Fatalf("refused source listed %d curves", cache.Len())
	}
}

func TestConfigFingerprint(t *testing.T) {
	a := DefaultConfig()
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs must have equal fingerprints")
	}
	b.L2Bytes *= 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("L2 capacity must be part of the fingerprint")
	}
	// Defaults resolve: the zero backpressure equals the explicit default.
	c := a
	c.WritebackBackpressure = defaultWritebackBackpressure
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("default writeback backpressure must resolve in the fingerprint")
	}

	// The curve key normalizes everything a solo run cannot observe...
	d := a
	d.Cores = 16
	d.Quantum = 250_000
	d.ATSSampledSets = 64
	d.Seed = 999
	d.StreamSeed = a.Seed
	if a.aloneCurveConfig().Fingerprint() != d.aloneCurveConfig().Fingerprint() {
		t.Fatal("solo-invisible knobs must normalize out of the curve key")
	}
	// ...and keeps everything timing-relevant.
	e := a
	e.Channels = 2
	if a.aloneCurveConfig().Fingerprint() == e.aloneCurveConfig().Fingerprint() {
		t.Fatal("channel count must stay in the curve key")
	}
}

func TestWritebackBackpressureValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritebackBackpressure = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative backpressure accepted")
	}
	cfg.WritebackBackpressure = 8
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.wbBackpressure(); got != 8 {
		t.Fatalf("explicit backpressure %d", got)
	}
	cfg.WritebackBackpressure = 0
	if got := cfg.wbBackpressure(); got != defaultWritebackBackpressure {
		t.Fatalf("zero backpressure resolved to %d", got)
	}
}

package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"asmsim/internal/telemetry"
)

// followOutcome is everything a ground-truth sweep produces: the answers
// and the shared cache's accounting once the sweep has completed.
type followOutcome struct {
	Slowdowns [][]float64 // per (mix, quantum)
	Cycles    [][]uint64  // alone cycles at each milestone
	Curves    int
	Points    int64
	Segments  int64
	Digests   map[aloneKey]string // sha256 of each curve's decoded segments
	Saved     uint64
	Extended  uint64
}

// followSweep runs three mixes that reuse benchmarks one after the other
// on one fresh curve cache, as a single-worker sweep does. With follow
// set the trackers follow their shared runs. hintEvery 0 advances through
// RunQuantaCtx (hints at progressStride); otherwise the run is advanced
// in hintEvery-cycle chunks with the progress hook called after each, a
// far denser interleaving of chasers and boundary queries than the real
// cadence gives.
func followSweep(t *testing.T, tweak func(*Config), quantum uint64, quanta int, follow bool, hintEvery uint64) followOutcome {
	t.Helper()
	mixes := [][]string{
		{"povray", "h264ref", "gcc", "mcf"},       // low, low, medium, high
		{"mcf", "libquantum", "bzip2", "h264ref"}, // repeats mcf and h264ref
		{"sphinx3", "lbm", "gcc", "libquantum"},
	}
	cache := NewAloneCurveCache()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	var out followOutcome
	for mi, names := range mixes {
		cfg := DefaultConfig()
		cfg.Quantum = quantum
		cfg.ATSSampledSets = 64
		cfg.Seed = 7 + uint64(mi)*1000
		cfg.StreamSeed = 7
		tweak(&cfg)
		specs := mustSpecs(t, names)
		sys, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		tracker, err := NewSlowdownTrackerShared(cfg, specs, cache)
		if err != nil {
			t.Fatal(err)
		}
		if follow {
			tracker.Follow(sys)
			if sys.progress == nil {
				t.Fatal("Follow installed no progress hook on a cursor-backed tracker")
			}
		}
		sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
			out.Slowdowns = append(out.Slowdowns, tracker.ActualSlowdowns(st))
			out.Cycles = append(out.Cycles, append([]uint64(nil), tracker.lastCycle...))
		})
		if hintEvery == 0 {
			if err := sys.RunQuantaCtx(context.Background(), quanta); err != nil {
				t.Fatal(err)
			}
		} else {
			for end := uint64(quanta) * quantum; sys.Cycle() < end; {
				sys.Run(min(hintEvery, end-sys.Cycle()))
				if sys.progress != nil {
					sys.progress()
				}
			}
		}
	}
	// Every hint was at or below a milestone that has since been queried,
	// so a chase still alive has nothing left to step: the accounting is
	// final.
	out.Curves, out.Points, out.Saved = cache.Len(), cache.Points(), cache.SavedCycles()
	sc := reg.Scope("alone_cache")
	out.Segments = int64(sc.Counter("segments").Value())
	out.Extended = sc.Counter("extended_cycles").Value()
	// A curve's lock comes before the cache's: copy the entries out first.
	cache.mu.Lock()
	curves := maps.Clone(cache.entries)
	cache.mu.Unlock()
	out.Digests = map[aloneKey]string{}
	for k, cv := range curves {
		cv.mu.RLock()
		out.Digests[k] = fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%v", curveSegs(cv))))
		cv.mu.RUnlock()
	}
	return out
}

// goroutineBaseline counts the goroutines that are here to stay. The
// previous subtest's goroutine has signalled its parent but may not have
// exited yet; counted into the baseline it let waitForGoroutines return
// with one chase still running (seen under -race on a loaded machine, on
// the commit before this helper too), so the count is the minimum over a
// short settling time.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		}
	}
	return n
}

// waitForGoroutines waits until at most want goroutines exist. A chase
// goroutine clears its flag just before it returns, so there is no event
// to wait on for the exit itself; the deadline only bounds a failure.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines alive, want <= %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowedSweepMatchesUnfollowed: following changes who steps a
// curve's replica and when, never what anybody observes. Over low-,
// medium- and high-intensity apps, with the prefetcher and on two
// channels, on one processor and on two, a followed sweep must return the
// unfollowed sweep's slowdowns and milestone cycles, and — because a hint
// is never past the next boundary's milestone — leave the cache with the
// same curves (decoded segment for segment), points, segments, simulated
// replica cycles and saved cycles: no speculative work. Run under -race (make race).
func TestFollowedSweepMatchesUnfollowed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine three-mix sweeps")
	}
	variants := []struct {
		name  string
		tweak func(*Config)
	}{
		{"base", func(*Config) {}},
		{"prefetch", func(c *Config) { c.Prefetch = true }},
		{"2ch", func(c *Config) { c.Channels = 2 }},
	}
	// Two quanta that cross progressStride once, in mid-quantum.
	const quantum, quanta = 140_000, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			want := followSweep(t, v.tweak, quantum, quanta, false, 0)
			if want.Saved == 0 || want.Extended == 0 || want.Curves != 8 {
				t.Fatalf("reference sweep: %d curves, %d extended, %d saved cycles", want.Curves, want.Extended, want.Saved)
			}
			// One processor at the real cadence, two at the dense one (the
			// exp tests run the real cadence on two).
			for procs, hintEvery := range map[int]uint64{1: 0, 2: 10_000} {
				runtime.GOMAXPROCS(procs)
				got := followSweep(t, v.tweak, quantum, quanta, true, hintEvery)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GOMAXPROCS=%d hints every %d cycles: followed sweep differs from unfollowed\n got %+v\nwant %+v",
						procs, hintEvery, got, want)
				}
			}
		})
	}
}

// TestFollowLeavesNoGoroutines: a chase goroutine exists only while its
// curve is behind a hint. None may remain shortly after a completed run,
// or after a run cancelled mid-quantum (the boundary query never comes;
// the chase still stops at the last hint).
func TestFollowLeavesNoGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 600_000
	names := []string{"mcf", "libquantum", "gcc", "h264ref"}
	specs := mustSpecs(t, names)

	followed := func(cache *AloneCurveCache) (*System, *SlowdownTracker) {
		sys, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		tracker, err := NewSlowdownTrackerShared(cfg, specs, cache)
		if err != nil {
			t.Fatal(err)
		}
		tracker.Follow(sys)
		sys.AddQuantumListener(func(_ *System, st *QuantumStats) { tracker.ActualSlowdowns(st) })
		return sys, tracker
	}

	t.Run("completed", func(t *testing.T) {
		baseline := goroutineBaseline()
		sys, _ := followed(NewAloneCurveCache())
		if err := sys.RunQuantaCtx(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		waitForGoroutines(t, baseline)
	})

	t.Run("cancelled", func(t *testing.T) {
		baseline := goroutineBaseline()
		sys, tracker := followed(NewAloneCurveCache())
		// Enough polls to pass the first hint, far too few for the quantum.
		ctx := &countdownCtx{Context: context.Background(), limit: int(progressStride/cancelCheckStride) + 4}
		if err := sys.RunQuantaCtx(ctx, 1); err != context.Canceled {
			t.Fatalf("RunQuantaCtx = %v, want context.Canceled", err)
		}
		if sys.Cycle() <= progressStride || sys.Cycle() >= cfg.Quantum {
			t.Fatalf("cancelled at cycle %d, want between the first hint (%d) and the boundary (%d)",
				sys.Cycle(), uint64(progressStride), cfg.Quantum)
		}
		waitForGoroutines(t, baseline)
		for a, cu := range tracker.cursors {
			cv := cu.curve
			if w := cv.wanted.Load(); w == 0 || cv.last.Load() < w || w > sys.Retired(a) {
				t.Errorf("%s: curve covers %d instructions, hinted %d, shared run retired %d",
					names[a], cv.last.Load(), w, sys.Retired(a))
			}
		}
	})
}

// TestChaseRunsUnderAloneLabel: a chase goroutine carries the pprof label
// sim=alone, so a CPU profile can leave the alone curves out
// (-tagignore=sim=alone), and setting that label allocates nothing.
func TestChaseRunsUnderAloneLabel(t *testing.T) {
	cfg := DefaultConfig()
	cache := NewAloneCurveCache()
	apps := SourcesFromSpecs(mustSpecs(t, []string{"mcf"}), cfg.streamSeed())
	cu, err := cache.Cursor(cfg, apps[0])
	if err != nil {
		t.Fatal(err)
	}
	baseline := goroutineBaseline()
	// Holding the curve's lock parks the chase inside extendTo, alive
	// and labelled, until the profile has been read. Only records parked
	// there are judged: a profile taken earlier can catch the chase inside
	// SetGoroutineLabels, before the label applies.
	cu.curve.mu.Lock()
	cu.curve.want(extendSlice)
	labelled := false
	for deadline := time.Now().Add(30 * time.Second); !labelled && time.Now().Before(deadline); {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, "(*aloneCurve).chase") && strings.Contains(rec, "(*aloneCurve).extendTo") {
				if !strings.Contains(rec, `# labels: {"sim":"alone"}`) {
					t.Fatalf("chase goroutine without the sim=alone label:\n%s", rec)
				}
				labelled = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	cu.curve.mu.Unlock()
	if !labelled {
		t.Fatal("no chase goroutine appeared")
	}
	waitForGoroutines(t, baseline)

	defer pprof.SetGoroutineLabels(context.Background())
	if n := testing.AllocsPerRun(100, func() { pprof.SetGoroutineLabels(cache.labels) }); n != 0 {
		t.Fatalf("labelling a chase allocates %v objects", n)
	}
}

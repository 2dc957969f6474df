package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"asmsim/internal/workload"
)

// skipRunResult captures everything a run exposes that the advance loop's
// jumps and run-ahead cores could plausibly corrupt: every per-quantum
// snapshot, final retirement and cycle counts, the forced-wake tally, and
// the per-channel DRAM aggregates.
type skipRunResult struct {
	snapshots  []QuantumStats
	retired    []uint64
	cycle      uint64
	forced     uint64
	busUtil    []float64
	interf     [][]float64
	queueing   [][]uint64
	skipCycles uint64
}

// runForSkipDiff runs quanta quanta through Run, or with ticked through
// the tickN reference.
func runForSkipDiff(t *testing.T, cfg Config, specs []workload.Spec, quanta int, ticked bool) skipRunResult {
	t.Helper()
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var res skipRunResult
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		cp := *st
		cp.Apps = append([]AppQuantum(nil), st.Apps...)
		res.snapshots = append(res.snapshots, cp)
	})
	if ticked {
		tickN(sys, uint64(quanta)*cfg.Quantum)
	} else {
		sys.RunQuanta(quanta)
	}
	for a := 0; a < cfg.Cores; a++ {
		res.retired = append(res.retired, sys.Retired(a))
	}
	res.cycle = sys.Cycle()
	res.forced = sys.ForcedWakes()
	for _, ch := range sys.Mem().Channels() {
		res.busUtil = append(res.busUtil, ch.BusUtilization())
		interf := make([]float64, cfg.Cores)
		queueing := make([]uint64, cfg.Cores)
		for a := 0; a < cfg.Cores; a++ {
			interf[a] = ch.InterferenceCycles(a)
			queueing[a] = ch.QueueingCycles(a)
		}
		res.interf = append(res.interf, interf)
		res.queueing = append(res.queueing, queueing)
	}
	res.skipCycles = sys.SkipCycles()
	return res
}

// TestSkipAheadBitIdentical is the differential gate for the advance loop:
// across a spread of configurations — all three scheduling policies,
// prefetching, multiple channels, ATS sampling, epoch priority on and
// off, write-backpressure — Run, whose cores run
// ahead between contacts and whose loop jumps idle cycles, must produce
// bit-identical QuantumStats snapshots, retirement counts, forced-wake
// tallies, and per-channel DRAM accounting (including the float
// interference accumulators) to the cycle-by-cycle reference (tickN).
func TestSkipAheadBitIdentical(t *testing.T) {
	memPool := []string{"mcf", "libquantum", "soplex", "milc", "lbm", "GemsFDTD"}
	mixPool := []string{"mcf", "bzip2", "libquantum", "h264ref", "gcc", "milc"}
	policies := []Policy{PolicyFRFCFS, PolicyPARBS, PolicyTCM}
	samples := []int{0, 64, 256}
	for i := 0; i < 12; i++ {
		cfg := DefaultConfig()
		cfg.Quantum = 60_000
		cfg.Epoch = 10_000
		cfg.Cores = 2 + i%3
		cfg.Policy = policies[i%len(policies)]
		cfg.ATSSampledSets = samples[i%len(samples)]
		cfg.Prefetch = i%2 == 0
		cfg.Channels = 1 + i%2
		cfg.Seed = uint64(i)
		if i%3 == 2 {
			cfg.EpochPriority = false
			cfg.Epoch = 0
		}
		if i%5 == 4 {
			cfg.WritebackBackpressure = 4
		}
		pool := mixPool
		if i%2 == 0 {
			pool = memPool // memory-intensive: the windows the fast path targets
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		names := make([]string, cfg.Cores)
		specs := make([]workload.Spec, cfg.Cores)
		for j := range specs {
			names[j] = pool[(i*5+j)%len(pool)]
			sp, ok := workload.ByName(names[j])
			if !ok {
				t.Fatalf("unknown benchmark %s", names[j])
			}
			specs[j] = sp
		}

		got := runForSkipDiff(t, cfg, specs, 2, false)
		want := runForSkipDiff(t, cfg, specs, 2, true)
		// The reference path must never jump; Run must, under every
		// policy (non-vacuous equivalence).
		if want.skipCycles != 0 {
			t.Fatalf("config %d: reference path skipped %d cycles", i, want.skipCycles)
		}
		if got.skipCycles == 0 {
			t.Errorf("config %d (%v %v): the advance loop never jumped", i, cfg.Policy, names)
		}
		got.skipCycles, want.skipCycles = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d (%v %v): Run diverged from cycle-by-cycle reference:\n got %+v\nwant %+v",
				i, cfg.Policy, names, got, want)
		}
	}
}

// TestEventsHeapPeekAgreesWithPop is the property the advance loop's
// horizon depends on: peek always reports exactly the cycle of the next event
// popDue can yield, and popDue yields events in nondecreasing cycle order.
func TestEventsHeapPeekAgreesWithPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var h eventHeap
		n := 1 + rng.Intn(200)
		cycles := make([]uint64, n)
		for i := range cycles {
			cycles[i] = uint64(rng.Intn(1000))
			h.push(event{cycle: cycles[i], app: int32(i), line: uint64(i)})
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		for _, want := range cycles {
			due, ok := h.peek()
			if !ok || due != want {
				t.Fatalf("trial %d: peek = (%d,%v), want (%d,true)", trial, due, ok, want)
			}
			// Not due yet: popDue before the peeked cycle must refuse.
			if due > 0 {
				if _, ok := h.popDue(due - 1); ok {
					t.Fatalf("trial %d: popDue(%d) yielded an event peeked at %d", trial, due-1, due)
				}
			}
			e, ok := h.popDue(due)
			if !ok || e.cycle != due {
				t.Fatalf("trial %d: popDue(%d) = (%+v,%v)", trial, due, e, ok)
			}
		}
		if _, ok := h.peek(); ok || h.len() != 0 {
			t.Fatalf("trial %d: heap not drained", trial)
		}
	}
}

// TestRunChunksNoOvershoot proves the advance loop respects Run's cycle
// bound: advancing a memory-intensive system in small chunks must land
// exactly on every chunk boundary (the cancellation-latency contract of
// RunQuantaCtx's strided loop), while still jumping inside chunks.
func TestRunChunksNoOvershoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 50_000
	cfg.Epoch = 10_000
	specs := make([]workload.Spec, 0, 4)
	for _, n := range []string{"mcf", "libquantum", "soplex", "milc"} {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		specs = append(specs, sp)
	}
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	const stride = 777 // deliberately misaligned with every period
	for sys.Cycle() < 3*cfg.Quantum {
		want := sys.Cycle() + stride
		sys.Run(stride)
		if sys.Cycle() != want {
			t.Fatalf("Run(%d) overshot: at %d, want %d", stride, sys.Cycle(), want)
		}
	}
	if sys.SkipCycles() == 0 {
		t.Fatal("no cycles skipped on a memory-intensive mix")
	}
	if sys.SkipWindows() == 0 || sys.SkipCycles() < sys.SkipWindows() {
		t.Fatalf("inconsistent skip counters: %d windows, %d cycles",
			sys.SkipWindows(), sys.SkipCycles())
	}
}

// TestSkipAheadForcedWakesZero asserts the failsafe never has to rescue a
// core, ticked or run: forced wakes count only productive rescues (a
// retirement or fetch the normal wake-up paths missed), so any nonzero
// value means a wake-up path is broken, not that the system was busy.
// The stateful schedulers are held to it as well: their decision ticks end
// the loop's jumps, and one that ran past a decision would strand a core.
func TestSkipAheadForcedWakesZero(t *testing.T) {
	specs := make([]workload.Spec, 0, 4)
	for _, n := range []string{"mcf", "libquantum", "soplex", "milc"} {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		specs = append(specs, sp)
	}
	for _, policy := range []Policy{PolicyFRFCFS, PolicyPARBS, PolicyTCM} {
		for _, ticked := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Quantum = 100_000
			cfg.Policy = policy
			sys, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if ticked {
				tickN(sys, 2*cfg.Quantum)
			} else {
				sys.RunQuanta(2)
			}
			if fw := sys.ForcedWakes(); fw != 0 {
				t.Fatalf("%s ticked=%v: %d forced wakes — a wake-up path is missing", policy, ticked, fw)
			}
			if !ticked && sys.SkipCycles() == 0 {
				t.Fatalf("%s: the advance loop never jumped", policy)
			}
		}
	}
}

// TestDrainFlipIsNotSkipped pins the one hidden state a frozen DRAM window
// can miss: a write posted after its controller last updated its drain
// mode (here a writeback at cycle 1395167 fills the write queue to its
// high watermark) makes the next tick start draining — a tick
// NextEventCycle, which reads the current mode, reports as frozen. Skipped
// anyway, the run drifts from the cycle-by-cycle reference in its queueing
// and interference counters.
func TestDrainFlipIsNotSkipped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 1_400_000
	cfg.ATSSampledSets = 64
	cfg.Seed = 15
	specs := make([]workload.Spec, 0, 4)
	for _, n := range []string{"bwaves", "cg", "mg", "ft"} {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		specs = append(specs, sp)
	}
	got := runForSkipDiff(t, cfg, specs, 1, false)
	want := runForSkipDiff(t, cfg, specs, 1, true)
	got.skipCycles, want.skipCycles = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run diverged from the cycle-by-cycle reference:\n got %+v\nwant %+v", got, want)
	}
}

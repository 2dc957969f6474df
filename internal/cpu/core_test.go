package cpu

import (
	"testing"

	"asmsim/internal/workload"
)

// fakePort is a scriptable memory port.
type fakePort struct {
	// latency for synchronous completions; 0 means async.
	syncLat uint64
	// pending async tokens awaiting Complete.
	pending []uint64
	// reject makes every access fail (resource exhaustion).
	reject bool
	// rejectWrites makes only writes fail.
	rejectWrites bool
	reads        int
	writes       int
}

func (p *fakePort) Read(app int, addr uint64, token uint64, now uint64) (bool, uint64, bool) {
	if p.reject {
		return false, 0, false
	}
	p.reads++
	if p.syncLat > 0 {
		return true, p.syncLat, true
	}
	p.pending = append(p.pending, token)
	return false, 0, true
}

func (p *fakePort) Write(app int, addr uint64, now uint64) bool {
	if p.reject || p.rejectWrites {
		return false
	}
	p.writes++
	return true
}

// genSpec returns a deterministic spec with the given memory behaviour.
func genSpec(memFrac, depFrac, writeFrac float64) workload.Spec {
	return workload.Spec{
		Name: "t", Suite: workload.SuiteSynthetic,
		MemFrac: memFrac, NearFrac: 0.001, // force far accesses
		WSS: 1 << 20, Hot: 1 << 18, HotFrac: 0.5,
		DepFrac: depFrac, WriteFrac: writeFrac,
	}
}

func newCore(spec workload.Spec, port MemPort) *Core {
	gen := workload.NewGenerator(spec, 0, 1)
	return New(0, gen, port, 128, 3)
}

func TestComputeOnlyIPCEqualsWidth(t *testing.T) {
	// A stream with (almost) no memory accesses retires at issue width.
	spec := genSpec(0.0001, 0, 0)
	c := newCore(spec, &fakePort{syncLat: 1})
	var cyc uint64
	for ; cyc < 10000; cyc++ {
		c.Tick(cyc)
	}
	ipc := float64(c.Retired()) / float64(cyc)
	if ipc < 2.8 {
		t.Fatalf("compute-only IPC %v, want ~3", ipc)
	}
}

func TestInOrderRetirement(t *testing.T) {
	// One async load blocks retirement of everything behind it.
	spec := genSpec(0.5, 0, 0)
	p := &fakePort{}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 300; cyc++ {
		c.Tick(cyc)
	}
	// Window fills (128 entries) but nothing retires past the first
	// pending load.
	if c.Retired() > 128 {
		t.Fatalf("retired %d past a pending head", c.Retired())
	}
	before := c.Retired()
	if len(p.pending) == 0 {
		t.Fatal("no async loads issued")
	}
	// Complete all pending loads: retirement resumes.
	for _, tok := range p.pending {
		c.Complete(tok, 300)
	}
	p.pending = nil
	for cyc := uint64(300); cyc < 400; cyc++ {
		c.Tick(cyc)
	}
	if c.Retired() <= before {
		t.Fatal("retirement did not resume after completion")
	}
}

func TestMLPOverlapsIndependentMisses(t *testing.T) {
	// Independent loads issue back-to-back without waiting: many async
	// requests outstanding at once.
	spec := genSpec(0.9, 0, 0)
	p := &fakePort{}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 200; cyc++ {
		c.Tick(cyc)
	}
	if len(p.pending) < 16 {
		t.Fatalf("only %d overlapping misses; expected window-limited MLP", len(p.pending))
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	countIssued := func(dep float64) int {
		spec := genSpec(0.9, dep, 0)
		p := &fakePort{}
		c := newCore(spec, p)
		for cyc := uint64(0); cyc < 500; cyc++ {
			c.Tick(cyc)
		}
		return p.reads
	}
	indep := countIssued(0)
	chained := countIssued(1)
	if chained >= indep/4 {
		t.Fatalf("pointer chasing issued %d loads vs %d independent — no serialization", chained, indep)
	}
}

func TestStoresArePosted(t *testing.T) {
	// Pure-store stream never blocks retirement.
	spec := genSpec(0.5, 0, 1)
	p := &fakePort{syncLat: 1}
	c := newCore(spec, p)
	var cyc uint64
	for ; cyc < 5000; cyc++ {
		c.Tick(cyc)
	}
	if p.writes == 0 {
		t.Fatal("no stores issued")
	}
	ipc := float64(c.Retired()) / float64(cyc)
	if ipc < 2.5 {
		t.Fatalf("posted stores should not stall the core: IPC %v", ipc)
	}
}

func TestResourceRejectionStallsFetch(t *testing.T) {
	spec := genSpec(0.9, 0, 0)
	p := &fakePort{reject: true}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 100; cyc++ {
		c.Tick(cyc)
	}
	// The first memory instruction can never issue; only the leading
	// compute instructions retire.
	if p.reads != 0 {
		t.Fatal("rejected reads should not count as issued")
	}
	if c.Retired() > 100 {
		t.Fatalf("retired %d with memory fully blocked", c.Retired())
	}
}

func TestWriteRejectionDoesNotSleepForever(t *testing.T) {
	// Write rejections clear without a fill; the core must keep retrying
	// (stallWrite is excluded from the sleep condition).
	spec := genSpec(0.9, 0, 1)
	p := &fakePort{rejectWrites: true}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 100; cyc++ {
		c.Tick(cyc)
	}
	p.rejectWrites = false
	for cyc := uint64(100); cyc < 200; cyc++ {
		c.Tick(cyc)
	}
	if p.writes == 0 {
		t.Fatal("core never retried the rejected store")
	}
}

func TestCompleteStaleTokenIgnored(t *testing.T) {
	spec := genSpec(0.9, 0, 0)
	p := &fakePort{}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 50; cyc++ {
		c.Tick(cyc)
	}
	if len(p.pending) == 0 {
		t.Fatal("no pending loads")
	}
	// A token that was never issued must be ignored without panicking.
	c.Complete(^uint64(0)-12345, 50)
	// Real completions still work afterwards.
	for _, tok := range p.pending {
		c.Complete(tok, 51)
	}
	before := c.Retired()
	for cyc := uint64(51); cyc < 120; cyc++ {
		c.Tick(cyc)
	}
	if c.Retired() <= before {
		t.Fatal("retirement stuck after stale-token Complete")
	}
}

func TestMemStallAccounting(t *testing.T) {
	spec := genSpec(0.9, 0, 0)
	p := &fakePort{}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 1000; cyc++ {
		c.Tick(cyc)
	}
	if got := c.MemStallCycles(1000); got < 900 {
		t.Fatalf("fully memory-blocked core accumulated %d stall cycles in 1000", got)
	}
}

func TestNoForcedWakes(t *testing.T) {
	// With prompt completions the failsafe must never fire.
	spec := genSpec(0.5, 0.3, 0.2)
	p := &fakePort{}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 200000; cyc++ {
		c.Tick(cyc)
		if len(p.pending) > 0 && cyc%7 == 0 {
			for _, tok := range p.pending {
				c.Complete(tok, cyc)
			}
			p.pending = p.pending[:0]
		}
	}
	// ForcedWakes counts only productive failsafe rescues: the periodic
	// probe still runs, but an aligned cycle that retires or fetches
	// nothing new is not counted. With prompt completions every wake must
	// come from a completion, so the count must be exactly zero.
	if fw := c.ForcedWakes(); fw != 0 {
		t.Fatalf("failsafe rescued the core %d times — a wake-up path is missing", fw)
	}
	if c.Retired() == 0 {
		t.Fatal("core made no progress")
	}
}

func TestLoadsAndStoresCounted(t *testing.T) {
	spec := genSpec(0.6, 0, 0.5)
	p := &fakePort{syncLat: 1}
	c := newCore(spec, p)
	for cyc := uint64(0); cyc < 10000; cyc++ {
		c.Tick(cyc)
	}
	if c.Loads() == 0 || c.Stores() == 0 {
		t.Fatalf("loads=%d stores=%d", c.Loads(), c.Stores())
	}
	memFrac := float64(c.Loads()+c.Stores()) / float64(c.Retired())
	if memFrac < 0.5 || memFrac > 0.7 {
		t.Fatalf("memory fraction %v, spec says 0.6", memFrac)
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, workload.NewGenerator(genSpec(0.5, 0, 0), 0, 1), &fakePort{}, 0, 3)
}

// headStalled is the per-cycle definition of a memory-stall cycle, read
// off the window before Tick(now): nothing can retire and the head is a
// memory instruction still waiting for its data. It is what retire counts
// on an awake core and what every cycle of a sleeping core is.
func headStalled(c *Core, now uint64) bool {
	// Only a slow load can be unready.
	head := c.next - uint64(c.size)
	e := &c.slots[head&c.mask]
	return c.size > 0 && e.token == head && (e.pending || e.doneAt > now)
}

// TestSleptCyclesMatchPerCycleCount holds the interval accounting of a
// sleeping core (cycles charged in one step at Wake, Complete or a
// forced-wake boundary) to a count made one cycle at a time, on the
// schedules where the two are easiest to get wrong: a sleep that spans a
// forced-wake boundary, two wake-ups in one cycle, and a wake-up on the
// cycle right after the core blocked. Each schedule runs twice — ticking
// the sleeping core every cycle, as the benchmark's core driver does, and
// only when awake or on a boundary, as sim.System does.
func TestSleptCyclesMatchPerCycleCount(t *testing.T) {
	type wake struct {
		at    uint64 // cycle the completions arrive, before Tick(at)
		twice bool   // deliver a bare Wake as well: two wake-ups, one cycle
	}
	const start = ForcedWakeInterval - 300
	cases := []struct {
		name  string
		wakes func(blockedAt uint64) []wake
	}{
		{"across a forced-wake boundary", func(b uint64) []wake {
			return []wake{{at: ForcedWakeInterval + 250}}
		}},
		{"two wakes in one cycle", func(b uint64) []wake {
			return []wake{{at: b + 40, twice: true}}
		}},
		{"wake on the cycle after blocking", func(b uint64) []wake {
			return []wake{{at: b + 1}}
		}},
		{"wake on the boundary itself", func(b uint64) []wake {
			return []wake{{at: ForcedWakeInterval, twice: true}}
		}},
	}
	for _, tc := range cases {
		for _, tickAsleep := range []bool{true, false} {
			p := &fakePort{}
			c := newCore(genSpec(0.9, 0, 0), p)
			var want uint64
			var wakes []wake
			slept := false
			for now := uint64(start); now < ForcedWakeInterval+600; now++ {
				for len(wakes) > 0 && wakes[0].at == now {
					for _, tok := range p.pending {
						c.Complete(tok, now)
					}
					p.pending = p.pending[:0]
					if wakes[0].twice {
						c.Wake(now)
					}
					wakes = wakes[1:]
				}
				if headStalled(c, now) {
					want++
				}
				if tickAsleep || !c.Blocked() || now&forcedWakeMask == 0 {
					c.Tick(now)
				}
				if c.Blocked() && !slept {
					slept = true
					wakes = tc.wakes(now)
				}
				if got := c.MemStallCycles(now + 1); got != want {
					t.Fatalf("%s (tickAsleep=%v): cycle %d: %d stall cycles, per-cycle count %d",
						tc.name, tickAsleep, now, got, want)
				}
			}
			if !slept || len(wakes) != 0 {
				t.Fatalf("%s: schedule did not run (slept=%v, %d wakes left)", tc.name, slept, len(wakes))
			}
			if c.ForcedWakes() != 0 {
				t.Fatalf("%s: %d forced wakes", tc.name, c.ForcedWakes())
			}
		}
	}
}

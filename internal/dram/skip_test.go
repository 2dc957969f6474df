package dram

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// driveTicked advances the controller tick by tick from cycle `from` to
// `to` (inclusive, on the tick grid), enqueuing enq[i] at the first grid
// cycle >= its Enqueue stamp.
func driveTicked(c *Controller, from, to uint64, enq []*Request) {
	ratio := uint64(c.timing.CPUPerDRAM)
	next := 0
	for now := from; now <= to; now += ratio {
		for next < len(enq) && enq[next].Enqueue <= now {
			c.Enqueue(enq[next], now)
			next++
		}
		c.Tick(now)
	}
}

// driveSkipped advances the controller over the same window using
// NextEventCycle horizons and SkipTicks for every frozen stretch,
// enqueuing at the same grid cycles as driveTicked.
func driveSkipped(t *testing.T, c *Controller, from, to uint64, enq []*Request) (skipped uint64) {
	t.Helper()
	ratio := uint64(c.timing.CPUPerDRAM)
	next := 0
	now := from
	for now <= to {
		for next < len(enq) && enq[next].Enqueue <= now {
			c.Enqueue(enq[next], now)
			next++
		}
		h := c.NextEventCycle(now)
		if h < now {
			t.Fatalf("NextEventCycle(%d) = %d went backwards", now, h)
		}
		if h == now {
			c.Tick(now)
			now += ratio
			continue
		}
		// Frozen window: skip whole ticks up to the horizon, the next
		// enqueue, or the end of the run, whichever comes first.
		end := h
		if next < len(enq) {
			ne := from + (enq[next].Enqueue-from+ratio-1)/ratio*ratio
			if ne < end {
				end = ne
			}
		}
		if to+ratio < end {
			end = to + ratio
		}
		if end <= now {
			c.Tick(now)
			now += ratio
			continue
		}
		k := (end - now + ratio - 1) / ratio
		c.SkipTicks(now, k)
		skipped += k
		now += k * ratio
	}
	return skipped
}

// compareControllers asserts every observable accounting of the two
// controllers is bit-identical (float accumulators compared by bits).
func compareControllers(t *testing.T, trial int, a, b *Controller, numApps int) {
	t.Helper()
	for app := 0; app < numApps; app++ {
		if x, y := a.InterferenceCycles(app), b.InterferenceCycles(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: interference %v (%x) vs %v (%x)",
				trial, app, x, math.Float64bits(x), y, math.Float64bits(y))
		}
		if x, y := a.QueueingCycles(app), b.QueueingCycles(app); x != y {
			t.Errorf("trial %d app %d: queueing %d vs %d", trial, app, x, y)
		}
		if x, y := a.ReadsDone(app), b.ReadsDone(app); x != y {
			t.Errorf("trial %d app %d: readsDone %d vs %d", trial, app, x, y)
		}
		if x, y := a.AvgReadLatency(app), b.AvgReadLatency(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: avg latency %v vs %v", trial, app, x, y)
		}
		if x, y := a.RowHitRate(app), b.RowHitRate(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: row-hit rate %v vs %v", trial, app, x, y)
		}
		if x, y := a.OutstandingReads(app), b.OutstandingReads(app); x != y {
			t.Errorf("trial %d app %d: outstanding %d vs %d", trial, app, x, y)
		}
	}
	if x, y := attribution(a), attribution(b); !reflect.DeepEqual(x, y) {
		t.Errorf("trial %d: attribution %v vs %v", trial, x, y)
	}
	if x, y := a.QueuedReads(), b.QueuedReads(); x != y {
		t.Errorf("trial %d: queued reads %d vs %d", trial, x, y)
	}
	if x, y := a.BusUtilization(), b.BusUtilization(); math.Float64bits(x) != math.Float64bits(y) {
		t.Errorf("trial %d: bus utilization %v vs %v", trial, x, y)
	}
	if a.totalTicks != b.totalTicks || a.busyTicks != b.busyTicks {
		t.Errorf("trial %d: ticks %d/%d vs %d/%d", trial, a.busyTicks, a.totalTicks, b.busyTicks, b.totalTicks)
	}
	if a.markedReads != b.markedReads {
		t.Errorf("trial %d: marked reads %d vs %d", trial, a.markedReads, b.markedReads)
	}
	comparePolicies(t, trial, a.policy, b.policy)
}

// comparePolicies asserts the two schedulers hold identical state: PARBS's
// ranks, TCM's ranks, clusters, shuffle clock and — by drawing from both —
// the position of its random stream.
func comparePolicies(t *testing.T, trial int, a, b Scheduler) {
	t.Helper()
	switch pa := a.(type) {
	case *PARBS:
		if pb := b.(*PARBS); !reflect.DeepEqual(pa.rank, pb.rank) {
			t.Errorf("trial %d: PARBS ranks %v vs %v", trial, pa.rank, pb.rank)
		}
	case *TCM:
		pb := b.(*TCM)
		if !reflect.DeepEqual(pa.rank, pb.rank) || !reflect.DeepEqual(pa.latency, pb.latency) || pa.lastShuf != pb.lastShuf {
			t.Errorf("trial %d: TCM ranks %v/%v clusters %v/%v last shuffle %d/%d",
				trial, pa.rank, pb.rank, pa.latency, pb.latency, pa.lastShuf, pb.lastShuf)
		}
		if x, y := pa.rnd.Uint64(), pb.rnd.Uint64(); x != y {
			t.Errorf("trial %d: TCM random streams at different positions (%#x vs %#x)", trial, x, y)
		}
	}
}

// skipTestPolicies are the schedulers the frozen-window tests run under.
var skipTestPolicies = []struct {
	name string
	mk   func(numApps int) Scheduler
}{
	{"FRFCFS", func(int) Scheduler { return NewFRFCFS() }},
	{"PARBS", func(n int) Scheduler { return NewPARBS(n) }},
	{"TCM", func(n int) Scheduler { return NewTCM(n, 5) }},
}

// TestSkipTicksMatchesTicked is the controller-level differential test
// for the frozen-window fast path: random multi-app request patterns
// (with the epoch priority overlay, the attribution ledger and per-request
// cause vectors) driven through
// NextEventCycle + SkipTicks must leave every accounting — including the
// float interference accumulators, compared bit for bit — identical to
// ticking through every DRAM cycle, under every scheduling policy: PARBS
// and TCM keep their marks, ranks and random-stream position because their
// decision ticks (Scheduler.NextDecision) end the windows.
func TestSkipTicksMatchesTicked(t *testing.T) {
	for _, pol := range skipTestPolicies {
		t.Run(pol.name, func(t *testing.T) { testSkipTicksMatchesTicked(t, pol.mk) })
	}
}

func testSkipTicksMatchesTicked(t *testing.T, mkPolicy func(numApps int) Scheduler) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		timing := DDR31333()
		numApps := 2 + trial%3
		geom := DefaultGeometry(1)
		mk := func() (*Controller, []*Request) {
			c := NewController(timing, geom, 0, numApps, mkPolicy(numApps))
			c.EnableAttribution()
			c.SetPriorityApp(trial % numApps)
			n := 8 + rng.Intn(40)
			reqs := make([]*Request, 0, n)
			var at uint64
			for i := 0; i < n; i++ {
				r := &Request{
					App:      rng.Intn(numApps),
					LineAddr: uint64(rng.Intn(1 << 14)),
					Write:    rng.Intn(8) == 0,
					Causes:   make([]uint64, numApps),
				}
				r.Enqueue = at
				at += uint64(rng.Intn(300))
				reqs = append(reqs, r)
			}
			return c, reqs
		}
		// Identical RNG draws for both sides: rebuild the generator.
		seed := rng.Int63()
		rng = rand.New(rand.NewSource(seed))
		ticked, reqsT := mk()
		rng = rand.New(rand.NewSource(seed))
		skippy, reqsS := mk()

		end := uint64(40_000)
		driveTicked(ticked, 0, end, reqsT)
		skipped := driveSkipped(t, skippy, 0, end, reqsS)
		if skipped == 0 {
			t.Errorf("trial %d: no ticks skipped", trial)
		}
		compareControllers(t, trial, ticked, skippy, numApps)
		for i := range reqsT {
			if reqsT[i].InterfCycles != reqsS[i].InterfCycles {
				t.Errorf("trial %d req %d: interference %d vs %d",
					trial, i, reqsT[i].InterfCycles, reqsS[i].InterfCycles)
			}
			for c := range reqsT[i].Causes {
				if reqsT[i].Causes[c] != reqsS[i].Causes[c] {
					t.Errorf("trial %d req %d cause %d: %d vs %d",
						trial, i, c, reqsT[i].Causes[c], reqsS[i].Causes[c])
				}
			}
			if reqsT[i].Complete != reqsS[i].Complete {
				t.Errorf("trial %d req %d: complete %d vs %d", trial, i, reqsT[i].Complete, reqsS[i].Complete)
			}
			if reqsT[i].marked != reqsS[i].marked {
				t.Errorf("trial %d req %d: marked %v vs %v", trial, i, reqsT[i].marked, reqsS[i].marked)
			}
		}
	}
}

// TestNextEventCycleQuiescent pins the horizon's boundary returns under
// every policy: an idle controller is fully quiescent, and a serviceable
// queued read makes the very next tick eventful.
func TestNextEventCycleQuiescent(t *testing.T) {
	for _, pol := range skipTestPolicies {
		c := NewController(DDR31333(), DefaultGeometry(1), 0, 2, pol.mk(2))
		if got := c.NextEventCycle(0); got != NoEventCycle {
			t.Fatalf("%s: idle controller: NextEventCycle = %d, want NoEventCycle", pol.name, got)
		}
		// One request: next tick must be eventful (issue is possible).
		r := &Request{App: 0, LineAddr: 1}
		c.Enqueue(r, 0)
		if got := c.NextEventCycle(0); got != 0 {
			t.Fatalf("%s: serviceable read: NextEventCycle = %d, want 0", pol.name, got)
		}
	}
}

// sameBankReads returns n reads of app to bank 0 of channel 0, each to a
// different row, so every one conflicts with its predecessor.
func sameBankReads(g Geometry, app, n, firstRow int) []*Request {
	rowStride := uint64(g.LinesPerRow * g.BanksPerChan)
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{App: app, LineAddr: uint64(firstRow+i) * rowStride}
	}
	return reqs
}

// twinControllers builds two identical controllers and request sets.
func twinControllers(numApps int, mk func(int) Scheduler, reqs func() []*Request) (ticked, skippy *Controller, rt, rs []*Request) {
	build := func() (*Controller, []*Request) {
		c := NewController(DDR31333(), DefaultGeometry(1), 0, numApps, mk(numApps))
		c.EnableAttribution()
		return c, reqs()
	}
	ticked, rt = build()
	skippy, rs = build()
	return
}

// TestSkipWindowEndsAtBatchExhaustion drives PARBS over a queue deeper
// than its marking cap, so a batch runs out while unmarked reads wait
// behind a busy bank. The tick after the last marked read issues takes no
// command and completes nothing, yet it forms the next batch: the horizon
// must name exactly that tick, and skipping up to it must leave marks,
// ranks and accounting equal to the ticked twin's.
func TestSkipWindowEndsAtBatchExhaustion(t *testing.T) {
	g := DefaultGeometry(1)
	mk := func(n int) Scheduler { return NewPARBS(n) }
	ticked, skippy, rt, rs := twinControllers(2, mk, func() []*Request {
		// Seven reads of app 0 and three of app 1, one bank: the first
		// batch marks five and three of them.
		return append(sameBankReads(g, 0, 7, 0), sameBankReads(g, 1, 3, 100)...)
	})
	ratio := uint64(ticked.timing.CPUPerDRAM)
	for i := range rt {
		ticked.Enqueue(rt[i], 0)
		skippy.Enqueue(rs[i], 0)
	}
	exhaustions := 0
	var now uint64
	for skippy.QueuedReads() > 0 || len(skippy.inService) > 0 {
		h := skippy.NextEventCycle(now)
		if h == NoEventCycle {
			t.Fatalf("cycle %d: quiescent with %d reads queued", now, skippy.QueuedReads())
		}
		if skippy.QueuedReads() > 0 && skippy.markedReads == 0 && now > 0 {
			// Batch exhausted: the decision, not a free bank or a
			// completion, makes this tick eventful.
			if h != now {
				t.Fatalf("cycle %d: batch exhausted but NextEventCycle = %d", now, h)
			}
			if skippy.anyBankFree(skippy.bankReads, now) || skippy.minComplete <= now {
				t.Fatalf("cycle %d: exhaustion tick is eventful for another reason", now)
			}
			exhaustions++
		} else if skippy.QueuedReads() > 0 && !skippy.anyBankFree(skippy.bankReads, now) && h == now && skippy.minComplete > now {
			t.Fatalf("cycle %d: frozen tick with %d marked reads not skipped", now, skippy.markedReads)
		}
		if h > now {
			k := (h - now) / ratio
			skippy.SkipTicks(now, k)
			driveTicked(ticked, now, now+(k-1)*ratio, nil)
			now += k * ratio
		}
		skippy.Tick(now)
		ticked.Tick(now)
		now += ratio
		compareControllers(t, int(now), ticked, skippy, 2)
		for i := range rt {
			if rt[i].marked != rs[i].marked || rt[i].Complete != rs[i].Complete || rt[i].InterfCycles != rs[i].InterfCycles {
				t.Fatalf("cycle %d req %d: ticked %+v, skipped %+v", now, i, *rt[i], *rs[i])
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if exhaustions == 0 {
		t.Fatal("no window ended at a batch exhaustion")
	}
}

// TestSkipWindowEndsAtShuffleBoundary parks TCM reads behind a busy bank
// across its shuffle interval: the horizon must be exactly the shuffle
// tick — earlier than the bank's release — and the Tick there must shuffle
// on both twins alike.
func TestSkipWindowEndsAtShuffleBoundary(t *testing.T) {
	g := DefaultGeometry(1)
	mk := func(n int) Scheduler { return NewTCM(n, 9) }
	ticked, skippy, rt, rs := twinControllers(3, mk, func() []*Request {
		return append(append(sameBankReads(g, 0, 2, 0), sameBankReads(g, 1, 2, 50)...), sameBankReads(g, 2, 2, 90)...)
	})
	ratio := uint64(ticked.timing.CPUPerDRAM)
	tcm := skippy.policy.(*TCM)
	shuffle := tcm.ShuffleInterval * ratio
	start := shuffle - 10*ratio // a closed-row access keeps the bank busy 24 ticks
	driveTicked(ticked, 0, start-ratio, nil)
	skippy.SkipTicks(0, start/ratio)
	for i := range rt {
		ticked.Enqueue(rt[i], start)
		skippy.Enqueue(rs[i], start)
	}
	ticked.Tick(start)
	skippy.Tick(start)
	if skippy.QueuedReads() != len(rs)-1 {
		t.Fatalf("first tick issued %d reads, want 1", len(rs)-skippy.QueuedReads())
	}
	next := start + ratio
	if h := skippy.NextEventCycle(next); h != shuffle {
		t.Fatalf("NextEventCycle = %d, want the shuffle tick %d (bank busy until %d)", h, shuffle, skippy.banks[0].busyUntil)
	}
	if skippy.banks[0].busyUntil <= shuffle {
		t.Fatalf("bank frees at %d, not after the shuffle tick %d: the window would end anyway", skippy.banks[0].busyUntil, shuffle)
	}
	skippy.SkipTicks(next, (shuffle-next)/ratio)
	driveTicked(ticked, next, shuffle-ratio, nil)
	compareControllers(t, 0, ticked, skippy, 3)
	if tcm.lastShuf != 0 {
		t.Fatalf("shuffled at tick %d, before the boundary", tcm.lastShuf)
	}
	skippy.Tick(shuffle)
	ticked.Tick(shuffle)
	if tcm.lastShuf != tcm.ShuffleInterval {
		t.Fatalf("boundary tick did not shuffle (lastShuf %d)", tcm.lastShuf)
	}
	if want := shuffle + shuffle; tcm.NextDecision(skippy, shuffle+ratio) != want {
		t.Fatalf("next decision %d, want %d", tcm.NextDecision(skippy, shuffle+ratio), want)
	}
	// Drain both; the draw inside compareControllers checks that the
	// streams took the same number of shuffles.
	driveTicked(ticked, shuffle+ratio, shuffle+400*ratio, nil)
	if driveSkipped(t, skippy, shuffle+ratio, shuffle+400*ratio, nil) == 0 {
		t.Fatal("drain skipped nothing")
	}
	compareControllers(t, 1, ticked, skippy, 3)
	for i := range rt {
		if rt[i].Complete != rs[i].Complete || rt[i].Complete == 0 {
			t.Fatalf("req %d: complete %d vs %d", i, rt[i].Complete, rs[i].Complete)
		}
	}
}

// TestNextEventCycleDrainWatermarks pins the drain-mode ends of a frozen
// window. Posting writes leaves the window open up to one write below the
// high watermark, and the write that reaches it closes the window: the
// next tick starts the drain. And once a drain has issued its queue down
// to the low watermark, the next tick ends the drain, so it closes the
// window too — though no request's bank frees there.
func TestNextEventCycleDrainWatermarks(t *testing.T) {
	g := DefaultGeometry(1)
	c := NewController(DDR31333(), g, 0, 2, NewFRFCFS())
	ratio := uint64(c.timing.CPUPerDRAM)
	reads := sameBankReads(g, 0, 2, 0)
	c.Enqueue(reads[0], 0)
	c.Tick(0) // issues reads[0]: bank 0 is busy
	c.Enqueue(reads[1], 0)
	now := ratio
	open := c.NextEventCycle(now)
	if open <= now {
		t.Fatalf("read behind a busy bank: NextEventCycle(%d) = %d, want a window", now, open)
	}
	writes := sameBankReads(g, 1, c.writeQCap, 0)
	hi := c.writeQCap * 3 / 4
	for i, w := range writes[:hi] {
		w.Write = true
		if !c.Enqueue(w, now) {
			t.Fatalf("write %d refused", i)
		}
		want := open
		if i == hi-1 {
			want = now
		}
		if got := c.NextEventCycle(now); got != want {
			t.Fatalf("%d writes queued (high watermark %d): NextEventCycle = %d, want %d", i+1, hi, got, want)
		}
	}
	// Tick the drain down to the low watermark: every write targets bank
	// 0 of app 1's rows, so each leaves the bank busy behind it.
	lo := c.writeQCap / 4
	for ; len(c.writeQ) > lo; now += ratio {
		c.Tick(now)
		if !c.draining {
			t.Fatalf("cycle %d: drain ended with %d writes queued", now, len(c.writeQ))
		}
	}
	if got, ref := c.NextEventCycle(now), (refController{c}).nextEventCycle(now); got != now || ref == now {
		t.Fatalf("drain at the low watermark: NextEventCycle = %d, want %d (without the drain rule %d)", got, now, ref)
	}
	c.Tick(now)
	if c.draining {
		t.Fatal("tick at the low watermark kept draining")
	}
}

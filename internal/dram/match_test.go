package dram

import (
	"math/rand"
	"testing"
)

// opSource is what a comparison draws its operations from: a seeded
// *rand.Rand for the unit test, fuzz input for the fuzz target.
type opSource interface{ Intn(n int) int }

// byteSource reads draws from fuzz input, answering 0 once it runs dry.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	if n > 256 && len(s.b) > 1 {
		v = v<<8 | int(s.b[1])
		s.b = s.b[1:]
	}
	s.b = s.b[1:]
	return v % n
}

// refCoverage counts what a comparison exercised, so the seeded test can
// insist the interesting paths were reached.
type refCoverage struct {
	skipped, sampled, settled int
	drains, undrains          int    // drain mode switched on, off
	policies                  [3]int // trials per skipTestPolicies entry
}

// checkControllerAgainstReference drives a Controller and a refController
// built alike through the same random sequence of enqueues (reads, some
// carrying Causes; bursts of writes that reach the drain watermark),
// priority-app changes, TCM reclustering, quantum resets, ticks and
// frozen-window skips, and requires bit-equal accounting throughout and
// bit-equal per-request results at completion. The controller skips every
// window its NextEventCycle calls frozen; the reference either ticks
// through it or replays it with its own SkipTicks where its own horizon
// (and its caller's rule of ticking after a posted write) allows, so the
// horizon is checked against ticking as well as the charges.
func checkControllerAgainstReference(t *testing.T, src opSource, steps int, cov *refCoverage) {
	t.Helper()
	numApps := 2 + src.Intn(15)
	timing := DDR31333()
	pi := src.Intn(len(skipTestPolicies))
	pol := skipTestPolicies[pi]
	cov.policies[pi]++
	geom := DefaultGeometry(1)
	build := func() *Controller {
		c := NewController(timing, geom, 0, numApps, pol.mk(numApps))
		c.EnableAttribution()
		return c
	}
	c, ref := build(), refController{build()}
	ratio := uint64(timing.CPUPerDRAM)
	// A few banks and rows, so reads conflict, hit open rows and queue
	// behind other apps' work.
	banks, rows := 1+src.Intn(geom.BanksPerChan), 1+src.Intn(4)
	line := func() uint64 {
		bank, row, col := src.Intn(banks), src.Intn(rows), src.Intn(4)
		return (uint64(row)*uint64(geom.BanksPerChan)+uint64(bank))*uint64(geom.LinesPerRow) + uint64(col)
	}
	var got, want []*Request
	enqueue := func(now uint64, write bool) {
		r := &Request{App: src.Intn(numApps), LineAddr: line(), Write: write, Prefetch: !write && src.Intn(5) == 0}
		if !write && src.Intn(3) == 0 {
			r.Causes = make([]uint64, numApps)
		}
		w := *r
		if w.Causes != nil {
			w.Causes = make([]uint64, numApps)
		}
		ok, refOK := c.Enqueue(r, now), ref.Enqueue(&w, now)
		if ok != refOK {
			t.Fatalf("cycle %d: Enqueue took %v, reference %v", now, ok, refOK)
		}
		if ok {
			got, want = append(got, r), append(want, &w)
		}
	}

	var now uint64
	posted := false // a write was posted since the reference last ticked
	wasDraining := false
	refTick := func() {
		ref.tick(now)
		posted = false
	}
	advance := func() {
		h := c.NextEventCycle(now)
		if c.drainFlips() {
			if h != now {
				t.Fatalf("cycle %d: drain pending but NextEventCycle = %d", now, h)
			}
		} else if rh := ref.nextEventCycle(now); h != rh {
			t.Fatalf("cycle %d: NextEventCycle = %d, reference %d (draining %v/%v writes %d/%d reads %d/%d)", now, h, rh, c.draining, ref.draining, len(c.writeQ), len(ref.writeQ), len(c.readQ), len(ref.readQ))
		}
		if h == now {
			c.Tick(now)
			refTick()
			now += ratio
			return
		}
		window := uint64(64)
		if h != NoEventCycle {
			window = min(window, (h-now)/ratio)
		}
		k := 1 + uint64(src.Intn(int(window)))
		c.SkipTicks(now, k)
		cov.skipped++
		if rh := ref.nextEventCycle(now); !posted && now+(k-1)*ratio < rh && src.Intn(2) == 0 {
			ref.skipTicks(now, k)
			now += k * ratio
			return
		}
		for end := now + k*ratio; now < end; now += ratio {
			refTick()
		}
	}

	for step := 0; step < steps; step++ {
		switch k := src.Intn(100); {
		// Loads that fill the read queue at times and cross both drain
		// watermarks in most trials.
		case k < 12:
			for n := 1 + src.Intn(4); n > 0; n-- {
				enqueue(now, false)
			}
		case k < 14:
			for n := 1 + src.Intn(48); n > 0; n-- {
				enqueue(now, true)
			}
			posted = true
		case k < 17:
			p := src.Intn(numApps+1) - 1
			c.SetPriorityApp(p)
			ref.SetPriorityApp(p)
		case k < 19:
			compareControllers(t, step, c, ref.Controller, numApps)
			c.ResetQuantumStats()
			ref.ResetQuantumStats()
		case k < 20:
			if tc, ok := c.policy.(*TCM); ok {
				mpki := make([]float64, numApps)
				served := make([]uint64, numApps)
				for a := range mpki {
					mpki[a] = float64(src.Intn(50))
					served[a] = c.ServedReads(a)
				}
				tc.UpdateClustering(mpki, served)
				ref.policy.(*TCM).UpdateClustering(mpki, served)
				c.ResetWindowStats()
				ref.ResetWindowStats()
			}
		default:
			for n := 1 + src.Intn(8); n > 0; n-- {
				advance()
			}
		}
		if c.draining && !wasDraining {
			cov.drains++
		}
		if !c.draining && wasDraining {
			cov.undrains++
		}
		wasDraining = c.draining
		if step%64 == 0 {
			compareControllers(t, step, c, ref.Controller, numApps)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	// Drain both: every request completes.
	for guard := 0; c.QueuedReads() > 0 || len(c.writeQ) > 0 || len(c.inService) > 0; guard++ {
		if guard > 1_000_000 {
			t.Fatalf("cycle %d: controller never drained", now)
		}
		advance()
	}
	compareControllers(t, steps, c, ref.Controller, numApps)
	for i, r := range got {
		w := want[i]
		if r.InterfCycles != w.InterfCycles || r.Start != w.Start || r.Complete != w.Complete || r.RowHit != w.RowHit {
			t.Fatalf("req %d (app %d bank %d): interference %d start %d complete %d row hit %v, reference %d %d %d %v",
				i, r.App, r.bank, r.InterfCycles, r.Start, r.Complete, r.RowHit, w.InterfCycles, w.Start, w.Complete, w.RowHit)
		}
		for j := range r.Causes {
			if r.Causes[j] != w.Causes[j] {
				t.Fatalf("req %d (app %d): causes %v, reference %v", i, r.App, r.Causes, w.Causes)
			}
		}
		if r.Causes != nil {
			cov.sampled++
		}
		if r.InterfCycles > 0 {
			cov.settled++
		}
	}
	for b, v := range ref.bankTotal {
		if v != 0 {
			t.Fatalf("reference charged bank %d: %d", b, v)
		}
	}
}

// TestControllerMatchesReference holds the per-bank interference ledger
// to the per-request walk it replaced, under FR-FCFS, PARBS and TCM with
// 2–16 apps.
func TestControllerMatchesReference(t *testing.T) {
	var cov refCoverage
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		checkControllerAgainstReference(t, rand.New(rand.NewSource(int64(trial)+1)), 2500, &cov)
	}
	if cov.skipped == 0 || cov.drains == 0 || cov.undrains == 0 || cov.sampled == 0 || cov.settled == 0 ||
		min(cov.policies[0], cov.policies[1], cov.policies[2]) == 0 {
		t.Fatalf("comparison left paths unexercised: %+v", cov)
	}
}

// FuzzControllerMatchesReference is the byte-driven form of
// TestControllerMatchesReference.
func FuzzControllerMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkControllerAgainstReference(t, &byteSource{b: data}, len(data)/2, &refCoverage{})
	})
}

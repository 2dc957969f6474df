package dram

import (
	"testing"
	"testing/quick"
)

// testSystem builds a 1-channel system with FR-FCFS and n apps.
func testSystem(n int) *System {
	return NewSystem(DDR31333(), DefaultGeometry(1), n, func(int) Scheduler { return NewFRFCFS() })
}

// runTicks advances the system through DRAM ticks up to the given CPU
// cycle.
func runTicks(s *System, from, to uint64) uint64 {
	ratio := uint64(s.Timing().CPUPerDRAM)
	for c := from; c <= to; c += ratio {
		s.Tick(c)
	}
	return to
}

// request builds a read request with a completion flag.
func request(app int, line uint64, done *uint64) *Request {
	return &Request{
		App:      app,
		LineAddr: line,
		Done:     func(r *Request, now uint64) { *done = now },
	}
}

func TestRowClosedLatency(t *testing.T) {
	s := testSystem(1)
	var done uint64
	r := request(0, 0, &done)
	if !s.Enqueue(r, 0) {
		t.Fatal("enqueue failed")
	}
	runTicks(s, 0, 4000)
	// Closed row: tRCD + tCL + tBURST = 24 DRAM cycles = 192 CPU cycles.
	want := uint64(24 * 8)
	if done != want {
		t.Fatalf("closed-row completion at %d, want %d", done, want)
	}
	if r.RowHit {
		t.Fatal("first access cannot be a row hit")
	}
}

func TestRowHitLatency(t *testing.T) {
	s := testSystem(1)
	var d1, d2 uint64
	s.Enqueue(request(0, 0, &d1), 0)
	runTicks(s, 0, 400)
	r2 := request(0, 1, &d2) // same row (consecutive line)
	s.Enqueue(r2, 400)
	runTicks(s, 408, 4000)
	if !r2.RowHit {
		t.Fatal("second access to same row must be a row hit")
	}
	lat := d2 - 400
	// Row hit: tCL + tBURST = 14 DRAM cycles = 112 CPU cycles, plus up to
	// one tick of scheduling alignment.
	if lat < 112 || lat > 112+16 {
		t.Fatalf("row-hit latency %d", lat)
	}
}

func TestRowConflictLatency(t *testing.T) {
	g := DefaultGeometry(1)
	s := testSystem(1)
	var d1, d2 uint64
	// Two lines in the same bank, different rows: stride of
	// LinesPerRow*Channels*Banks lines apart keeps the bank, changes row.
	lineA := uint64(0)
	lineB := uint64(g.LinesPerRow * g.Channels * g.BanksPerChan)
	chA, bA, rowA := g.Map(lineA)
	chB, bB, rowB := g.Map(lineB)
	if chA != chB || bA != bB || rowA == rowB {
		t.Fatalf("bad address choice: %d/%d/%d vs %d/%d/%d", chA, bA, rowA, chB, bB, rowB)
	}
	s.Enqueue(request(0, lineA, &d1), 0)
	runTicks(s, 0, 400)
	r2 := request(0, lineB, &d2)
	s.Enqueue(r2, 400)
	runTicks(s, 408, 4000)
	lat := d2 - 400
	// Conflict: tRP + tRCD + tCL + tBURST = 34 DRAM cycles = 272 CPU.
	if lat < 272 || lat > 272+16 {
		t.Fatalf("row-conflict latency %d", lat)
	}
}

func TestBankParallelism(t *testing.T) {
	g := DefaultGeometry(1)
	s := testSystem(1)
	var d1, d2 uint64
	// Same-cycle requests to two different banks overlap; the second
	// completes one burst after the first (bus serialization only).
	lineA := uint64(0)
	lineB := uint64(g.LinesPerRow) // next bank
	_, bA, _ := g.Map(lineA)
	_, bB, _ := g.Map(lineB)
	if bA == bB {
		t.Fatal("expected different banks")
	}
	s.Enqueue(request(0, lineA, &d1), 0)
	s.Enqueue(request(0, lineB, &d2), 0)
	runTicks(s, 0, 4000)
	serial := uint64(2 * 24 * 8)
	if d2 >= serial {
		t.Fatalf("no bank parallelism: second done at %d (serial would be %d)", d2, serial)
	}
	if d2 < d1+4*8 {
		t.Fatalf("bus can only move one burst at a time: %d then %d", d1, d2)
	}
}

func TestBusSerialization(t *testing.T) {
	g := DefaultGeometry(1)
	s := testSystem(1)
	// Eight same-cycle requests to eight different banks: all overlap in
	// the banks but the data bus serializes the bursts 4 DRAM cycles
	// apart.
	dones := make([]uint64, 8)
	for b := 0; b < 8; b++ {
		idx := b
		s.Enqueue(&Request{App: 0, LineAddr: uint64(b * g.LinesPerRow),
			Done: func(r *Request, now uint64) { dones[idx] = now }}, 0)
	}
	runTicks(s, 0, 8000)
	for b := 1; b < 8; b++ {
		if dones[b] < dones[b-1]+4*8 {
			t.Fatalf("bursts %d and %d overlap on the bus: %v", b-1, b, dones)
		}
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	s := testSystem(2)
	g := s.Geometry()
	var dHit, dConf uint64
	// Open row 0 of bank 0.
	var d0 uint64
	s.Enqueue(request(0, 0, &d0), 0)
	runTicks(s, 0, 400)
	// Older conflicting request vs younger row hit to the same bank: the
	// row hit should be served first under FR-FCFS.
	conflict := request(1, uint64(g.LinesPerRow*g.BanksPerChan), &dConf)
	hit := request(0, 1, &dHit)
	s.Enqueue(conflict, 400)
	s.Enqueue(hit, 401)
	runTicks(s, 408, 8000)
	if dHit >= dConf {
		t.Fatalf("FR-FCFS must serve the row hit first: hit %d conflict %d", dHit, dConf)
	}
}

func TestPriorityOverlay(t *testing.T) {
	s := testSystem(2)
	g := s.Geometry()
	// Saturate the bank with app 0 row hits, then insert one app 1
	// request; with priority for app 1 it must jump the queue.
	s.SetPriorityApp(1)
	var dPrio uint64
	var lastApp0 uint64
	for i := 0; i < 10; i++ {
		s.Enqueue(&Request{App: 0, LineAddr: uint64(i),
			Done: func(r *Request, now uint64) { lastApp0 = now }}, 0)
	}
	prio := &Request{App: 1, LineAddr: uint64(5 * g.LinesPerRow * g.BanksPerChan),
		Done: func(r *Request, now uint64) { dPrio = now }}
	s.Enqueue(prio, 0)
	runTicks(s, 0, 16000)
	if dPrio == 0 || lastApp0 == 0 {
		t.Fatal("requests did not complete")
	}
	if dPrio >= lastApp0 {
		t.Fatalf("priority app served at %d, after app 0 finished at %d", dPrio, lastApp0)
	}
}

func TestQueueingCycleAccounting(t *testing.T) {
	s := testSystem(2)
	// App 1 has priority but app 0's command went last; while app 1 has
	// an outstanding request, queueing cycles must accrue (Section 4.3).
	s.SetPriorityApp(1)
	var d0, d1 uint64
	s.Enqueue(request(0, 0, &d0), 0)
	runTicks(s, 0, 16) // app 0's command issues
	s.Enqueue(request(1, 1, &d1), 16)
	runTicks(s, 24, 4000)
	if s.QueueingCycles(1) == 0 {
		t.Fatal("no queueing cycles recorded for the priority app")
	}
	if s.QueueingCycles(0) != 0 {
		t.Fatal("non-priority app must not accrue queueing cycles")
	}
}

func TestInterferenceAccounting(t *testing.T) {
	s := testSystem(2)
	g := s.Geometry()
	// Two apps hammer the same bank with different rows: both should
	// accumulate interference cycles.
	for i := 0; i < 20; i++ {
		s.Enqueue(&Request{App: 0, LineAddr: uint64(2 * i * g.LinesPerRow * g.BanksPerChan)}, 0)
		s.Enqueue(&Request{App: 1, LineAddr: uint64((2*i + 1) * g.LinesPerRow * g.BanksPerChan)}, 0)
	}
	runTicks(s, 0, 40000)
	if s.InterferenceCycles(0) == 0 || s.InterferenceCycles(1) == 0 {
		t.Fatalf("interference cycles %v/%v", s.InterferenceCycles(0), s.InterferenceCycles(1))
	}
}

func TestNoInterferenceWhenAlone(t *testing.T) {
	s := testSystem(2)
	for i := 0; i < 20; i++ {
		s.Enqueue(&Request{App: 0, LineAddr: uint64(i)}, 0)
	}
	runTicks(s, 0, 40000)
	if s.InterferenceCycles(0) != 0 {
		t.Fatalf("app alone must see zero interference, got %v", s.InterferenceCycles(0))
	}
}

func TestReadQueueCapacity(t *testing.T) {
	s := testSystem(1)
	c := s.Channels()[0]
	n := 0
	for ; n < 1000; n++ {
		if !c.Enqueue(&Request{App: 0, LineAddr: uint64(n)}, 0) {
			break
		}
	}
	if n != 128 {
		t.Fatalf("read queue accepted %d requests, want 128 (Table 2)", n)
	}
}

func TestPostedWritesComplete(t *testing.T) {
	s := testSystem(1)
	c := s.Channels()[0]
	for i := 0; i < 40; i++ {
		if !c.Enqueue(&Request{App: 0, LineAddr: uint64(i * 1000), Write: true}, 0) {
			t.Fatalf("write %d rejected", i)
		}
	}
	runTicks(s, 0, 100000)
	if got := len(c.writeQ); got != 0 {
		t.Fatalf("%d writes still queued", got)
	}
}

func TestWritesDoNotStarveReads(t *testing.T) {
	s := testSystem(1)
	c := s.Channels()[0]
	for i := 0; i < 30; i++ {
		c.Enqueue(&Request{App: 0, LineAddr: uint64(i * 1000), Write: true}, 0)
	}
	var done uint64
	c.Enqueue(request(0, 5, &done), 0)
	runTicks(s, 0, 100000)
	if done == 0 {
		t.Fatal("read never completed")
	}
	if done > 2000 {
		t.Fatalf("read waited %d cycles behind writes", done)
	}
}

func TestGeometryMapRoundTrip(t *testing.T) {
	err := quick.Check(func(line uint64, channels uint8) bool {
		ch := int(channels%4) + 1
		g := DefaultGeometry(ch)
		c, b, _ := g.Map(line % (1 << 40))
		return c >= 0 && c < ch && b >= 0 && b < g.BanksPerChan
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeometrySequentialLinesShareRow(t *testing.T) {
	g := DefaultGeometry(1)
	_, b0, r0 := g.Map(0)
	for line := uint64(1); line < uint64(g.LinesPerRow); line++ {
		_, b, r := g.Map(line)
		if b != b0 || r != r0 {
			t.Fatalf("line %d left the row: bank %d row %d", line, b, r)
		}
	}
	_, _, rNext := g.Map(uint64(g.LinesPerRow))
	_, bNext, _ := g.Map(uint64(g.LinesPerRow))
	if bNext == b0 && rNext == r0 {
		t.Fatal("row boundary did not advance")
	}
}

func TestMultiChannelRouting(t *testing.T) {
	s := NewSystem(DDR31333(), DefaultGeometry(2), 1, func(int) Scheduler { return NewFRFCFS() })
	g := s.Geometry()
	// Lines in different channels must route to different controllers.
	a := s.ChannelFor(0)
	b := s.ChannelFor(uint64(g.LinesPerRow)) // next channel under our mapping
	if a == b {
		t.Fatal("expected distinct controllers")
	}
}

func TestResetQuantumStats(t *testing.T) {
	s := testSystem(2)
	s.SetPriorityApp(1)
	s.Enqueue(&Request{App: 0, LineAddr: 0}, 0)
	s.Enqueue(&Request{App: 1, LineAddr: 1 << 20}, 0)
	runTicks(s, 0, 2000)
	s.ResetQuantumStats()
	if s.QueueingCycles(1) != 0 || s.InterferenceCycles(0) != 0 || s.ReadsDone(0) != 0 {
		t.Fatal("quantum stats not cleared")
	}
}

func TestRequestTimestampMonotonic(t *testing.T) {
	s := testSystem(2)
	g := s.Geometry()
	stride := uint64(g.LinesPerRow * g.Channels * g.BanksPerChan)
	checked := 0
	check := func(r *Request, now uint64) {
		checked++
		if r.Start < r.Enqueue || r.Complete < r.Start || now < r.Complete {
			t.Errorf("non-monotonic timestamps: enqueue %d start %d complete %d done %d (app %d line %#x)",
				r.Enqueue, r.Start, r.Complete, now, r.App, r.LineAddr)
		}
		if r.QueueLatency() != r.Start-r.Enqueue || r.TotalLatency() != r.Complete-r.Enqueue {
			t.Errorf("latency getters disagree with timestamps: queue %d total %d", r.QueueLatency(), r.TotalLatency())
		}
	}
	// Mix row hits, conflicts and cross-app contention so requests wait in
	// every queueing regime the controller models.
	for i := 0; i < 8; i++ {
		s.Enqueue(&Request{App: i % 2, LineAddr: uint64(i) * stride, Done: check}, uint64(i))
	}
	runTicks(s, 0, 40000)
	if checked != 8 {
		t.Fatalf("only %d of 8 requests completed", checked)
	}
}

// TestTRASHoldsByConstruction: no command reads Timing.TRAS. A bank stays
// busy at least TRCD+TCL+TBurst bus cycles after an activate, and a
// precharge waits for the bank, so the ACT to PRE minimum holds only while
// that sum covers TRAS. A conflicting read behind an activate shows it.
func TestTRASHoldsByConstruction(t *testing.T) {
	tm := DDR31333()
	if sum := tm.TRCD + tm.TCL + tm.TBurst; sum < tm.TRAS {
		t.Fatalf("TRCD+TCL+TBurst = %d < TRAS = %d: the bank can precharge before tRAS", sum, tm.TRAS)
	}
	c := NewController(tm, DefaultGeometry(1), 0, 1, NewFRFCFS())
	g := c.geom
	act := &Request{App: 0, LineAddr: 0}
	pre := &Request{App: 0, LineAddr: uint64(g.LinesPerRow * g.BanksPerChan)} // same bank, next row
	c.Enqueue(act, 0)
	c.Enqueue(pre, 0)
	ratio := uint64(tm.CPUPerDRAM)
	for now := uint64(0); pre.Complete == 0; now += ratio {
		if now > 100_000 {
			t.Fatal("conflicting read never issued")
		}
		c.Tick(now)
	}
	if gap := pre.Start - act.Start; gap < uint64(tm.TRAS)*ratio {
		t.Fatalf("precharge %d CPU cycles after the activate, tRAS is %d", gap, uint64(tm.TRAS)*ratio)
	}
}

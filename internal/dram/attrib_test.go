package dram

import "testing"

// attribution returns c's attribution matrix as AddAttributionInto
// reports it into a trace's rows: victim-major, numApps+1 columns, the
// last of which the controller never fills.
func attribution(c *Controller) [][]uint64 {
	m := make([][]uint64, c.numApps)
	for j := range m {
		m[j] = make([]uint64, c.numApps+1)
	}
	c.AddAttributionInto(m)
	return m
}

// systemAttribution is attribution summed over s's channels.
func systemAttribution(s *System) [][]uint64 {
	m := make([][]uint64, s.numApps)
	for j := range m {
		m[j] = make([]uint64, s.numApps+1)
	}
	s.AddAttributionInto(m)
	return m
}

// rowSum returns the cycles in one attribution row.
func rowSum(row []uint64) uint64 {
	var n uint64
	for _, v := range row {
		n += v
	}
	return n
}

// contend hammers one bank per channel with alternating-row requests
// from two apps so both accumulate interference, with attribution
// enabled, and returns the reads once all have completed.
func contend(t *testing.T, s *System) []*Request {
	t.Helper()
	s.EnableAttribution()
	g := s.Geometry()
	stride := uint64(g.LinesPerRow * g.Channels * g.BanksPerChan)
	var reqs []*Request
	for i := 0; i < 20; i++ {
		for app := 0; app < 2; app++ {
			r := &Request{App: app, LineAddr: uint64(2*i+app) * stride}
			s.Enqueue(r, 0)
			reqs = append(reqs, r)
		}
	}
	runTicks(s, 0, 40000)
	for _, r := range reqs {
		if r.Complete == 0 || r.Complete > 40000 {
			t.Fatalf("app %d line %#x did not complete", r.App, r.LineAddr)
		}
	}
	return reqs
}

// TestAttributionMatchesInterferenceCycles: on one and two channels,
// each victim's attribution row sums to the InterfCycles of its
// completed reads — the ledger and the per-read view settle from the
// same bank charges.
func TestAttributionMatchesInterferenceCycles(t *testing.T) {
	for _, channels := range []int{1, 2} {
		s := NewSystem(DDR31333(), DefaultGeometry(channels), 2, func(int) Scheduler { return NewFRFCFS() })
		reqs := contend(t, s)
		var want [2]uint64
		for _, r := range reqs {
			want[r.App] += r.InterfCycles
		}
		m := systemAttribution(s)
		for app, row := range m {
			got := rowSum(row)
			if want[app] == 0 {
				t.Fatalf("%d channels: app %d saw no interference; contention setup broken", channels, app)
			}
			if got != want[app] {
				t.Errorf("%d channels: app %d: attributed %d, reads charged %d (%v)", channels, app, got, want[app], row)
			}
		}
		// With exactly two apps contending, every interference cycle is
		// charged to the other app: no self-attribution, nothing in the
		// trailing column.
		if m[0][0] != 0 || m[1][1] != 0 || m[0][2] != 0 || m[1][2] != 0 || m[0][1] == 0 || m[1][0] == 0 {
			t.Errorf("%d channels: attribution %v, want only cross-app charges", channels, m)
		}
	}
}

func TestRequestCausesSumToInterfCycles(t *testing.T) {
	s := testSystem(2)
	g := s.Geometry()
	stride := uint64(g.LinesPerRow * g.Channels * g.BanksPerChan)
	var reqs []*Request
	for i := 0; i < 8; i++ {
		r := &Request{App: i % 2, LineAddr: uint64(i) * stride, Causes: make([]uint64, 2)}
		reqs = append(reqs, r)
		s.Enqueue(r, 0)
	}
	runTicks(s, 0, 40000)
	interfered := 0
	for _, r := range reqs {
		if sum := rowSum(r.Causes); sum != r.InterfCycles {
			t.Errorf("app %d line %#x: causes sum %d != InterfCycles %d (%v)",
				r.App, r.LineAddr, sum, r.InterfCycles, r.Causes)
		}
		if r.InterfCycles > 0 {
			interfered++
		}
		if r.Causes[r.App] != 0 {
			t.Errorf("app %d charged itself: %v", r.App, r.Causes)
		}
	}
	if interfered == 0 {
		t.Fatal("no request saw interference; contention setup broken")
	}
}

// TestAttributionResetWithQuantumStats: a read queued across
// ResetQuantumStats contributes to the new quantum's attribution only
// the charges made after the reset. App 0's read occupies the bank while
// app 1's read to another row of it waits behind it; the reset lands
// mid-wait.
func TestAttributionResetWithQuantumStats(t *testing.T) {
	c := NewController(DDR31333(), DefaultGeometry(1), 0, 2, NewFRFCFS())
	c.EnableAttribution()
	g := c.geom
	rowStride := uint64(g.LinesPerRow * g.BanksPerChan)
	first := &Request{App: 0, LineAddr: 0}
	victim := &Request{App: 1, LineAddr: rowStride}
	ratio := uint64(c.timing.CPUPerDRAM)
	c.Enqueue(first, 0)
	c.Enqueue(victim, 0)
	now := uint64(0)
	for ; now < 4*ratio; now += ratio {
		c.Tick(now)
	}
	if first.Complete == 0 || victim.Start != 0 {
		t.Fatalf("setup: first read started at %d, victim at %d; want first issued, victim queued", first.Start, victim.Start)
	}
	before := attribution(c)[1][0]
	if before == 0 {
		t.Fatal("victim charged nothing before the reset; contention setup broken")
	}

	c.ResetQuantumStats()
	if m := attribution(c); rowSum(m[0])+rowSum(m[1]) != 0 {
		t.Fatalf("attribution right after the reset: %v, want all zero", m)
	}
	for ; victim.Start == 0; now += ratio {
		if now > 100_000 {
			t.Fatal("victim never issued")
		}
		c.Tick(now)
	}
	if row := attribution(c)[1]; row[0] == 0 || rowSum(row) != victim.InterfCycles-before {
		t.Fatalf("victim's row %v after the reset, want %d cycles: %d charged in all, %d before the reset",
			row, victim.InterfCycles-before, victim.InterfCycles, before)
	}
}

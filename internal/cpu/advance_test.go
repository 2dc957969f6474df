package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"asmsim/internal/workload"
)

// randStream is a reproducible random instruction stream: memory
// operations with probability mem, a fraction of them stores, a fraction
// of the loads dependent on the previous memory operation.
type randStream struct {
	rnd             *rand.Rand
	mem, write, dep float64
	addrs           uint64
}

func (s *randStream) Next(out *workload.Instr) {
	if s.rnd.Float64() >= s.mem {
		*out = workload.Instr{}
		return
	}
	w := s.rnd.Float64() < s.write
	*out = workload.Instr{
		IsMem:         true,
		Addr:          uint64(s.rnd.Int63n(int64(s.addrs))) * workload.LineSize,
		Write:         w,
		DependsOnPrev: !w && s.rnd.Float64() < s.dep,
	}
}

// stubParams shape a stubPort's random answers.
type stubParams struct {
	hit, reject, done, writeReject, long, boundary float64
	maxLat                                         int
}

// portCall is one logged port interaction. Probes carry no cycle: a core
// that runs ahead probes its private L1 before its owner reaches the cycle.
// A contact records how many fills and wake-ups its owner had delivered,
// so one made out of order with them shows.
type portCall struct {
	cycle       uint64
	kind        string
	addr, token uint64
	done, ok    bool
	lat         uint64
	events      int
}

// stubPort answers a core's memory operations from a seeded random
// source, in call order: two cores that make the same calls get the same
// answers, and a fill schedule that follows from them. As a PrivateL1 it
// serves the run-ahead core; refPort exposes the same answers through
// Read and Write only, for the reference core.
type stubPort struct {
	rnd    *rand.Rand
	p      stubParams
	calls  []portCall
	fills  []stubFill // unordered
	events int        // fills and wake-ups delivered
	done   func(token, now uint64)
	wakes  *[]uint64 // the owner's spurious wake-ups still to come
}

type stubFill struct{ token, due uint64 }

func newStubPort(seed int64, p stubParams) *stubPort {
	return &stubPort{rnd: rand.New(rand.NewSource(seed)), p: p}
}

func (p *stubPort) ProbeL1(_ int, addr uint64, write bool) (uint64, bool) {
	hit := p.rnd.Float64() < p.p.hit
	lat := 1 + uint64(p.rnd.Intn(3))
	p.calls = append(p.calls, portCall{kind: "probe", addr: addr, ok: hit, lat: lat, done: write})
	return lat, hit
}

func (p *stubPort) Read(_ int, addr, token, now uint64) (bool, uint64, bool) {
	c := portCall{cycle: now, kind: "read", addr: addr, token: token, events: p.events}
	switch r := p.rnd.Float64(); {
	case r < p.p.reject:
	case r < p.p.reject+p.p.done:
		c.ok, c.done, c.lat = true, true, 1+uint64(p.rnd.Intn(4))
	default:
		c.ok = true
		due := now + 1 + uint64(p.rnd.Intn(p.p.maxLat))
		switch r := p.rnd.Float64(); {
		case r < p.p.boundary:
			due = (now | forcedWakeMask) + 1 // the next forced-wake boundary
		case r < p.p.boundary+p.p.long:
			due = now + 30_000 + uint64(p.rnd.Intn(80_000))
		}
		p.fills = append(p.fills, stubFill{token, due})
	}
	p.calls = append(p.calls, c)
	return c.done, c.lat, c.ok
}

func (p *stubPort) Write(_ int, addr, now uint64) bool {
	ok := p.rnd.Float64() >= p.p.writeReject
	p.calls = append(p.calls, portCall{cycle: now, kind: "write", addr: addr, ok: ok, events: p.events})
	return ok
}

// Bounds: the fill bound is the earliest scheduled fill; a contact runs
// in place before the next spurious wake-up or fill, the only events a
// stub port has.
func (p *stubPort) Bounds(int) (fill, contact uint64) {
	fill = p.nextFill()
	contact = fill
	if len(*p.wakes) > 0 {
		contact = min(contact, (*p.wakes)[0])
	}
	return fill, contact
}

func (p *stubPort) nextFill() uint64 {
	next := ^uint64(0)
	for _, f := range p.fills {
		next = min(next, f.due)
	}
	return next
}

// deliver completes every fill due at now, in scheduling order.
func (p *stubPort) deliver(now uint64) {
	kept := p.fills[:0]
	var due []uint64
	for _, f := range p.fills {
		if f.due == now {
			due = append(due, f.token)
		} else {
			kept = append(kept, f)
		}
	}
	p.fills = kept
	for _, tok := range due {
		p.events++
		p.done(tok, now)
	}
}

// refPort hides stubPort's PrivateL1 methods: the reference core sees a
// plain MemPort, whose Read and Write probe the L1 first.
type refPort struct{ p *stubPort }

func (r refPort) Read(app int, addr, token, now uint64) (bool, uint64, bool) {
	if lat, hit := r.p.ProbeL1(app, addr, false); hit {
		return true, lat, true
	}
	return r.p.Read(app, addr, token, now)
}

func (r refPort) Write(app int, addr, now uint64) bool {
	if _, hit := r.p.ProbeL1(app, addr, true); hit {
		return true
	}
	return r.p.Write(app, addr, now)
}

// advanceCase is one random run of TestAdvanceMatchesReference.
type advanceCase struct {
	seed          int64
	window, width int
	stream        randStream
	port          stubParams
	wakes         []uint64 // cycles of spurious Wake calls (sorted)
	chunks        []uint64 // owner bounds: Advance never runs past one
	stopEvery     uint64   // OnRetire asks to stop every ~stopEvery instructions
	end           uint64
}

// coreState is what the owner of a core can observe at a chunk boundary.
type coreState struct {
	Cycle                                 uint64
	Retired, Loads, Stores, Stall, Forced uint64
}

// advanceTrace is everything a run produces.
type advanceTrace struct {
	states  []coreState
	retires [][2]uint64 // (cycle, retired) of every retiring cycle
	calls   []portCall
}

func (tc *advanceCase) newStream() *randStream {
	s := tc.stream
	s.rnd = rand.New(rand.NewSource(tc.seed))
	return &s
}

// runReference ticks the per-cycle reference core through every cycle,
// delivering fills and wakes before each Tick.
func (tc *advanceCase) runReference() advanceTrace {
	var tr advanceTrace
	port := newStubPort(tc.seed+1, tc.port)
	c := newRefCore(0, tc.newStream(), refPort{port}, tc.window, tc.width)
	port.done = c.Complete
	wakes, chunks := tc.wakes, tc.chunks
	for now := uint64(0); now < tc.end; now++ {
		port.deliver(now)
		for len(wakes) > 0 && wakes[0] == now {
			port.events++
			c.Wake(now)
			wakes = wakes[1:]
		}
		r := c.Retired()
		c.Tick(now)
		if c.Retired() != r {
			tr.retires = append(tr.retires, [2]uint64{now, c.Retired()})
		}
		if now+1 == chunks[0] {
			tr.states = append(tr.states, coreState{now + 1, c.Retired(), c.Loads(), c.Stores(), c.MemStallCycles(now + 1), c.ForcedWakes()})
			chunks = chunks[1:]
		}
	}
	tr.calls = port.calls
	return tr
}

// runAdvance drives Core the way sim.System does: jump to the earliest of
// the core's NextCycle, a due fill, a wake and the chunk bound, deliver
// what is due, and Advance the core if it is due.
func (tc *advanceCase) runAdvance() advanceTrace {
	var tr advanceTrace
	port := newStubPort(tc.seed+1, tc.port)
	c := New(0, tc.newStream(), port, tc.window, tc.width)
	port.done = c.Complete
	wakes := tc.wakes
	port.wakes = &wakes
	goal := tc.stopEvery
	c.OnRetire(func(cycle, retired uint64) bool {
		tr.retires = append(tr.retires, [2]uint64{cycle, retired})
		if retired < goal {
			return false
		}
		goal = retired + tc.stopEvery/2 + uint64(len(tr.retires))%tc.stopEvery
		return true
	})
	for now, i := uint64(0), 0; i < len(tc.chunks); {
		bound := tc.chunks[i]
		t := min(c.NextCycle(), port.nextFill(), bound)
		if len(wakes) > 0 {
			t = min(t, wakes[0])
		}
		t = max(t, now)
		if t == bound {
			now = t
			tr.states = append(tr.states, coreState{t, c.Retired(), c.Loads(), c.Stores(), c.MemStallCycles(t), c.ForcedWakes()})
			i++
			continue
		}
		port.deliver(t)
		for len(wakes) > 0 && wakes[0] == t {
			port.events++
			c.Wake(t)
			wakes = wakes[1:]
		}
		if c.NextCycle() == t {
			c.Advance(t, bound)
		}
		now = t + 1
	}
	tr.calls = port.calls
	return tr
}

func randomAdvanceCase(seed int64) *advanceCase {
	r := rand.New(rand.NewSource(seed))
	pick := func(xs ...float64) float64 { return xs[r.Intn(len(xs))] }
	tc := &advanceCase{
		seed:   seed,
		window: []int{4, 8, 32, 128}[r.Intn(4)],
		width:  1 + r.Intn(4),
		stream: randStream{
			mem: pick(0.02, 0.2, 0.5, 0.9), write: pick(0, 0.2, 0.6),
			dep: pick(0, 0.3, 0.9), addrs: uint64(1 + r.Intn(4096)),
		},
		port: stubParams{
			hit: pick(0, 0.5, 0.9, 0.99), reject: pick(0, 0.05, 0.3), done: pick(0, 0.2),
			writeReject: pick(0, 0.1, 0.5), long: pick(0, 0.002, 0.05), boundary: pick(0, 0.01),
			maxLat: []int{1 + r.Intn(400), 20_000 + r.Intn(50_000)}[r.Intn(2)],
		},
		stopEvery: uint64(50 + r.Intn(5000)),
		end:       2*ForcedWakeInterval + uint64(r.Intn(ForcedWakeInterval)),
	}
	gap := []int{300, 3000, 100_000}[r.Intn(3)]
	for w := uint64(r.Intn(gap)); w < tc.end; w += 1 + uint64(r.Intn(gap)) {
		if r.Intn(8) == 0 {
			w = (w | forcedWakeMask) + 1 // a wake on a forced-wake boundary
		}
		tc.wakes = append(tc.wakes, w)
	}
	for b := uint64(1 + r.Intn(20_000)); b < tc.end; b += 1 + uint64(r.Intn(20_000)) {
		tc.chunks = append(tc.chunks, b)
	}
	tc.chunks = append(tc.chunks, tc.end)
	return tc
}

// TestAdvanceMatchesReference holds Core — running ahead of its owner
// between contacts, with a window that tracks only its slow instructions —
// to the per-cycle core it replaced (refCore), over random streams (memory
// fraction, stores, dependent loads), windows and widths, and a port that
// answers at random: hit latencies of one to three cycles, misses that are
// refused, done at once, or filled after a random latency — some far
// past, some exactly on, a forced-wake boundary — write rejections, and
// spurious wake-ups, some on boundaries. At every owner bound and at the
// end the retired, load, store, memory-stall and forced-wake counts must
// match, and so must every retiring cycle and the exact sequence of port
// calls, contacts with their cycles.
func TestAdvanceMatchesReference(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 12
	}
	var forced uint64
	for seed := int64(0); seed <= int64(n); seed++ {
		tc := randomAdvanceCase(seed)
		if seed == 0 {
			// Strand the core: sparse, very slow misses, half the contacts
			// refused and no spurious wake-ups, so a core asleep on a
			// refused load behind a pending head is retried by the
			// failsafe long before a fill arrives.
			tc.window, tc.stream.mem, tc.stream.dep = 32, 0.05, 0
			tc.port = stubParams{reject: 0.5, maxLat: 200_000}
			tc.wakes = nil
		}
		want, got := tc.runReference(), tc.runAdvance()
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"owner-visible counts", got.states, want.states},
			{"retiring cycles", got.retires, want.retires},
			{"port calls", got.calls, want.calls},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("seed %d (%+v): %s differ from the per-cycle reference\n%s", seed, *tc, f.name, firstDiff(f.got, f.want))
			}
		}
		forced += want.states[len(want.states)-1].Forced
	}
	if forced == 0 {
		t.Error("no run exercised a productive forced wake")
	}
}

// firstDiff renders the first differing element of two equal-typed slices.
func firstDiff(got, want any) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < min(g.Len(), w.Len()); i++ {
		if !reflect.DeepEqual(g.Index(i).Interface(), w.Index(i).Interface()) {
			return fmt.Sprintf("at %d: got %+v, want %+v", i, g.Index(i).Interface(), w.Index(i).Interface())
		}
	}
	return fmt.Sprintf("lengths: got %d, want %d", g.Len(), w.Len())
}

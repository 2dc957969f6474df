// Package cpu models the processor cores that drive the memory hierarchy.
//
// The paper's substrate is an in-house out-of-order simulator with a Pin
// front-end (Table 2: 3-wide issue, 128-entry instruction window). For the
// phenomena this paper studies, the core model must reproduce three
// behaviours of an out-of-order processor:
//
//  1. independent cache misses overlap (memory-level parallelism bounded by
//     the instruction window and MSHRs);
//  2. dependent loads serialize (pointer chasing);
//  3. retirement is in-order, so a miss at the window head stalls commit.
//
// Core implements exactly that: an instruction window filled at the fetch
// width and drained in order at the retire width, with loads completing
// asynchronously through a MemPort. A core whose port exposes its private
// L1 (PrivateL1) runs ahead of its owner's clock between contacts.
package cpu

import "asmsim/internal/workload"

// InstrSource produces the instruction stream a core executes. The
// synthetic workload generators implement it; tests substitute
// hand-built streams.
type InstrSource interface {
	// Next fills in the next instruction of the stream.
	Next(out *workload.Instr)
}

// MemPort is the core's interface to its memory hierarchy (implemented by
// the sim package).
type MemPort interface {
	// Read issues a load for a byte address. token identifies the window
	// slot for the completion callback. It returns:
	//   ok=false    — resources exhausted (MSHR/queue full); retry later;
	//   done=true   — the access completes at now+lat (e.g., an L1 hit);
	//   done=false  — asynchronous; Complete(token) will be called later.
	Read(app int, addr uint64, token uint64, now uint64) (done bool, lat uint64, ok bool)
	// Write posts a store for a byte address. It returns false when the
	// store cannot be accepted this cycle.
	Write(app int, addr uint64, now uint64) bool
}

// PrivateL1 is a MemPort whose first-level cache is private to the core,
// detected by New: the core probes its L1 itself and runs ahead of its
// owner until a contact — an access that misses the L1 and so touches
// state the cores share. Its Read and Write are the contacts: the miss
// path, called only after ProbeL1 missed.
type PrivateL1 interface {
	MemPort
	// ProbeL1 performs an access in the core's L1 if it hits there and
	// returns the hit latency; a miss changes nothing any core reads.
	ProbeL1(app int, addr uint64, write bool) (lat uint64, hit bool)
	// Bounds returns, for app's core, a lower bound on the first cycle a
	// fill for its misses so far can reach it, and the first cycle from
	// which its contacts must wait for the owner: before it nothing else
	// happens in the memory system, so a contact runs as the core meets it.
	Bounds(app int) (fill, contact uint64)
}

// plainPort gives a plain MemPort the PrivateL1 shape: every memory
// operation is a contact, made in the owner's cycle only.
type plainPort struct{ MemPort }

func (plainPort) ProbeL1(int, uint64, bool) (uint64, bool) { return 0, false }
func (plainPort) Bounds(int) (uint64, uint64)              { return 0, 0 }

// slowEntry is a load that may not be ready the cycle after it issues: one
// waiting for a fill, or a hit slower than a cycle.
type slowEntry struct {
	token   uint64
	doneAt  uint64
	pending bool
}

// Core is one processor core executing a synthetic instruction stream.
type Core struct {
	id   int
	gen  InstrSource
	port PrivateL1

	// The window holds size instructions, tokens next-size to next-1. All
	// but slow loads are ready the cycle after they issue, before
	// retirement can reach them. A slow load keeps its entry in
	// slots[token&mask] (at least window long, so a token match is its).
	slots   []slowEntry
	mask    uint64
	size    int
	window  int
	next    uint64 // monotonically increasing instruction token
	slowEnd uint64 // one past the latest slow load's token
	width   int

	cur     workload.Instr
	haveCur bool   // cur was drawn and not issued yet
	missed  bool   // cur missed the L1; its contact comes next
	lastMem uint64 // token of the latest memory instruction, for dependent loads

	// at is NextCycle: the first cycle not run or, asleep, the next
	// forced-wake boundary. Paused before a contact (mid), issued
	// instructions of cycle at are out. An Advance runs before bound and
	// makes contacts before cbound (see PrivateL1.Bounds).
	at                   uint64
	mid, stop            bool
	issued               int
	limit, bound, cbound uint64

	onRetire func(cycle, retired uint64) bool

	retired  uint64
	loads    uint64
	stores   uint64
	memStall uint64 // cycles retirement was blocked by a pending memory op

	// blocked: the head is waiting on an asynchronous memory completion and
	// fetch cannot proceed, so nothing can happen until a fill wakes the
	// core. A blocked core is asleep: every cycle from sleepFrom on is a
	// memory-stall cycle that Wake charges to memStall in one step.
	blocked     bool
	sleepFrom   uint64 // first cycle not yet charged while blocked
	forcedWakes uint64
}

// New returns a core with the given window size and fetch/retire width.
func New(id int, gen InstrSource, port MemPort, windowSize, width int) *Core {
	if windowSize <= 0 || width <= 0 {
		panic("cpu: window size and width must be positive")
	}
	l1, ok := port.(PrivateL1)
	if !ok {
		l1 = plainPort{port}
	}
	n := 1
	for n < windowSize {
		n *= 2
	}
	return &Core{
		id: id, gen: gen, port: l1,
		slots: make([]slowEntry, n), mask: uint64(n - 1),
		window: windowSize, width: width,
	}
}

// ID returns the core's id.
func (c *Core) ID() int { return c.id }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Loads returns the number of issued loads.
func (c *Core) Loads() uint64 { return c.loads }

// Stores returns the number of issued stores.
func (c *Core) Stores() uint64 { return c.stores }

// MemStallCycles returns the cycles before upTo during which retirement
// was completely blocked by an outstanding memory instruction at the window
// head (the memory stall time used for MISE's alpha). upTo is the first
// cycle not yet run; a sleeping core's stall cycles since it blocked are
// included without waking it.
func (c *Core) MemStallCycles(upTo uint64) uint64 {
	if c.blocked && upTo > c.sleepFrom {
		return c.memStall + (upTo - c.sleepFrom)
	}
	return c.memStall
}

// ForcedWakeInterval is the period of the sleep failsafe: a blocked core
// forces one retire/fetch attempt whenever the cycle counter crosses a
// multiple of this interval, bounding the damage of a missed wake-up.
const ForcedWakeInterval = 1 << 16

// forcedWakeMask selects the low bits that are zero on a failsafe cycle.
const forcedWakeMask = ForcedWakeInterval - 1

// OnRetire installs fn, called for each cycle that retires instructions
// with the retired count after it; true ends the Advance after the cycle.
func (c *Core) OnRetire(fn func(cycle, retired uint64) bool) { c.onRetire = fn }

// NextCycle returns the cycle at which the core next needs its owner: its
// paused contact or bound or, asleep, its next forced-wake boundary.
func (c *Core) NextCycle() uint64 { return c.at }

// Tick advances the core by one cycle: retire completed instructions in
// order, then fetch/issue new ones. On a blocked core it is a no-op except
// on a forced-wake boundary, so a caller may tick a sleeping core every
// cycle or only on those boundaries.
func (c *Core) Tick(now uint64) { c.Advance(now, now+1) }

// Advance runs cycle now, the owner's, making its contacts at once; then,
// on its own, every later cycle before limit and the fill bound, until a
// contact it may not make yet (the owner resumes it there), it blocks, or
// the OnRetire hook asks. Fills for cycle now must arrive first. It does
// nothing unless the core is due at now (NextCycle).
func (c *Core) Advance(now, limit uint64) {
	if c.at > now {
		return
	}
	forced := c.blocked
	if forced {
		// Failsafe against a missed wake-up: charge the slept cycles, then
		// force one retire/fetch attempt. Only a productive wake — one
		// that retires or issues something — indicates a genuinely missed
		// wake-up, and only those count toward ForcedWakes.
		c.Wake(now)
	}
	r0, n0 := c.retired, c.next
	issued := 0
	if c.mid {
		c.mid, issued = false, c.issued
	} else {
		c.retire(now)
	}
	stall := c.fetch(now, now, issued)
	if forced && (c.retired != r0 || c.next != n0) {
		c.forcedWakes++
	}
	if c.endCycle(stall, now) {
		return
	}
	c.limit = limit
	c.bounds()
	for t := now + 1; t < c.bound; t++ {
		c.retire(t)
		if stall := c.fetch(t, now, 0); stall == stallPause || c.endCycle(stall, t) {
			return
		}
	}
	c.at = max(c.bound, now+1)
}

// bounds refreshes the Advance's bounds from the port; a contact moves them.
func (c *Core) bounds() {
	fill, contact := c.port.Bounds(c.id)
	c.bound, c.cbound = min(c.limit, fill), contact
}

// endCycle reports whether the run ends with cycle now, and moves the
// clock past now if so: the core blocks — the head is an outstanding miss
// and fetch cannot proceed (window full, MSHRs exhausted, or a dependent
// load; write-queue rejections clear on DRAM ticks, not fills) — or the
// OnRetire hook asked.
func (c *Core) endCycle(stall stallKind, now uint64) bool {
	if (stall == stallMem || c.size == c.window) && c.size > 0 && c.pendingAt(c.next-uint64(c.size)) {
		c.blocked, c.sleepFrom = true, now+1
		c.at = (now + 1 + forcedWakeMask) &^ forcedWakeMask
	} else if c.stop {
		c.at = now + 1
	} else {
		return false
	}
	c.stop = false
	return true
}

// pendingAt reports whether instruction tok is a load waiting for a fill.
func (c *Core) pendingAt(tok uint64) bool {
	e := &c.slots[tok&c.mask]
	return e.token == tok && e.pending
}

// Wake ends the core's sleep after any memory-system progress for it
// (fills, MSHR releases) and charges the cycles it slept — sleepFrom up to
// but excluding now — as memory-stall cycles, one per cycle a per-cycle
// Tick of a blocked core would have counted. Wake-ups for cycle now must
// arrive before Advance(now): the core runs that cycle awake. Waking an
// awake core does nothing; one before sleepFrom charges nothing.
func (c *Core) Wake(now uint64) {
	if !c.blocked {
		return
	}
	if now > c.sleepFrom {
		c.memStall += now - c.sleepFrom
	}
	c.at = max(now, c.sleepFrom)
	c.blocked = false
}

// Blocked reports whether the core is asleep waiting for a memory
// completion: until a Wake or Complete, nothing but a forced-wake boundary
// can change its state, so its owner need not Tick it.
func (c *Core) Blocked() bool { return c.blocked }

// ForcedWakes returns how often the failsafe found runnable work on a
// blocked core (0 in a correct run: every wake-up source must call Wake
// or Complete, so the failsafe should only ever find nothing to do).
func (c *Core) ForcedWakes() uint64 { return c.forcedWakes }

// stallKind classifies why fetch stopped this cycle.
type stallKind uint8

const (
	stallNone  stallKind = iota
	stallMem             // MSHR full or dependent load outstanding
	stallWrite           // write path rejected the store
	stallPause           // a contact the core may not make yet
)

// retire retires up to width ready instructions in order at cycle now. A
// cycle that retires nothing from a non-empty window is a memory-stall
// cycle: only a slow load can be unready at the head.
func (c *Core) retire(now uint64) {
	head, n := c.next-uint64(c.size), min(c.width, c.size)
	for tok := head; tok < head+uint64(n) && tok < c.slowEnd; tok++ {
		if e := &c.slots[tok&c.mask]; e.token == tok && (e.pending || e.doneAt > now) {
			n = int(tok - head)
			break
		}
	}
	if n == 0 {
		if c.size > 0 {
			c.memStall++
		}
		return
	}
	c.size -= n
	c.retired += uint64(n)
	if c.onRetire != nil {
		c.stop = c.onRetire(now, c.retired)
	}
}

// fetch issues instructions at cycle t, issued of them already, up to the
// width while the window has room. now is the owner's cycle.
func (c *Core) fetch(t, now uint64, issued int) stallKind {
	room := min(c.width-issued, c.window-c.size)
	k := 0
	stall := stallNone
	for ; k < room; k++ {
		if c.haveCur {
			c.haveCur = false
		} else {
			c.gen.Next(&c.cur)
		}
		if c.cur.IsMem {
			if stall = c.issueMem(t, now, c.next+uint64(k)); stall != stallNone {
				c.haveCur = true
				if stall == stallPause {
					c.at, c.mid, c.issued = t, true, issued+k
				}
				break
			}
		}
	}
	c.next += uint64(k)
	c.size += k
	return stall
}

// issueMem performs cur's access, instruction tok, at cycle t: in the L1
// when it hits there, else as a contact — at once in the owner's cycle now
// or before the contact bound (then refreshing the bounds), else by
// pausing the core.
func (c *Core) issueMem(t, now, tok uint64) stallKind {
	in := &c.cur
	if in.DependsOnPrev && c.pendingAt(c.lastMem) {
		return stallMem
	}
	if !c.missed {
		if lat, hit := c.port.ProbeL1(c.id, in.Addr, in.Write); hit {
			c.issued1(tok, t, true, lat, in.Write)
			return stallNone
		}
		c.missed = true
	}
	if t != now && t >= c.cbound {
		return stallPause
	}
	c.missed = false
	stall := stallNone
	switch {
	case in.Write && c.port.Write(c.id, in.Addr, t):
		c.issued1(tok, t, true, 1, true)
	case in.Write:
		stall = stallWrite
	default:
		if done, lat, ok := c.port.Read(c.id, in.Addr, tok, t); ok {
			c.issued1(tok, t, done, lat, false)
		} else {
			stall = stallMem
		}
	}
	if t != now {
		c.bounds()
	}
	return stall
}

// issued1 accounts an issued memory instruction: a store, or a load done
// at t+lat or (done=false) waiting for Complete.
func (c *Core) issued1(tok, t uint64, done bool, lat uint64, write bool) {
	if write {
		c.stores++
	} else if c.loads++; !done || lat > 1 {
		c.slots[tok&c.mask] = slowEntry{token: tok, doneAt: t + lat, pending: !done}
		c.slowEnd = tok + 1
	}
	c.lastMem = tok
}

// Complete finishes the asynchronous load identified by token at cycle
// now. Stale tokens (already-retired instructions) are ignored.
func (c *Core) Complete(token uint64, now uint64) {
	e := &c.slots[token&c.mask]
	if e.token != token || !e.pending {
		return
	}
	e.pending = false
	e.doneAt = now
	c.Wake(now)
}

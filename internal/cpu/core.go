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
// Core implements exactly that: a ring-buffer instruction window filled at
// the fetch width and drained in order at the retire width, with loads
// completing asynchronously through a MemPort.
package cpu

import "asmsim/internal/workload"

// InstrSource produces the instruction stream a core executes. The
// synthetic workload generators implement it, as do recorded-trace
// replayers (internal/trace).
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

// winEntry is one instruction-window slot.
type winEntry struct {
	token   uint64
	doneAt  uint64
	pending bool
	isMem   bool
}

// Core is one processor core executing a synthetic instruction stream.
type Core struct {
	id   int
	gen  InstrSource
	port MemPort

	win   []winEntry
	head  int
	size  int
	next  uint64 // monotonically increasing instruction token
	width int

	cur     workload.Instr
	haveCur bool

	lastMemSlot int // window slot of the most recent memory instruction
	haveLastMem bool

	retired  uint64
	loads    uint64
	stores   uint64
	memStall uint64 // cycles retirement was blocked by a pending memory op

	// blocked short-circuits Tick while the head is waiting on an
	// asynchronous memory completion and fetch cannot proceed: nothing
	// can happen until a fill wakes the core. A blocked core is asleep:
	// it needs no Tick, and every cycle from sleepFrom on is a memory-stall
	// cycle that wake charges to memStall in one step.
	blocked     bool
	sleepFrom   uint64 // first cycle not yet charged while blocked
	forcedWakes uint64
}

// New returns a core with the given window size and fetch/retire width.
func New(id int, gen InstrSource, port MemPort, windowSize, width int) *Core {
	if windowSize <= 0 || width <= 0 {
		panic("cpu: window size and width must be positive")
	}
	return &Core{
		id:          id,
		gen:         gen,
		port:        port,
		win:         make([]winEntry, windowSize),
		width:       width,
		lastMemSlot: -1,
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
// cycle not yet ticked; a sleeping core's stall cycles since it blocked are
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
// The owner of a sleeping core (sim.System) must still Tick it on these
// boundaries, and its skip-ahead fast path must never jump across one, so
// the failsafe observes the identical cycle sequence with skipping on or
// off.
const ForcedWakeInterval = 1 << 16

// forcedWakeMask selects the low bits that are zero on a failsafe cycle.
const forcedWakeMask = ForcedWakeInterval - 1

// Tick advances the core by one cycle: retire completed instructions in
// order, then fetch/issue new ones. On a blocked core it is a no-op except
// on a forced-wake boundary, so a caller may tick a sleeping core every
// cycle or only on those boundaries.
func (c *Core) Tick(now uint64) {
	if c.blocked {
		if now&forcedWakeMask != 0 {
			return
		}
		// Failsafe against a missed wake-up: charge the slept cycles, then
		// force one retire/fetch attempt. Only a productive wake — one
		// that retires or issues something — indicates a genuinely missed
		// wake-up, and only those count toward ForcedWakes; an attempt
		// that finds nothing to do re-blocks with no other state change.
		c.Wake(now)
		r0, n0 := c.retired, c.next
		c.retire(now)
		stall := c.fetch(now)
		if c.retired != r0 || c.next != n0 {
			c.forcedWakes++
		}
		c.reblock(stall, now)
		return
	}
	c.retire(now)
	c.reblock(c.fetch(now), now)
}

// reblock puts the core back to sleep when nothing can change without a
// memory completion: the head is an outstanding miss and fetch cannot
// proceed (window full, MSHRs exhausted, or a dependent load). Write-queue
// rejections are excluded — they clear on DRAM ticks, not fills.
func (c *Core) reblock(stall stallKind, now uint64) {
	if c.size > 0 && c.win[c.head].pending {
		if c.size == len(c.win) || stall == stallMem {
			c.blocked = true
			c.sleepFrom = now + 1
		}
	}
}

// Wake ends the core's sleep after any memory-system progress for it
// (fills, MSHR releases) and charges the cycles it slept — sleepFrom up to
// but excluding now — as memory-stall cycles, one per cycle a per-cycle
// Tick of a blocked core would have counted. Wake-ups for cycle now must
// arrive before Tick(now): the core runs that cycle awake. Waking an awake
// core does nothing, so several wake-ups may land in one cycle.
func (c *Core) Wake(now uint64) {
	if !c.blocked {
		return
	}
	// A wake-up in the very cycle the core blocked (after its Tick) finds
	// sleepFrom ahead of now: nothing was slept.
	if now > c.sleepFrom {
		c.memStall += now - c.sleepFrom
	}
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
)

func (c *Core) retire(now uint64) {
	n := 0
	for n < c.width && c.size > 0 {
		e := &c.win[c.head]
		if e.pending || e.doneAt > now {
			break
		}
		// head and size stay below len(win), so a conditional wrap
		// replaces the integer modulo on this per-retire hot path.
		if c.head++; c.head == len(c.win) {
			c.head = 0
		}
		c.size--
		c.retired++
		n++
	}
	if n == 0 && c.size > 0 {
		e := &c.win[c.head]
		if e.isMem && (e.pending || e.doneAt > now) {
			c.memStall++
		}
	}
}

func (c *Core) fetch(now uint64) stallKind {
	issued := 0
	for issued < c.width {
		if c.size == len(c.win) {
			return stallNone
		}
		if !c.haveCur {
			c.gen.Next(&c.cur)
			c.haveCur = true
		}
		in := &c.cur
		if in.IsMem && in.DependsOnPrev && c.lastMemPending() {
			return stallMem
		}
		slot := c.head + c.size // < 2*len(win); wrap without modulo
		if slot >= len(c.win) {
			slot -= len(c.win)
		}
		token := c.next
		e := &c.win[slot]
		switch {
		case !in.IsMem:
			*e = winEntry{token: token, doneAt: now + 1}
		case in.Write:
			if !c.port.Write(c.id, in.Addr, now) {
				return stallWrite
			}
			c.stores++
			*e = winEntry{token: token, doneAt: now + 1, isMem: true}
			c.lastMemSlot, c.haveLastMem = slot, true
		default:
			done, lat, ok := c.port.Read(c.id, in.Addr, token, now)
			if !ok {
				return stallMem
			}
			c.loads++
			if done {
				*e = winEntry{token: token, doneAt: now + lat, isMem: true}
			} else {
				*e = winEntry{token: token, pending: true, isMem: true}
			}
			c.lastMemSlot, c.haveLastMem = slot, true
		}
		c.next++
		c.size++
		c.haveCur = false
		issued++
	}
	return stallNone
}

// lastMemPending reports whether the most recent memory instruction is
// still outstanding (used to serialize dependent loads).
func (c *Core) lastMemPending() bool {
	if !c.haveLastMem {
		return false
	}
	e := &c.win[c.lastMemSlot]
	// The slot may have been retired and reused by a younger instruction;
	// in that case the original access completed long ago.
	if !c.slotLive(c.lastMemSlot) {
		return false
	}
	return e.pending
}

// slotLive reports whether slot currently holds an un-retired instruction.
func (c *Core) slotLive(slot int) bool {
	if c.size == 0 {
		return false
	}
	end := (c.head + c.size) % len(c.win)
	if c.head < end {
		return slot >= c.head && slot < end
	}
	return slot >= c.head || slot < end
}

// Complete finishes the asynchronous load identified by token at cycle
// now. Stale tokens (already-retired slots) are ignored.
func (c *Core) Complete(token uint64, now uint64) {
	slot := int(token % uint64(len(c.win)))
	e := &c.win[slot]
	if e.token != token || !e.pending {
		return
	}
	e.pending = false
	e.doneAt = now
	c.Wake(now)
}

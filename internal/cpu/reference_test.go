package cpu

import "asmsim/internal/workload"

// refEntry is one instruction-window slot.
type refEntry struct {
	token   uint64
	doneAt  uint64
	pending bool
	isMem   bool
}

// refCore is the per-cycle core this package shipped before cores ran
// ahead between contacts: one Tick retires, then fetches, one cycle, with a
// window slot written for every instruction and every memory operation
// sent through the MemPort. It is kept verbatim (bar its name) as the
// reference TestAdvanceMatchesReference holds Core to.
type refCore struct {
	id   int
	gen  InstrSource
	port MemPort

	win   []refEntry
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

// newRefCore returns a reference core with the given window size and
// fetch/retire width.
func newRefCore(id int, gen InstrSource, port MemPort, windowSize, width int) *refCore {
	if windowSize <= 0 || width <= 0 {
		panic("cpu: window size and width must be positive")
	}
	return &refCore{
		id:          id,
		gen:         gen,
		port:        port,
		win:         make([]refEntry, windowSize),
		width:       width,
		lastMemSlot: -1,
	}
}

// ID returns the core's id.
func (c *refCore) ID() int { return c.id }

// Retired returns the number of retired instructions.
func (c *refCore) Retired() uint64 { return c.retired }

// Loads returns the number of issued loads.
func (c *refCore) Loads() uint64 { return c.loads }

// Stores returns the number of issued stores.
func (c *refCore) Stores() uint64 { return c.stores }

// MemStallCycles returns the cycles before upTo during which retirement
// was completely blocked by an outstanding memory instruction at the window
// head (the memory stall time used for MISE's alpha). upTo is the first
// cycle not yet ticked; a sleeping core's stall cycles since it blocked are
// included without waking it.
func (c *refCore) MemStallCycles(upTo uint64) uint64 {
	if c.blocked && upTo > c.sleepFrom {
		return c.memStall + (upTo - c.sleepFrom)
	}
	return c.memStall
}

// Tick advances the core by one cycle: retire completed instructions in
// order, then fetch/issue new ones. On a blocked core it is a no-op except
// on a forced-wake boundary, so a caller may tick a sleeping core every
// cycle or only on those boundaries.
func (c *refCore) Tick(now uint64) {
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
func (c *refCore) reblock(stall stallKind, now uint64) {
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
func (c *refCore) Wake(now uint64) {
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
func (c *refCore) Blocked() bool { return c.blocked }

// ForcedWakes returns how often the failsafe found runnable work on a
// blocked core (0 in a correct run: every wake-up source must call Wake
// or Complete, so the failsafe should only ever find nothing to do).
func (c *refCore) ForcedWakes() uint64 { return c.forcedWakes }

func (c *refCore) retire(now uint64) {
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

func (c *refCore) fetch(now uint64) stallKind {
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
			*e = refEntry{token: token, doneAt: now + 1}
		case in.Write:
			if !c.port.Write(c.id, in.Addr, now) {
				return stallWrite
			}
			c.stores++
			*e = refEntry{token: token, doneAt: now + 1, isMem: true}
			c.lastMemSlot, c.haveLastMem = slot, true
		default:
			done, lat, ok := c.port.Read(c.id, in.Addr, token, now)
			if !ok {
				return stallMem
			}
			c.loads++
			if done {
				*e = refEntry{token: token, doneAt: now + lat, isMem: true}
			} else {
				*e = refEntry{token: token, pending: true, isMem: true}
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
func (c *refCore) lastMemPending() bool {
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
func (c *refCore) slotLive(slot int) bool {
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
func (c *refCore) Complete(token uint64, now uint64) {
	slot := int(token % uint64(len(c.win)))
	e := &c.win[slot]
	if e.token != token || !e.pending {
		return
	}
	e.pending = false
	e.doneAt = now
	c.Wake(now)
}

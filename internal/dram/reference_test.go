package dram

// This file keeps the per-request interference accounting this package
// shipped before interference was charged per bank (DESIGN.md decision
// 19): account, the SkipTicks replay, charge and chargeBlocked walk every
// queued read and charge it directly, NextEventCycle aligns each bank's
// release on its own, and pickRead scans the queue for the priority app's
// reads whenever any bank is free. They are kept verbatim, bar their
// names, receiver, the ledger charge writes and the refresh window the
// package no longer models, as the reference
// TestControllerMatchesReference and FuzzControllerMatchesReference hold
// Controller to.
//
// refController runs an ordinary Controller through tick, a copy of Tick
// that calls the reference accounting and pick. Everything else a tick
// does — completion, drain mode, the policy's Pick and issue — is
// shared code, so the two controllers differ only in what changed. The
// reference never charges a bank, so the bank ledger the shared Enqueue
// and removeRead keep stays zero: the marks they and ResetQuantumStats
// move into Causes and the attribution ledger add zero, and the
// reference's ledger is the eager one its charge writes straight into
// c.ledger. The one substitution: the reference reads the bus owner as
// lastCmdApp, the field busApp was folded into (issue set both to the
// same app).

// refController is a Controller accounted for by the per-request walk.
type refController struct{ *Controller }

// tick is Controller.Tick with the per-request account.
func (c refController) tick(now uint64) {
	c.totalTicks++
	if c.busBusyUntil > now {
		c.busyTicks++
	}
	c.completeFinished(now)
	c.account(now)
	c.updateDrainMode()

	if c.draining {
		if r := c.pickWrite(now); r != nil {
			c.issue(r, now)
		}
		return
	}
	if r := c.pickRead(now); r != nil {
		c.issue(r, now)
	} else if len(c.readQ) == 0 {
		// No read work at all: sneak a write in.
		if w := c.pickWrite(now); w != nil {
			c.issue(w, now)
		}
	}
}

// nextEventCycle is the reference NextEventCycle: one alignment per bank,
// and no knowledge of a pending drain (callers ran the tick after every
// posted write instead).
func (c refController) nextEventCycle(nextTick uint64) uint64 {
	ratio := uint64(c.timing.CPUPerDRAM)
	next := uint64(NoEventCycle)
	// alignUp maps an arbitrary CPU cycle to the first tick-grid cycle at
	// or after it: the tick at which the controller observes it.
	alignUp := func(x uint64) uint64 {
		if x <= nextTick {
			return nextTick
		}
		return nextTick + (x-nextTick+ratio-1)/ratio*ratio
	}
	if c.minComplete != NoEventCycle {
		if t := alignUp(c.minComplete); t < next {
			next = t
		}
	}
	// Pick only runs with reads queued, so only then is a decision due.
	if len(c.readQ) > 0 {
		if d := c.policy.NextDecision(c.Controller, nextTick); d != NoEventCycle {
			if t := alignUp(d); t < next {
				next = t
			}
		}
	}
	for i := range c.banks {
		if c.bankReads[i] > 0 {
			if t := alignUp(c.banks[i].busyUntil); t < next {
				next = t
			}
		}
	}
	if len(c.writeQ) > 0 && (c.draining || len(c.readQ) == 0) {
		for i := range c.banks {
			if c.bankWrites[i] > 0 {
				if t := alignUp(c.banks[i].busyUntil); t < next {
					next = t
				}
			}
		}
	}
	return next
}

// skipTicks is the reference SkipTicks, replaying the window's charges
// read by read.
func (c refController) skipTicks(nextTick uint64, n uint64) {
	c.totalTicks += n
	ratio := uint64(c.timing.CPUPerDRAM)
	if c.busBusyUntil > nextTick {
		busy := (c.busBusyUntil - nextTick + ratio - 1) / ratio
		if busy > n {
			busy = n
		}
		c.busyTicks += busy
	}
	if c.numApps == 1 || len(c.readQ) == 0 {
		return
	}
	// Frozen-window accounting: every queued read's bank is busy for the
	// whole window (NextEventCycle ends it where the first one frees), so
	// a read is interfered each tick iff its bank's occupant is another
	// app — account's bank-busy branch with a constant cause; the bus/command-slot branches are unreachable.
	blocked := c.blockedScratch
	for i := range blocked {
		blocked[i] = 0
	}
	for _, r := range c.readQ {
		b := &c.banks[r.bank]
		if b.occupant == r.App {
			continue // held up by its own bank: not interference
		}
		c.charge(r, b.occupant, ratio*n)
		if r.App < len(blocked) {
			blocked[r.App]++
		}
	}
	c.chargeBlocked(blocked, ratio, n)
}

// charge books cycles of interference against request r from cause,
// another app whose occupancy held it up, on the request and in the
// attribution ledger. The per-tick callers never charge an app for
// itself.
func (c refController) charge(r *Request, cause int, cycles uint64) {
	r.InterfCycles += cycles
	if c.ledger != nil {
		c.ledger[r.App*c.numApps+cause] += cycles
	}
	if r.Causes != nil {
		r.Causes[cause] += cycles
	}
}

// chargeBlocked is the per-app tail of n identical ticks in which
// blocked[app] of app's queued reads were interfered: each app's
// parallelism-scaled (STFM-style) interference, and the ASM Section 4.3
// queueing cycles — the highest-priority app has an outstanding request,
// the previous command issued belonged to another app, and the request is
// genuinely held up by other-app occupancy (a cycle the app would also
// have spent waiting on its own bank alone is not removable queueing;
// counting it would over-correct CAR_alone, badly so at high core counts
// where the last command almost always belongs to someone else).
func (c refController) chargeBlocked(blocked []int, ratio, n uint64) {
	for app := 0; app < c.numApps && app < len(blocked); app++ {
		if bn := blocked[app]; bn > 0 {
			par := c.outstanding[app]
			if par < bn {
				par = bn
			}
			contrib := float64(ratio) * float64(bn) / float64(par)
			// n repeated adds, not contrib*n: each accumulator must see
			// the exact float operation sequence n ticks apply.
			for j := uint64(0); j < n; j++ {
				c.interfCycles[app] += contrib
			}
		}
	}
	if p := c.priorityApp; p >= 0 && p < len(blocked) && blocked[p] > 0 && c.lastCmdApp != p {
		c.queueingCycles[p] += ratio * n
	}
}

// account performs the per-tick bookkeeping the slowdown models consume.
func (c refController) account(now uint64) {
	// A single-app controller has no inter-application interference to
	// account: every occupant, bus transfer and command slot belongs to
	// the one app. Alone-run replicas take this path every DRAM tick, so
	// skipping the queue walk is a real win there.
	if c.numApps == 1 {
		return
	}
	// No queued reads: nothing can be blocked, every counter update below
	// is a no-op. Skip the stack-array zeroing and loop setup.
	if len(c.readQ) == 0 {
		return
	}
	ratio := uint64(c.timing.CPUPerDRAM)
	busApp := c.lastCmdApp

	// Per-request and per-app (parallelism-scaled, STFM-style)
	// interference cycles for the queued reads. A queued read is
	// interfered this tick when its bank is occupied by another app's
	// request, the data bus is transferring another app's data, or the
	// controller's last command slot (previous tick) went to another app.
	blocked := c.blockedScratch
	for i := range blocked {
		blocked[i] = 0
	}
	busBusyOther := c.busBusyUntil > now
	cmdSlotTaken := c.anyIssued && now-c.lastCmdCycle <= ratio
	for _, r := range c.readQ {
		b := &c.banks[r.bank]
		bankBusy := b.busyUntil > now
		// Bus and command-slot contention only apply when the request was
		// otherwise schedulable (its bank free); a request stuck behind
		// its own bank's work is not being interfered with this tick.
		// Every interfered tick has one deterministic cause, resolved in
		// fixed priority (bank occupant, then bus owner, then command
		// slot); -2 means not interfered.
		cause := -2
		if bankBusy {
			if b.occupant != r.App {
				cause = b.occupant
			}
		} else if busBusyOther && busApp != r.App {
			cause = busApp
		} else if cmdSlotTaken && c.lastCmdApp != r.App {
			cause = c.lastCmdApp
		}
		if cause != -2 {
			c.charge(r, cause, ratio)
			if r.App < len(blocked) {
				blocked[r.App]++
			}
		}
	}
	c.chargeBlocked(blocked, ratio, 1)
}

// pickRead selects the next read to service, applying the priority overlay
// and then the scheduling policy.
func (c refController) pickRead(now uint64) *Request {
	if len(c.readQ) == 0 {
		return nil
	}
	if debugChecks {
		c.checkMarkedReads()
	}
	free := c.anyBankFree(c.bankReads, now)
	if !free && c.policy.NextDecision(c.Controller, now) > now {
		// Nothing serviceable and no policy decision due this tick: the
		// scan would come up empty and change nothing. A due decision
		// (PARBS batch formation, TCM shuffle) is still taken by Pick
		// even when it cannot issue.
		return nil
	}
	// Priority overlay: if the highest-priority app has any serviceable
	// request, the policy chooses only among those. Serviceable requires
	// a free bank, so the overlay scan is skipped along with the rest.
	if free && c.priorityApp >= 0 {
		var best *Request
		bestIdx := -1
		for i, r := range c.readQ {
			if r.App != c.priorityApp || !c.bankFree(r, now) {
				continue
			}
			if best == nil || betterFRFCFS(c.Controller, r, best) {
				best, bestIdx = r, i
			}
		}
		if best != nil {
			c.removeRead(bestIdx)
			return best
		}
	}
	r, idx := c.policy.Pick(c.Controller, now)
	if r == nil {
		return nil
	}
	c.removeRead(idx)
	return r
}

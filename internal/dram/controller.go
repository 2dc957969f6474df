package dram

import "fmt"

// bankState tracks one DRAM bank's row buffer and availability.
type bankState struct {
	openRow   int64  // -1 = closed (precharged)
	busyUntil uint64 // CPU cycle until which the bank is occupied
	occupant  int    // app whose request occupies the bank
	// lastRow[app] is the row this app most recently accessed in the
	// bank, used to attribute row-buffer disturbance: an access that
	// conflicts now but targets the app's own previous row would have
	// been a row hit had the app run alone (STFM-style accounting).
	lastRow []int64
}

// Controller is the memory controller for one channel: a 128-entry read
// request buffer, a posted-write queue with watermark-based draining, bank
// and data-bus timing, a pluggable scheduling policy, the epoch
// highest-priority overlay, and the per-app accounting consumed by the
// slowdown models:
//
//   - queueing cycles per Section 4.3 of the paper (a cycle counts when the
//     highest-priority app has an outstanding request but the previous
//     command issued belonged to another app);
//   - STFM-style per-app interference cycles (scaled by the app's current
//     memory-level parallelism), the accounting FST and PTCA build on;
//   - per-request interference cycles, used by the per-request baselines
//     and by the Figure 6 latency-distribution experiment.
type Controller struct {
	timing  Timing
	geom    Geometry
	channel int
	numApps int

	banks        []bankState
	busBusyUntil uint64

	readQ     []*Request
	writeQ    []*Request
	readQCap  int
	writeQCap int
	draining  bool

	// bankReads/bankWrites count queued requests per bank. They let the
	// pick fast-outs and NextEventCycle prove "no bank with work is free"
	// by scanning the (few) banks instead of the (up to 128-entry) queues
	// — pure bookkeeping that changes no scheduling decision.
	bankReads  []int32
	bankWrites []int32

	// Per-bank interference ledger (DESIGN.md decision 19). On a given
	// tick every queued read of app a in bank b is charged alike: the
	// cause is the bank's occupant, else the bus owner, else the command
	// slot's app — a property of the bank, never of the request. So the
	// controller charges banks, not reads: bankTotal[b] is the cycles
	// charged to bank b's queued reads, bankCause[b*numApps+c] splits them
	// by cause app c, and bankApp[b*numApps+a] counts app a's queued reads
	// in bank b. A read settles its own share when it leaves the queue
	// (removeRead): the bank's charges since it was enqueued, less those it
	// caused itself.
	bankTotal []uint64
	bankCause []uint64
	bankApp   []int32

	inService []*Request
	// minComplete is the earliest Complete cycle among inService requests
	// (NoEventCycle when empty): completeFinished's early-out. Most ticks
	// complete nothing, so the min check replaces the in-service scan.
	minComplete uint64

	policy Scheduler
	// markedReads counts queued reads carrying PARBS's batch mark, so the
	// policy learns that a batch is exhausted without scanning the queue.
	markedReads  int
	priorityApp  int
	lastCmdApp   int
	lastCmdCycle uint64
	anyIssued    bool

	outstanding []int // queued reads per app (issue takes a read off)

	// Per-app accounting (all in CPU cycles).
	queueingCycles []uint64
	interfCycles   []float64
	readsDone      []uint64
	latencySum     []uint64
	rowHits        []uint64
	servedReads    []uint64 // reads served per app, reset per policy window (TCM)

	// blockedScratch is account's per-app tally of interfered queued
	// reads, allocated once.
	blockedScratch []int

	busyTicks  uint64 // DRAM ticks with a data transfer in flight
	totalTicks uint64

	// ledger, when non-nil, is the event-tracing attribution matrix:
	// ledger[j*numApps+i] is the interference cycles cause app i inflicted
	// on victim j this quantum. It settles from the bank ledger like
	// Request.Causes: Enqueue marks a read's bank cause row against its
	// app's row, removeRead settles it, and charge adds row-buffer
	// disturbance directly. While reads are queued it therefore holds their
	// marks; AddAttributionInto folds them.
	ledger []uint64
}

// NewController returns a controller for one channel.
func NewController(t Timing, g Geometry, channel, numApps int, policy Scheduler) *Controller {
	c := &Controller{
		timing:         t,
		geom:           g,
		channel:        channel,
		numApps:        numApps,
		banks:          make([]bankState, g.BanksPerChan),
		bankReads:      make([]int32, g.BanksPerChan),
		bankWrites:     make([]int32, g.BanksPerChan),
		bankTotal:      make([]uint64, g.BanksPerChan),
		bankCause:      make([]uint64, g.BanksPerChan*numApps),
		bankApp:        make([]int32, g.BanksPerChan*numApps),
		readQCap:       128,
		writeQCap:      64,
		policy:         policy,
		priorityApp:    -1,
		lastCmdApp:     -1,
		outstanding:    make([]int, numApps),
		queueingCycles: make([]uint64, numApps),
		interfCycles:   make([]float64, numApps),
		readsDone:      make([]uint64, numApps),
		latencySum:     make([]uint64, numApps),
		rowHits:        make([]uint64, numApps),
		servedReads:    make([]uint64, numApps),
		blockedScratch: make([]int, numApps),
		minComplete:    NoEventCycle,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].occupant = -1
		c.banks[i].lastRow = make([]int64, numApps)
		for a := range c.banks[i].lastRow {
			c.banks[i].lastRow[a] = -1
		}
	}
	return c
}

// Policy returns the controller's scheduling policy.
func (c *Controller) Policy() Scheduler { return c.policy }

// EnableAttribution turns on the per-cause attribution ledger, counting
// from now. It changes no other accounting.
func (c *Controller) EnableAttribution() {
	if c.ledger == nil {
		c.ledger = make([]uint64, c.numApps*c.numApps)
		c.rebaseLedger()
	}
}

// ledgerRow returns victim app's row of the attribution ledger.
func (c *Controller) ledgerRow(app int) []uint64 {
	return c.ledger[app*c.numApps : (app+1)*c.numApps]
}

// rebaseLedger clears the attribution ledger and re-marks the queued
// reads, so it counts only charges made from now on.
func (c *Controller) rebaseLedger() {
	clear(c.ledger)
	for _, r := range c.readQ {
		c.moveCauses(c.ledgerRow(r.App), r.App, c.causeRow(r.bank), false)
	}
}

// AddAttributionInto adds the attribution ledger into the first numApps
// columns of dst (victim-major), with every queued read's charges so far
// settled as removeRead would settle them. It changes nothing in the
// controller.
func (c *Controller) AddAttributionInto(dst [][]uint64) {
	for j := range c.numApps {
		for i, v := range c.ledgerRow(j) {
			dst[j][i] += v
		}
	}
	for _, r := range c.readQ {
		c.moveCauses(dst[r.App], r.App, c.causeRow(r.bank), true)
	}
}

// SetPriorityApp installs the epoch highest-priority application (-1 for
// none). While set, that app's requests are serviced before all others.
func (c *Controller) SetPriorityApp(app int) { c.priorityApp = app }

// CanEnqueue reports whether a request of the given kind would be accepted
// this cycle.
func (c *Controller) CanEnqueue(write bool) bool {
	if write {
		return len(c.writeQ) < c.writeQCap
	}
	return len(c.readQ) < c.readQCap
}

// Enqueue adds a request to the controller. It returns false (and does not
// take the request) when the corresponding queue is full; the caller must
// retry later.
func (c *Controller) Enqueue(r *Request, now uint64) bool {
	_, r.bank, r.row = c.geom.Map(r.LineAddr)
	r.Enqueue = now
	if r.Write {
		if len(c.writeQ) >= c.writeQCap {
			return false
		}
		c.writeQ = append(c.writeQ, r)
		c.bankWrites[r.bank]++
		return true
	}
	if len(c.readQ) >= c.readQCap {
		return false
	}
	r.marked = false // a recycled request joins no batch it was not marked into
	c.readQ = append(c.readQ, r)
	c.bankReads[r.bank]++
	c.bankApp[r.bank*c.numApps+r.App]++
	c.outstanding[r.App]++
	// Mark the bank ledger; removeRead settles against the mark.
	row := c.causeRow(r.bank)
	r.interfMark = c.bankTotal[r.bank] - row[r.App]
	if r.Causes != nil {
		c.moveCauses(r.Causes, r.App, row, false)
	}
	if c.ledger != nil {
		c.moveCauses(c.ledgerRow(r.App), r.App, row, false)
	}
	return true
}

// causeRow returns bank's per-cause charge columns (numApps wide).
func (c *Controller) causeRow(bank int) []uint64 {
	return c.bankCause[bank*c.numApps : (bank+1)*c.numApps]
}

// moveCauses adds row — a bank's per-cause charges, less app's own
// column — into the first numApps slots of dst, a cause vector
// (Request.Causes, a ledger row or an attribution row) of app's read
// (settle), or subtracts it (mark, at Enqueue). The arithmetic is modulo
// 2^64, so mark then settle leaves exactly the charges made in between.
func (c *Controller) moveCauses(dst []uint64, app int, row []uint64, settle bool) {
	for cause, v := range row {
		if cause == app {
			continue
		}
		if settle {
			dst[cause] += v
		} else {
			dst[cause] -= v
		}
	}
}

// QueuedReads returns the number of queued (not yet issued) reads.
func (c *Controller) QueuedReads() int { return len(c.readQ) }

// OutstandingReads returns app's queued reads (issued requests no longer
// count: their timing is fixed once scheduled).
func (c *Controller) OutstandingReads(app int) int { return c.outstanding[app] }

// Tick advances the controller by one DRAM cycle. now is the current CPU
// cycle; the caller invokes Tick every Timing.CPUPerDRAM CPU cycles.
func (c *Controller) Tick(now uint64) {
	c.totalTicks++
	if c.busBusyUntil > now {
		c.busyTicks++
	}
	c.completeFinished(now)
	c.account(now, 1)
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

// NoEventCycle is NextEventCycle's "fully quiescent" return: no future
// tick of this controller can change observable state until new requests
// arrive.
const NoEventCycle = ^uint64(0)

// NextEventCycle returns the earliest CPU cycle — on the DRAM-tick grid
// anchored at nextTick, the cycle of the controller's next Tick — at
// which a Tick can change *scheduling* state. Every tick strictly before
// the returned cycle is a frozen tick: no completion or issue,
// every queued read's bank stays busy, and the queues are unchanged, so
// the per-tick accounting (if any) charges the identical amounts each
// tick and SkipTicks can apply the whole run in one call, bit-identical
// to ticking through it. It returns nextTick itself when the very next
// tick may do work, and NoEventCycle when no pending work exists at all.
//
// The frozen-window argument, per Tick phase:
//   - policy Pick: a pure scan that picks nothing while every queued
//     read's bank is busy, except on the tick the policy's next decision
//     is due (Scheduler.NextDecision: PARBS forms a batch, TCM shuffles
//     its ranks), which therefore ends the window.
//   - completeFinished: fires at the first tick at or after the earliest
//     in-service Complete cycle (minComplete).
//   - issue: a queued read (or, when draining or with no reads queued, a
//     queued write) issues at the first tick its bank is free, so the
//     window ends where the earliest request-holding bank frees.
//   - account: early-returns for a single app or an empty read queue;
//     otherwise, with every queued read's bank busy all window, each
//     bank's interference cause is its occupant, fixed for the whole
//     window — SkipTicks charges those constant amounts.
//   - updateDrainMode: a function of the write-queue length and the mode
//     itself. Inside a window the length is fixed (an enqueue ends any
//     window the caller holds, and nothing issues), so the mode can flip
//     only at the window's first tick: on, when posted writes reached the
//     high watermark, or off, when the drain's last issue left the queue
//     at the low one. Either flip changes which queue issues, so
//     drainFlips ends the window at nextTick.
func (c *Controller) NextEventCycle(nextTick uint64) uint64 {
	if c.drainFlips() {
		return nextTick
	}
	ratio := uint64(c.timing.CPUPerDRAM)
	next := uint64(NoEventCycle)
	// alignUp maps an arbitrary CPU cycle to the first tick-grid cycle at
	// or after it: the tick at which the controller observes it. It is
	// monotone, so the earliest of several cycles aligns once.
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
		if d := c.policy.NextDecision(c, nextTick); d != NoEventCycle {
			if t := alignUp(d); t < next {
				next = t
			}
		}
	}
	// The earliest release of a bank holding issuable work.
	writes := len(c.writeQ) > 0 && (c.draining || len(c.readQ) == 0)
	free := uint64(NoEventCycle)
	for i := range c.banks {
		if c.bankReads[i] > 0 || writes && c.bankWrites[i] > 0 {
			free = min(free, c.banks[i].busyUntil)
		}
	}
	if free != NoEventCycle {
		next = min(next, alignUp(free))
	}
	return next
}

// SkipTicks advances the controller over n consecutive frozen ticks at
// cycles nextTick, nextTick+ratio, ... — all strictly before
// NextEventCycle(nextTick) — bit-identical to calling Tick n times. The
// tick counter and the bus-busy tally apply in closed form; with multiple
// apps and queued reads, the per-tick interference accounting is applied
// for the window: integer charges
// (per-bank interference and its cause columns, queueing cycles)
// multiply out exactly, and each float accumulator receives the same n
// identical adds it would see ticking through, preserving bit-equality.
func (c *Controller) SkipTicks(nextTick uint64, n uint64) {
	c.totalTicks += n
	ratio := uint64(c.timing.CPUPerDRAM)
	if c.busBusyUntil > nextTick {
		busy := (c.busBusyUntil - nextTick + ratio - 1) / ratio
		if busy > n {
			busy = n
		}
		c.busyTicks += busy
	}
	// Every queued read's bank is busy for the whole window (NextEventCycle
	// ends it where the first one frees), so each bank's cause is its
	// occupant at every tick: account at nextTick holds for all n.
	if debugChecks {
		for i, queued := range c.bankReads {
			if queued > 0 && c.banks[i].busyUntil <= nextTick {
				panic(fmt.Sprintf("dram: bank %d holds reads but is free at %d, inside a frozen window", i, nextTick))
			}
		}
	}
	c.account(nextTick, n)
}

// charge books a row-buffer disturbance penalty of cycles against request
// r from cause, the app whose access displaced the row, on the request and
// in the attribution ledger.
func (c *Controller) charge(r *Request, cause int, cycles uint64) {
	r.InterfCycles += cycles
	if c.ledger != nil {
		c.ledgerRow(r.App)[cause] += cycles
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
func (c *Controller) chargeBlocked(blocked []int, ratio, n uint64) {
	for app := 0; app < c.numApps && app < len(blocked); app++ {
		if bn := blocked[app]; bn > 0 {
			par := c.outstanding[app]
			if par < bn {
				par = bn
			}
			// With every queued read blocked the quotient is exactly
			// ratio: ratio*bn is exact, and so is its division by bn.
			contrib := float64(ratio)
			if bn != par {
				contrib = float64(ratio) * float64(bn) / float64(par)
			}
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

// completeFinished fires Done callbacks for requests whose data has fully
// transferred. The minComplete early-out makes the common
// nothing-due-this-tick case a single compare.
func (c *Controller) completeFinished(now uint64) {
	if c.minComplete > now {
		return
	}
	min := uint64(NoEventCycle)
	kept := c.inService[:0]
	for _, r := range c.inService {
		if r.Complete <= now {
			if !r.Write {
				c.readsDone[r.App]++
				c.servedReads[r.App]++
				c.latencySum[r.App] += r.TotalLatency()
				if r.RowHit {
					c.rowHits[r.App]++
				}
			}
			if r.Done != nil {
				r.Done(r, now)
			}
			continue
		}
		if r.Complete < min {
			min = r.Complete
		}
		kept = append(kept, r)
	}
	c.inService = kept
	c.minComplete = min
}

// updateDrainMode applies write-queue watermarks.
func (c *Controller) updateDrainMode() {
	if c.drainFlips() {
		c.draining = !c.draining
	}
}

// drainFlips reports whether the write-queue watermarks switch the drain
// mode: on at three quarters full, off at one quarter.
func (c *Controller) drainFlips() bool {
	if c.draining {
		return len(c.writeQ) <= c.writeQCap/4
	}
	return len(c.writeQ) >= c.writeQCap*3/4
}

// bankFree reports whether r's bank can accept a new request.
func (c *Controller) bankFree(r *Request, now uint64) bool {
	return c.banks[r.bank].busyUntil <= now
}

// anyBankFree reports whether any bank holding queued requests (per the
// counts slice — bankReads or bankWrites) can accept a command at now.
// When it returns false, no pick over that queue can succeed, so callers
// may skip the full queue scan. In a saturated system most ticks issue
// nothing (the data bus serializes one transfer per TBurst ticks), so
// this bank-count check replaces the dominant futile queue walks.
func (c *Controller) anyBankFree(counts []int32, now uint64) bool {
	for i, n := range counts {
		if n > 0 && c.banks[i].busyUntil <= now {
			return true
		}
	}
	return false
}

// appBankFree reports whether a bank that can accept a command at now
// holds a queued read of app.
func (c *Controller) appBankFree(app int, now uint64) bool {
	for i := range c.banks {
		if c.bankApp[i*c.numApps+app] > 0 && c.banks[i].busyUntil <= now {
			return true
		}
	}
	return false
}

// rowHit reports whether r would hit in its bank's row buffer right now.
func (c *Controller) rowHit(r *Request) bool {
	return c.banks[r.bank].openRow == int64(r.row)
}

// pickRead selects the next read to service, applying the priority overlay
// and then the scheduling policy.
func (c *Controller) pickRead(now uint64) *Request {
	if len(c.readQ) == 0 {
		return nil
	}
	if debugChecks {
		c.checkMarkedReads()
	}
	free := c.anyBankFree(c.bankReads, now)
	if !free && c.policy.NextDecision(c, now) > now {
		// Nothing serviceable and no policy decision due this tick: the
		// scan would come up empty and change nothing. A due decision
		// (PARBS batch formation, TCM shuffle) is still taken by Pick
		// even when it cannot issue.
		return nil
	}
	// Priority overlay: if the highest-priority app has any serviceable
	// request, the policy chooses only among those. Serviceable requires
	// a free bank holding one of its reads, which the per-bank counts
	// show without the scan.
	if p := c.priorityApp; free && p >= 0 && p < c.numApps && c.appBankFree(p, now) {
		var best *Request
		bestIdx := -1
		for i, r := range c.readQ {
			if r.App != c.priorityApp || !c.bankFree(r, now) {
				continue
			}
			if best == nil || betterFRFCFS(c, r, best) {
				best, bestIdx = r, i
			}
		}
		if best != nil {
			c.removeRead(bestIdx)
			return best
		}
	}
	r, idx := c.policy.Pick(c, now)
	if r == nil {
		return nil
	}
	c.removeRead(idx)
	return r
}

// checkMarkedReads panics when the marked-read count has drifted from the
// queue it summarises (asmdebug builds only).
func (c *Controller) checkMarkedReads() {
	n := 0
	for _, r := range c.readQ {
		if r.marked {
			n++
		}
	}
	if n != c.markedReads {
		panic(fmt.Sprintf("dram: %d marked reads queued, count says %d", n, c.markedReads))
	}
}

// removeRead deletes index i from the read queue, preserving order (age
// order matters to every policy), and settles the read's interference:
// its bank's charges since Enqueue marked it, less those its own app
// caused (DESIGN.md decision 19).
func (c *Controller) removeRead(i int) {
	r := c.readQ[i]
	c.bankReads[r.bank]--
	c.bankApp[r.bank*c.numApps+r.App]--
	row := c.causeRow(r.bank)
	r.InterfCycles += c.bankTotal[r.bank] - row[r.App] - r.interfMark
	if r.Causes != nil {
		c.moveCauses(r.Causes, r.App, row, true)
	}
	if c.ledger != nil {
		c.moveCauses(c.ledgerRow(r.App), r.App, row, true)
	}
	if r.marked {
		c.markedReads--
	}
	c.readQ = append(c.readQ[:i], c.readQ[i+1:]...)
}

// pickWrite drains writes oldest-row-hit-first.
func (c *Controller) pickWrite(now uint64) *Request {
	if len(c.writeQ) == 0 || !c.anyBankFree(c.bankWrites, now) {
		return nil
	}
	bestIdx := -1
	for i, r := range c.writeQ {
		if !c.bankFree(r, now) {
			continue
		}
		if bestIdx == -1 {
			bestIdx = i
			continue
		}
		if c.rowHit(r) && !c.rowHit(c.writeQ[bestIdx]) {
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		return nil
	}
	r := c.writeQ[bestIdx]
	c.bankWrites[r.bank]--
	c.writeQ = append(c.writeQ[:bestIdx], c.writeQ[bestIdx+1:]...)
	return r
}

// issue schedules all commands for r and computes its completion time.
func (c *Controller) issue(r *Request, now uint64) {
	b := &c.banks[r.bank]
	ratio := uint64(c.timing.CPUPerDRAM)

	var cmdLat int // bus cycles from issue to first data beat
	switch {
	case b.openRow == int64(r.row):
		cmdLat = c.timing.TCL
		r.RowHit = true
	case b.openRow == -1:
		cmdLat = c.timing.TRCD + c.timing.TCL
	default:
		cmdLat = c.timing.TRP + c.timing.TRCD + c.timing.TCL
	}
	// Row-buffer disturbance: the access misses the row buffer now, but
	// targets the row this app itself opened last in this bank — alone it
	// would have been a row hit. Charge the activate/precharge overhead
	// as interference (per-request and parallelism-scaled per-app). The
	// cause is the bank's previous occupant, whose access displaced the
	// row. It is another app: issue sets openRow, occupant and
	// lastRow[occupant] together, so the victim's own last access would
	// have left its row open, and a bank no app has used yet disturbs no
	// row.
	if !r.Write && !r.RowHit && b.lastRow[r.App] == int64(r.row) {
		penalty := uint64(cmdLat-c.timing.TCL) * ratio
		cause := b.occupant
		if debugChecks && (cause < 0 || cause == r.App) {
			panic(fmt.Sprintf("dram: app %d's row %d disturbed by cause %d", r.App, r.row, cause))
		}
		c.charge(r, cause, penalty)
		par := c.outstanding[r.App] + 1 // +1: this request
		contrib := float64(penalty) / float64(par)
		c.interfCycles[r.App] += contrib
	}
	b.lastRow[r.App] = int64(r.row)

	dataReady := now + uint64(cmdLat)*ratio
	dataStart := dataReady
	if c.busBusyUntil > dataStart {
		dataStart = c.busBusyUntil
	}
	complete := dataStart + uint64(c.timing.TBurst)*ratio

	r.Start = now
	r.Complete = complete

	b.openRow = int64(r.row)
	b.occupant = r.App
	b.busyUntil = complete
	if r.Write {
		b.busyUntil += uint64(c.timing.TWR) * ratio
	}
	// The bus owner is always the last command's app: account relies on
	// the two being one.
	c.busBusyUntil = complete
	c.lastCmdApp = r.App
	c.lastCmdCycle = now
	c.anyIssued = true

	if !r.Write {
		c.outstanding[r.App]--
	}
	if complete < c.minComplete {
		c.minComplete = complete
	}
	c.inService = append(c.inService, r)
}

// account performs the bookkeeping the slowdown models consume for n
// identical ticks from now: n is 1 from Tick, and SkipTicks passes a
// frozen window, every tick of which charges what the first one does.
//
// A queued read is interfered on a tick when its bank is occupied by
// another app's request, or — its bank free, so it was otherwise
// schedulable — the data bus is transferring another app's data or the
// last command slot (previous tick) went to another app. A read stuck
// behind its own app's bank work is not being interfered with. The bus
// owner and the command slot's app are both lastCmdApp, so each bank has
// one cause per tick — its occupant if busy, else lastCmdApp if the bus or
// slot is taken, else none — which charges every read in the bank except
// those of the cause app itself. The charge goes on the bank (bankTotal,
// bankCause); reads settle it in removeRead.
func (c *Controller) account(now, n uint64) {
	// A single-app controller has no inter-application interference to
	// account: every occupant, bus transfer and command slot belongs to
	// the one app. With no queued reads nothing is blocked.
	if c.numApps == 1 || len(c.readQ) == 0 {
		return
	}
	ratio := uint64(c.timing.CPUPerDRAM)
	cycles := ratio * n
	slotCause := -2 // -2: neither bus nor command slot is taken
	if c.busBusyUntil > now || c.anyIssued && now-c.lastCmdCycle <= ratio {
		slotCause = c.lastCmdApp
	}
	// blocked[a] counts app a's interfered queued reads: all of them, less
	// those in banks with no cause or whose cause is a itself.
	blocked := c.blockedScratch
	copy(blocked, c.outstanding)
	for bank, queued := range c.bankReads {
		if queued == 0 {
			continue
		}
		base := bank * c.numApps // bank's row of bankApp and bankCause
		cause := slotCause
		if b := &c.banks[bank]; b.busyUntil > now {
			cause = b.occupant
		}
		if cause == -2 {
			for a, k := range c.bankApp[base : base+c.numApps] {
				blocked[a] -= int(k)
			}
			continue
		}
		if debugChecks && cause < 0 {
			panic(fmt.Sprintf("dram: bank %d charged to cause %d at %d", bank, cause, now))
		}
		blocked[cause] -= int(c.bankApp[base+cause])
		c.bankTotal[bank] += cycles
		c.bankCause[base+cause] += cycles
	}
	c.chargeBlocked(blocked, ratio, n)
}

// QueueingCycles returns the accumulated Section 4.3 queueing cycles for
// app since the last reset.
func (c *Controller) QueueingCycles(app int) uint64 { return c.queueingCycles[app] }

// InterferenceCycles returns the accumulated STFM-style parallelism-scaled
// interference cycles for app since the last reset.
func (c *Controller) InterferenceCycles(app int) float64 { return c.interfCycles[app] }

// ReadsDone returns completed reads for app since the last reset.
func (c *Controller) ReadsDone(app int) uint64 { return c.readsDone[app] }

// AvgReadLatency returns the mean read latency in CPU cycles for app since
// the last reset, or 0 with no completed reads.
func (c *Controller) AvgReadLatency(app int) float64 {
	if c.readsDone[app] == 0 {
		return 0
	}
	return float64(c.latencySum[app]) / float64(c.readsDone[app])
}

// RowHitRate returns app's row-buffer hit rate since the last reset.
func (c *Controller) RowHitRate(app int) float64 {
	if c.readsDone[app] == 0 {
		return 0
	}
	return float64(c.rowHits[app]) / float64(c.readsDone[app])
}

// BusUtilization returns the fraction of DRAM ticks the data bus was busy.
func (c *Controller) BusUtilization() float64 {
	if c.totalTicks == 0 {
		return 0
	}
	return float64(c.busyTicks) / float64(c.totalTicks)
}

// ServedReads returns and clears app's served-read count for the policy
// window (used by TCM's clustering).
func (c *Controller) ServedReads(app int) uint64 { return c.servedReads[app] }

// ResetWindowStats clears the policy-window counters (TCM).
func (c *Controller) ResetWindowStats() {
	for i := range c.servedReads {
		c.servedReads[i] = 0
	}
}

// ResetQuantumStats clears the per-quantum accounting counters and
// rebases the attribution ledger, which shares their lifecycle.
func (c *Controller) ResetQuantumStats() {
	for i := 0; i < c.numApps; i++ {
		c.queueingCycles[i] = 0
		c.interfCycles[i] = 0
		c.readsDone[i] = 0
		c.latencySum[i] = 0
		c.rowHits[i] = 0
	}
	if c.ledger != nil {
		c.rebaseLedger()
	}
}

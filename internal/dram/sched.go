package dram

// Scheduler is a memory scheduling policy. Each DRAM cycle the controller
// asks the policy to pick one request from the read queue among those whose
// bank is currently free. Pick returns the chosen request and its index in
// the queue, or (nil, -1) when nothing is serviceable.
//
// The controller applies the epoch highest-priority overlay *before*
// consulting the policy, so policies never see priority epochs.
//
// Pick is the only place a policy may change its own state, and it must
// publish when it next will: between decisions a Pick that finds every
// queued read's bank busy is a pure scan the controller is free not to
// make (pickRead) or to skip whole ticks of (NextEventCycle).
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Pick chooses the next read to service.
	Pick(c *Controller, now uint64) (*Request, int)
	// NextDecision returns the earliest CPU cycle at or after nextTick —
	// the cycle of the controller's next Tick — at which Pick will change
	// policy state (ranks, marks, clocks, random-stream position) even if
	// it can issue nothing, given that no request arrives or leaves first;
	// NoEventCycle if it never will. It is only consulted while reads are
	// queued, and a cycle between ticks counts as the tick that follows.
	NextDecision(c *Controller, nextTick uint64) uint64
}

// sortAppsStable fills order with the app ids 0..len(order)-1 sorted by
// before, apps that neither precedes the other keeping their index order.
// An insertion sort: there are as many apps as cores, and unlike
// sort.SliceStable it allocates nothing.
func sortAppsStable(order []int, before func(a, b int) bool) {
	for i := range order {
		order[i] = i
		for j := i; j > 0 && before(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// betterFRFCFS reports whether a should be preferred over b under FR-FCFS:
// demand requests before prefetches (prefetches fill otherwise-idle
// slots), then row-buffer hits to maximize throughput, then oldest-first.
func betterFRFCFS(c *Controller, a, b *Request) bool {
	if a.Prefetch != b.Prefetch {
		return !a.Prefetch
	}
	ah, bh := c.rowHit(a), c.rowHit(b)
	if ah != bh {
		return ah
	}
	return a.Enqueue < b.Enqueue
}

// FRFCFS is the baseline first-ready, first-come-first-served policy
// (Rixner et al.; Zuravleff & Robinson): row-buffer hits are prioritized
// to maximize DRAM throughput, then older requests for forward progress.
// It is application-unaware.
type FRFCFS struct{}

// NewFRFCFS returns the FR-FCFS policy.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// Name implements Scheduler.
func (*FRFCFS) Name() string { return "FRFCFS" }

// NextDecision implements Scheduler: FR-FCFS keeps no state to decide on.
func (*FRFCFS) NextDecision(*Controller, uint64) uint64 { return NoEventCycle }

// Pick implements Scheduler.
func (*FRFCFS) Pick(c *Controller, now uint64) (*Request, int) {
	var best *Request
	bestIdx := -1
	for i, r := range c.readQ {
		if !c.bankFree(r, now) {
			continue
		}
		if best == nil || betterFRFCFS(c, r, best) {
			best, bestIdx = r, i
		}
	}
	return best, bestIdx
}

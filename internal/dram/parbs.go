package dram

// PARBS implements Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda,
// ISCA 2008). Requests are grouped into batches: when no marked requests
// remain, the policy marks up to MarkingCap oldest requests per
// (application, bank) pair. Marked requests are strictly prioritized over
// unmarked ones (providing starvation freedom), and within a batch
// applications are ranked shortest-job-first by their maximum marked load
// on any bank (preserving intra-application bank parallelism). Within the
// same rank, FR-FCFS order applies.
type PARBS struct {
	// MarkingCap is the per-(app,bank) marking limit; the paper uses 5.
	MarkingCap int

	rank []int // rank[app] = priority, lower value = higher priority

	// formBatch's scratch, kept across batches so forming one allocates
	// nothing: marked requests per (app, bank), and per app the largest of
	// those, their total, and the ranking order being sorted.
	loads   []int
	maxLoad []int
	totals  []int
	order   []int
}

// NewPARBS returns a PARBS policy for numApps applications.
func NewPARBS(numApps int) *PARBS {
	return &PARBS{
		MarkingCap: 5,
		rank:       make([]int, numApps),
		maxLoad:    make([]int, numApps),
		totals:     make([]int, numApps),
		order:      make([]int, numApps),
	}
}

// Name implements Scheduler.
func (*PARBS) Name() string { return "PARBS" }

// NextDecision implements Scheduler: a new batch forms on the first Pick
// that finds reads queued and the previous batch exhausted. Marked reads
// only leave the queue by issuing, so while one is queued no decision is
// pending.
func (p *PARBS) NextDecision(c *Controller, nextTick uint64) uint64 {
	if len(c.readQ) > 0 && c.markedReads == 0 {
		return nextTick
	}
	return NoEventCycle
}

// Pick implements Scheduler.
func (p *PARBS) Pick(c *Controller, now uint64) (*Request, int) {
	if c.markedReads == 0 && len(c.readQ) > 0 {
		p.formBatch(c)
	}

	var best *Request
	bestIdx := -1
	for i, r := range c.readQ {
		if !c.bankFree(r, now) {
			continue
		}
		if best == nil || p.better(c, r, best) {
			best, bestIdx = r, i
		}
	}
	return best, bestIdx
}

// better reports whether a beats b under PARBS ordering.
func (p *PARBS) better(c *Controller, a, b *Request) bool {
	if a.marked != b.marked {
		return a.marked
	}
	if a.marked && b.marked && a.App != b.App {
		ra, rb := p.rankOf(a.App), p.rankOf(b.App)
		if ra != rb {
			return ra < rb
		}
	}
	return betterFRFCFS(c, a, b)
}

func (p *PARBS) rankOf(app int) int {
	if app < len(p.rank) {
		return p.rank[app]
	}
	return len(p.rank)
}

// formBatch marks up to MarkingCap oldest requests per (app, bank) and
// recomputes application ranks by max-bank-load (shortest job first).
func (p *PARBS) formBatch(c *Controller) {
	banks := len(c.banks)
	need := c.numApps * banks
	if len(p.loads) < need {
		p.loads = make([]int, need)
	}
	loads := p.loads[:need]
	clear(loads)
	clear(p.maxLoad)
	clear(p.totals)
	// The queue is age-ordered, so a single pass marks the oldest first.
	for _, r := range c.readQ {
		k := r.App*banks + r.bank
		if loads[k] >= p.MarkingCap {
			continue
		}
		loads[k]++
		r.marked = true
		c.markedReads++
		if r.App < len(p.totals) {
			p.totals[r.App]++
			if loads[k] > p.maxLoad[r.App] {
				p.maxLoad[r.App] = loads[k]
			}
		}
	}
	// Rank apps: lower max-bank-load first, total marked as tie-break.
	order := p.order
	sortAppsStable(order, p.ranksBefore)
	for pos, app := range order {
		p.rank[app] = pos
	}
}

// ranksBefore reports whether app a's batch is strictly the shorter job.
func (p *PARBS) ranksBefore(a, b int) bool {
	if p.maxLoad[a] != p.maxLoad[b] {
		return p.maxLoad[a] < p.maxLoad[b]
	}
	return p.totals[a] < p.totals[b]
}

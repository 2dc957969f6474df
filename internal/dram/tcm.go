package dram

import "asmsim/internal/rng"

// TCM implements Thread Cluster Memory scheduling (Kim et al., MICRO 2010).
// At every policy quantum the applications are split into a
// latency-sensitive cluster (the lowest-memory-intensity apps whose
// aggregate bandwidth stays under ClusterThresh of the total) and a
// bandwidth-sensitive cluster. Latency-sensitive apps are always
// prioritized; within the bandwidth cluster, ranks are shuffled
// periodically so that unfairness-inducing rankings do not persist.
type TCM struct {
	// ClusterThresh is the fraction of total bandwidth the latency
	// cluster may consume (the paper explores 2-12%; we use 10%).
	ClusterThresh float64
	// ShuffleInterval is the rank re-shuffle period in DRAM ticks.
	ShuffleInterval uint64

	latency    []bool // app is in the latency-sensitive cluster
	rank       []int  // priority within bandwidth cluster (lower = higher)
	mpki       []float64
	rnd        *rng.Stream
	lastShuf   uint64
	perm       []int
	order      []int // UpdateClustering's sort scratch
	haveUpdate bool
}

// NewTCM returns a TCM policy for numApps applications.
func NewTCM(numApps int, seed uint64) *TCM {
	t := &TCM{
		ClusterThresh:   0.10,
		ShuffleInterval: 800,
		latency:         make([]bool, numApps),
		rank:            make([]int, numApps),
		mpki:            make([]float64, numApps),
		rnd:             rng.NewNamed(seed, "tcm"),
		perm:            make([]int, numApps),
		order:           make([]int, numApps),
	}
	for i := range t.rank {
		t.rank[i] = i
	}
	return t
}

// Name implements Scheduler.
func (*TCM) Name() string { return "TCM" }

// UpdateClustering recomputes the clusters from per-app memory intensity
// (misses per kilo-instruction) and per-app bandwidth usage (served reads
// in the last window). The sim layer calls this at policy-quantum
// boundaries.
func (t *TCM) UpdateClustering(mpki []float64, served []uint64) {
	copy(t.mpki, mpki)
	var total uint64
	for _, s := range served {
		total += s
	}
	order := t.order
	sortAppsStable(order, func(a, b int) bool { return mpki[a] < mpki[b] })
	var used uint64
	budget := uint64(t.ClusterThresh * float64(total))
	for i := range t.latency {
		t.latency[i] = false
	}
	for _, app := range order {
		if total == 0 {
			break
		}
		if used+served[app] > budget {
			break
		}
		used += served[app]
		t.latency[app] = true
	}
	t.haveUpdate = true
}

// NextDecision implements Scheduler: the ranks are re-shuffled on the
// first Pick at or after DRAM tick lastShuf+ShuffleInterval.
func (t *TCM) NextDecision(c *Controller, nextTick uint64) uint64 {
	if d := (t.lastShuf + t.ShuffleInterval) * uint64(c.timing.CPUPerDRAM); d > nextTick {
		return d
	}
	return nextTick
}

// Pick implements Scheduler.
func (t *TCM) Pick(c *Controller, now uint64) (*Request, int) {
	tick := now / uint64(c.timing.CPUPerDRAM)
	if tick-t.lastShuf >= t.ShuffleInterval {
		t.lastShuf = tick
		t.rnd.Perm(t.perm)
		for pos, app := range t.perm {
			if app < len(t.rank) {
				t.rank[app] = pos
			}
		}
	}
	var best *Request
	bestIdx := -1
	for i, r := range c.readQ {
		if !c.bankFree(r, now) {
			continue
		}
		if best == nil || t.better(c, r, best) {
			best, bestIdx = r, i
		}
	}
	return best, bestIdx
}

// better reports whether a beats b under TCM ordering.
func (t *TCM) better(c *Controller, a, b *Request) bool {
	la, lb := t.inLatencyCluster(a.App), t.inLatencyCluster(b.App)
	if la != lb {
		return la
	}
	if la && lb && a.App != b.App {
		// Within the latency cluster: lower intensity first.
		ma, mb := t.mpkiOf(a.App), t.mpkiOf(b.App)
		if ma != mb {
			return ma < mb
		}
	}
	if !la && !lb && a.App != b.App {
		ra, rb := t.rankOf(a.App), t.rankOf(b.App)
		if ra != rb {
			return ra < rb
		}
	}
	return betterFRFCFS(c, a, b)
}

func (t *TCM) inLatencyCluster(app int) bool {
	return app < len(t.latency) && t.latency[app]
}

func (t *TCM) mpkiOf(app int) float64 {
	if app < len(t.mpki) {
		return t.mpki[app]
	}
	return 0
}

func (t *TCM) rankOf(app int) int {
	if app < len(t.rank) {
		return t.rank[app]
	}
	return len(t.rank)
}

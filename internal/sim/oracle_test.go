package sim

import "testing"

// Reference oracles for the simulator's fast paths. They share no code
// with what they check: tickN advances one Tick per cycle, in which no
// core runs ahead and the loop jumps nothing, and aloneOracle answers the
// alone run's milestones by ticking a full solo replica, with no curve,
// cache, follower or retire hook.

// tickN advances sys by n cycles one Tick at a time: the cycle-by-cycle
// reference that Run's jumps and run-ahead cores must be bit-identical to.
func tickN(sys *System, n uint64) {
	for end := sys.Cycle() + n; sys.Cycle() < end; {
		sys.Tick()
	}
}

// aloneOracle is the ground-truth definition run directly: app alone on a
// full single-core replica of the shared run's configuration (soloConfig:
// one core, no epochs, FR-FCFS), stepped until it has retired each
// milestone. Because workload generators are pure functions of (spec,
// seed), the replica replays the shared run's work byte for byte.
type aloneOracle struct{ sys *System }

func newAloneOracle(tb testing.TB, cfg Config, app AppSource) *aloneOracle {
	tb.Helper()
	sys, err := newSystem(cfg.soloConfig(), []AppSource{app}, false)
	if err != nil {
		tb.Fatal(err)
	}
	return &aloneOracle{sys: sys}
}

// CyclesAt returns the cycle at which the alone run has retired at least
// instr instructions, stepping the replica as needed. Queries must be
// non-decreasing.
func (o *aloneOracle) CyclesAt(instr uint64) uint64 {
	for o.sys.Retired(0) < instr {
		o.sys.Tick()
	}
	return o.sys.Cycle()
}

// oracleTracker is SlowdownTracker's arithmetic over aloneOracle replicas:
// per quantum, shared cycles over the alone cycles the same instructions
// took, clamped at 1.
type oracleTracker struct {
	alone     []*aloneOracle
	lastCycle []uint64
	total     []uint64
}

func newOracleTracker(tb testing.TB, cfg Config, apps []AppSource) *oracleTracker {
	tb.Helper()
	t := &oracleTracker{lastCycle: make([]uint64, len(apps)), total: make([]uint64, len(apps))}
	for _, app := range apps {
		t.alone = append(t.alone, newAloneOracle(tb, cfg, app))
	}
	return t
}

func (t *oracleTracker) ActualSlowdowns(st *QuantumStats) []float64 {
	out := make([]float64, len(t.alone))
	for a, o := range t.alone {
		t.total[a] += st.Apps[a].Retired
		cyc := o.CyclesAt(t.total[a])
		delta := cyc - t.lastCycle[a]
		t.lastCycle[a] = cyc
		out[a] = 1
		if delta > 0 {
			out[a] = max(float64(st.Cycles)/float64(delta), 1)
		}
	}
	return out
}

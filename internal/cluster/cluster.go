// Package cluster implements the paper's Section 7.5 use case: using
// ASM's online slowdown estimates for job migration and admission control
// across machines.
//
// Prior systems migrate jobs based on proxy metrics (cache miss counts,
// bandwidth utilization); ASM gives the system software a *direct*
// measure of how much interference is hurting each job. This package
// models a small cluster where each machine is one simulated
// multi-core system: after every evaluation round the balancer reads each
// machine's ASM slowdown estimates and can swap the most-slowed job on
// the most-unfair machine with the least-slowed job elsewhere. Admission
// control refuses jobs on machines whose tenants already exceed an SLA
// slowdown bound.
//
// The balancer is built to keep serving when machines misbehave. Each
// machine is evaluated once per round: the evaluation is a pure function
// of its jobs and config, so running it again could only repeat the
// failure. A machine whose round fails keeps serving its last estimates,
// marked Degraded, for a bounded number of rounds (the stale TTL); when
// the TTL is exhausted the machine is marked Failed and its jobs are
// drained onto the survivors, subject to the SLA admission bound. Failed machines
// are probed each round and re-enter service when they recover. Faults
// can be injected deterministically via internal/faults for tests and
// chaos drills.
//
// Jobs are stationary synthetic streams, so re-running a machine's mix
// after a migration is equivalent to continuing it — the abstraction that
// keeps rounds cheap.
package cluster

import (
	"context"
	"fmt"
	"math"

	"asmsim/internal/core"
	"asmsim/internal/exp"
	"asmsim/internal/faults"
	"asmsim/internal/metrics"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// Defaults for the robustness knobs (selected by zero values in Config).
const (
	// DefaultStaleTTL is how many consecutive rounds a machine may serve
	// stale estimates before it is marked Failed and drained.
	DefaultStaleTTL = 2
	// DefaultDrainSLABound is the admission bound enforced when
	// re-placing a drained machine's jobs.
	DefaultDrainSLABound = 3.0
)

// Config describes the cluster.
type Config struct {
	// Machines is the number of machines.
	Machines int
	// System configures each machine (Cores jobs per machine).
	System sim.Config
	// RoundQuanta is how many quanta each evaluation round simulates.
	RoundQuanta int

	// StaleTTL is how many consecutive rounds a machine may serve stale
	// estimates while Degraded before it is marked Failed and drained
	// (0 selects DefaultStaleTTL; negative fails immediately).
	StaleTTL int
	// DrainSLABound is the SLA slowdown bound enforced by admission
	// control when a failed machine's jobs are re-placed (0 selects
	// DefaultDrainSLABound).
	DrainSLABound float64
	// Faults optionally injects deterministic failures (see
	// internal/faults). The zero value injects nothing.
	Faults faults.Config
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("cluster: need at least one machine")
	}
	if c.RoundQuanta <= 0 {
		return fmt.Errorf("cluster: need at least one quantum per round")
	}
	if !c.System.EpochPriority {
		return fmt.Errorf("cluster: ASM needs EpochPriority enabled")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.System.Validate()
}

// staleTTL resolves the stale-estimate TTL's zero value.
func (c Config) staleTTL() int {
	if c.StaleTTL == 0 {
		return DefaultStaleTTL
	}
	if c.StaleTTL < 0 {
		return 0
	}
	return c.StaleTTL
}

// drainBound resolves the drain admission bound's zero value.
func (c Config) drainBound() float64 {
	if c.DrainSLABound == 0 {
		return DefaultDrainSLABound
	}
	return c.DrainSLABound
}

// Placement assigns job names to machines (one slice per machine, each of
// length System.Cores).
type Placement [][]string

// Health is a machine's serving state.
type Health int

const (
	// Healthy machines evaluated successfully in the latest round.
	Healthy Health = iota
	// Degraded machines failed their latest evaluation and serve stale,
	// TTL-bounded estimates from an earlier round.
	Degraded
	// Failed machines exhausted their stale TTL; their jobs
	// have been drained and they take no work until they recover.
	Failed
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// Machine is one machine's most recent evaluation.
type Machine struct {
	Jobs      []string
	Slowdowns []float64 // ASM estimates from the last successful round
	// Health is the machine's serving state.
	Health Health
	// StaleRounds counts consecutive rounds served from stale estimates
	// (0 for a machine whose latest evaluation succeeded).
	StaleRounds int
	// LastErr is the most recent evaluation failure, nil when healthy.
	LastErr error

	// outageLeft counts remaining rounds of an injected transient outage.
	outageLeft int
}

// MaxSlowdown returns the machine's unfairness.
func (m Machine) MaxSlowdown() float64 { return metrics.MaxSlowdown(m.Slowdowns) }

// Cluster evaluates placements and rebalances them using ASM estimates.
type Cluster struct {
	cfg      Config
	machines []Machine
	inj      *faults.Injector
	// Migrations records every (round, job, from, to) balancer decision.
	Migrations []Migration
	// Drains records every job rescheduled off a failed machine.
	Drains []Drain
	// Unplaced holds drained jobs no surviving machine could admit; they
	// are retried every round.
	Unplaced []string
	// Events is the robustness audit log: degradations, drains,
	// recoveries.
	Events []Event
	round  int
	tel    *telemetry.Registry
	rec    telemetry.Recorder
	// nodes[i] observes machine i's simulations (see SetTelemetry).
	nodes []telemetry.Options
	// clock[i] is machine i's node-local clock: the cycles covered by
	// every simulation the machine has run so far.
	clock []uint64
}

// Migration is one balancer decision.
type Migration struct {
	Round int    `json:"round"`
	Job   string `json:"job"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	// Swapped is the job moved in the opposite direction (machines run
	// full, so migrations are swaps).
	Swapped string `json:"swapped"`
}

// Drain records one job rescheduled off a failed machine. To is -1 when
// no surviving machine could admit the job under the SLA bound (the job
// is parked in Unplaced), and From is -1 when a previously parked job is
// re-placed.
type Drain struct {
	Round int    `json:"round"`
	Job   string `json:"job"`
	From  int    `json:"from"`
	To    int    `json:"to"`
}

// Event is one entry of the robustness audit log.
type Event struct {
	Round   int `json:"round"`
	Machine int `json:"machine"`
	// Kind is one of "degraded", "failed", "drain", "park", "replace",
	// "recovered", "outage".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// New returns a cluster with the given initial placement.
func New(cfg Config, placement Placement) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(placement) != cfg.Machines {
		return nil, fmt.Errorf("cluster: placement covers %d of %d machines", len(placement), cfg.Machines)
	}
	c := &Cluster{cfg: cfg, machines: make([]Machine, cfg.Machines), inj: faults.New(cfg.Faults),
		clock: make([]uint64, cfg.Machines)}
	for i, jobs := range placement {
		if len(jobs) != cfg.System.Cores {
			return nil, fmt.Errorf("cluster: machine %d has %d jobs for %d cores", i, len(jobs), cfg.System.Cores)
		}
		c.machines[i] = Machine{Jobs: append([]string(nil), jobs...)}
	}
	return c, nil
}

// Machines returns the current state of every machine.
func (c *Cluster) Machines() []Machine { return c.machines }

// Round returns the number of completed evaluation rounds.
func (c *Cluster) Round() int { return c.round }

// event appends one audit-log entry for the current round and bumps the
// matching telemetry counter (events.degraded, events.failed, ...).
func (c *Cluster) event(machine int, kind, detail string) {
	c.Events = append(c.Events, Event{Round: c.round, Machine: machine, Kind: kind, Detail: detail})
	c.tel.Counter("events." + kind).Inc()
}

// EvaluateRound simulates every serving machine for RoundQuanta quanta
// and refreshes its ASM slowdown estimates, degrading rather than
// aborting on per-machine failures:
//
//   - each serving machine is evaluated once;
//   - a machine whose round fails keeps serving its previous estimates,
//     marked Degraded, for up to StaleTTL rounds;
//   - when the TTL is exhausted (or the machine has no prior
//     estimates to serve) it is marked Failed and its jobs are drained
//     onto the survivors under the DrainSLABound admission bound;
//   - Failed machines are probed once per round and return to service
//     (idle, Healthy) when the probe succeeds; parked jobs are then
//     re-placed onto whichever machines admit them.
//
// It returns an error only when no machine is serving at the end of the
// round — the cluster equivalent of total loss.
func (c *Cluster) EvaluateRound() error {
	for i := range c.machines {
		m := &c.machines[i]
		if m.Health == Failed {
			c.probeRecovery(i)
			continue
		}
		c.traceRound(i)
		if len(m.Jobs) == 0 {
			// An idle machine has nothing to evaluate; it stays Healthy
			// and admits work trivially.
			m.Slowdowns = nil
			m.LastErr = nil
			continue
		}
		sd, err := c.evaluateOnce(i)
		if err == nil {
			m.Slowdowns = sd
			m.Health = Healthy
			m.StaleRounds = 0
			m.LastErr = nil
			c.record(i)
			continue
		}
		m.LastErr = err
		if m.Slowdowns != nil && m.StaleRounds < c.cfg.staleTTL() {
			m.Health = Degraded
			m.StaleRounds++
			c.event(i, "degraded", fmt.Sprintf("serving stale estimates (age %d/%d): %v",
				m.StaleRounds, c.cfg.staleTTL(), err))
			continue
		}
		m.Health = Failed
		c.event(i, "failed", err.Error())
		c.drainMachine(i)
	}
	c.replaceUnplaced()
	c.round++
	serving := 0
	for i := range c.machines {
		if c.machines[i].Health != Failed {
			serving++
		}
	}
	c.tel.Counter("rounds").Inc()
	c.tel.Gauge("serving").Set(int64(serving))
	c.tel.Gauge("unplaced").Set(int64(len(c.Unplaced)))
	if serving == 0 {
		return fmt.Errorf("cluster: all %d machines failed (round %d)", len(c.machines), c.round-1)
	}
	return nil
}

// record synthesizes one quantum record per job on machine i from its
// freshly refreshed estimates and hands them to the attached recorder.
func (c *Cluster) record(i int) {
	if c.rec == nil {
		return
	}
	m := &c.machines[i]
	roundCycles := c.cfg.System.Quantum * uint64(c.cfg.RoundQuanta)
	for a, sd := range m.Slowdowns {
		c.rec.Record(&telemetry.QuantumRecord{
			Mix:      fmt.Sprintf("machine%d", i),
			App:      a,
			Bench:    m.Jobs[a],
			Quantum:  c.round,
			Actual:   sd,
			EndCycle: uint64(c.round+1) * roundCycles,
		})
	}
}

// probeRecovery gives a Failed machine one chance per round to re-enter
// service. A machine still inside an injected outage window stays down;
// otherwise the probe succeeds unless the injector fails it, and the
// machine returns Healthy and idle (its jobs were drained when it
// failed), eligible for parked jobs and new admissions.
func (c *Cluster) probeRecovery(i int) {
	m := &c.machines[i]
	if m.outageLeft > 0 {
		m.outageLeft--
		return
	}
	if err := c.inj.FailEval(i, c.round); err != nil {
		m.LastErr = err
		return
	}
	m.Health = Healthy
	m.StaleRounds = 0
	m.LastErr = nil
	m.Slowdowns = nil
	c.event(i, "recovered", "probe succeeded; machine idle and admitting")
}

// evaluateOnce runs one machine's round: an injected outage or
// evaluation failure stands in for the run, otherwise the machine's mix
// is evaluated.
func (c *Cluster) evaluateOnce(i int) ([]float64, error) {
	m := &c.machines[i]
	if m.outageLeft > 0 {
		m.outageLeft--
		return nil, &faults.Fault{Kind: faults.Outage, Site: fmt.Sprintf("machine %d round %d", i, c.round)}
	}
	if c.inj.OutageStarts(i, c.round) {
		m.outageLeft = c.inj.OutageLen() - 1
		c.event(i, "outage", fmt.Sprintf("transient outage for %d round(s)", c.inj.OutageLen()))
		return nil, &faults.Fault{Kind: faults.Outage, Site: fmt.Sprintf("machine %d round %d", i, c.round)}
	}
	if err := c.inj.FailEval(i, c.round); err != nil {
		return nil, err
	}
	return c.evaluate(i, m.Jobs)
}

// evaluate runs one machine's mix and returns the mean ASM estimates over
// the round's quanta. Estimator input passes through the fault injector
// (which may corrupt a snapshot's counters) and the Sanitize guard (which
// replaces the resulting NaN/Inf with the previous quantum's estimate).
func (c *Cluster) evaluate(machine int, jobs []string) ([]float64, error) {
	for _, name := range jobs {
		if _, ok := workload.ByName(name); !ok {
			return nil, fmt.Errorf("unknown job %q", name)
		}
	}
	asm := corrupted{core.Sanitize(core.NewASM()), c.inj, fmt.Sprintf("machine %d round %d", machine, c.round)}
	warm := min(1, c.cfg.RoundQuanta-1) // the first quantum warms structures when we can afford it
	sums := make([]float64, len(jobs))
	run := exp.MixRun{
		Config:     c.cfg.System,
		Mix:        workload.Mix{Names: jobs},
		Estimators: []core.Estimator{asm},
		Warmup:     warm,
		Measured:   c.cfg.RoundQuanta - warm,
		Telemetry:  c.node(machine),
		OnQuantum: func(_ *sim.QuantumStats, _ []float64, est map[string][]float64) {
			for i, v := range est[asm.Name()] {
				sums[i] += v
			}
		},
	}
	// The machine's tracer sees this round at the node-local clock: the
	// offset lays rounds out sequentially (each sim starts at cycle zero),
	// and the clock advances by however many cycles the run covered — also
	// on a failed run, whose traced quanta are still in the file.
	tr := run.Telemetry.Trace
	tr.SetClockOffset(c.clock[machine])
	sys, err := run.Run(context.TODO())
	if sys != nil {
		c.clock[machine] += sys.Cycle()
		tr.SetClockOffset(c.clock[machine])
	}
	if err != nil {
		return nil, err
	}
	for i := range sums {
		sums[i] /= float64(run.Measured)
		if math.IsNaN(sums[i]) || math.IsInf(sums[i], 0) {
			return nil, fmt.Errorf("non-finite estimate for job %q", jobs[i])
		}
	}
	return sums, nil
}

// corrupted is an estimator fed each quantum's snapshot as the fault
// injector may corrupt it at site. The run's ground truth and quantum
// records keep reading the pristine counters.
type corrupted struct {
	core.Estimator
	inj  *faults.Injector
	site string
}

// Estimate implements core.Estimator.
func (e corrupted) Estimate(st *sim.QuantumStats) []float64 {
	st, _ = e.inj.CorruptStats(e.site, st)
	return e.Estimator.Estimate(st)
}

// drainMachine reschedules a failed machine's jobs onto surviving
// machines, enforcing the SLA admission bound during re-placement. Jobs
// no survivor can admit are parked in Unplaced and retried every round.
func (c *Cluster) drainMachine(from int) {
	m := &c.machines[from]
	jobs := m.Jobs
	m.Jobs = nil
	m.Slowdowns = nil
	for _, job := range jobs {
		to := c.placeJob(job)
		c.Drains = append(c.Drains, Drain{Round: c.round, Job: job, From: from, To: to})
		if to < 0 {
			c.Unplaced = append(c.Unplaced, job)
			c.event(from, "park", fmt.Sprintf("no machine admits %q under SLA bound %.2f", job, c.cfg.drainBound()))
			continue
		}
		c.machines[to].Jobs = append(c.machines[to].Jobs, job)
		c.event(to, "drain", fmt.Sprintf("absorbed %q from machine %d", job, from))
	}
}

// replaceUnplaced retries admission for parked jobs at the end of every
// round, so capacity freed by recoveries or migrations is reused.
func (c *Cluster) replaceUnplaced() {
	if len(c.Unplaced) == 0 {
		return
	}
	var still []string
	for _, job := range c.Unplaced {
		to := c.placeJob(job)
		if to < 0 {
			still = append(still, job)
			continue
		}
		c.machines[to].Jobs = append(c.machines[to].Jobs, job)
		c.Drains = append(c.Drains, Drain{Round: c.round, Job: job, From: -1, To: to})
		c.event(to, "replace", fmt.Sprintf("admitted parked job %q", job))
	}
	c.Unplaced = still
}

// placeJob picks the admitting survivor with the most headroom — fewest
// jobs, then lowest max slowdown — or -1 when no machine admits the job
// under the drain SLA bound. A job that no longer resolves to a known
// benchmark is never placed: re-placing it would poison the next machine's
// evaluation and cascade the failure through the cluster.
func (c *Cluster) placeJob(job string) int {
	if _, ok := workload.ByName(job); !ok {
		return -1
	}
	best := -1
	for i := range c.machines {
		m := &c.machines[i]
		if m.Health == Failed {
			continue
		}
		ok, err := c.CanAdmit(i, c.cfg.drainBound())
		if err != nil || !ok {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &c.machines[best]
		if len(m.Jobs) < len(b.Jobs) ||
			(len(m.Jobs) == len(b.Jobs) && m.MaxSlowdown() < b.MaxSlowdown()) {
			best = i
		}
	}
	return best
}

// Rebalance performs one slowdown-aware migration: the most-slowed job on
// the machine with the worst unfairness swaps with the least-slowed job
// on the machine with the best. It returns false when the spread is
// already within tolerance (no migration pays off). Failed machines and
// machines whose estimates do not match their current job list (mid-drain
// or just-migrated) are skipped; with fewer than two candidates there is
// nothing to balance.
func (c *Cluster) Rebalance(tolerance float64) (bool, error) {
	worst, best := -1, -1
	evaluated := 0
	for i, m := range c.machines {
		if m.Health == Failed || m.Slowdowns == nil {
			continue
		}
		evaluated++
		if len(m.Slowdowns) != len(m.Jobs) {
			continue // stale composition: wait for the next round
		}
		if worst < 0 || m.MaxSlowdown() > c.machines[worst].MaxSlowdown() {
			worst = i
		}
		if best < 0 || m.MaxSlowdown() < c.machines[best].MaxSlowdown() {
			best = i
		}
	}
	if evaluated == 0 {
		return false, fmt.Errorf("cluster: no evaluated machines")
	}
	if worst < 0 || best < 0 || worst == best ||
		c.machines[worst].MaxSlowdown()-c.machines[best].MaxSlowdown() <= tolerance {
		return false, nil
	}
	// Victim: the most-slowed job on the worst machine. Replacement: the
	// least-slowed job on the best machine.
	vIdx := argmax(c.machines[worst].Slowdowns)
	rIdx := argmin(c.machines[best].Slowdowns)
	mv := Migration{
		Round:   c.round,
		Job:     c.machines[worst].Jobs[vIdx],
		From:    worst,
		To:      best,
		Swapped: c.machines[best].Jobs[rIdx],
	}
	c.machines[worst].Jobs[vIdx], c.machines[best].Jobs[rIdx] =
		c.machines[best].Jobs[rIdx], c.machines[worst].Jobs[vIdx]
	// Estimates are stale after a migration.
	c.machines[worst].Slowdowns = nil
	c.machines[best].Slowdowns = nil
	c.Migrations = append(c.Migrations, mv)
	c.traceMigration(mv)
	return true, nil
}

// CanAdmit implements slowdown-based admission control: a machine may
// accept new work only while every current tenant's estimated slowdown is
// within the SLA bound (Section 7.5: "prevent new applications from being
// scheduled on machines where currently running applications are
// experiencing significant slowdowns"). Failed machines never admit; idle
// machines admit trivially; Degraded machines are judged on their stale
// (TTL-bounded) estimates — the best information available.
func (c *Cluster) CanAdmit(machine int, slaBound float64) (bool, error) {
	if machine < 0 || machine >= len(c.machines) {
		return false, fmt.Errorf("cluster: no machine %d", machine)
	}
	m := c.machines[machine]
	if m.Health == Failed {
		return false, nil
	}
	if len(m.Jobs) == 0 {
		return true, nil
	}
	if m.Slowdowns == nil {
		return false, fmt.Errorf("cluster: machine %d not evaluated", machine)
	}
	for _, sd := range m.Slowdowns {
		if sd > slaBound {
			return false, nil
		}
	}
	return true, nil
}

// WorstSlowdown returns the highest slowdown anywhere in the cluster —
// the SLA-violation metric migration tries to reduce.
func (c *Cluster) WorstSlowdown() float64 {
	worst := 0.0
	for _, m := range c.machines {
		if s := m.MaxSlowdown(); s > worst {
			worst = s
		}
	}
	return worst
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

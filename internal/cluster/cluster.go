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
// Each machine is evaluated once per round: the evaluation is a pure
// function of its jobs and config, so running it again could only repeat
// a failure, and a failed evaluation fails the round.
//
// Jobs are stationary synthetic streams, so re-running a machine's mix
// after a migration is equivalent to continuing it — the abstraction that
// keeps rounds cheap.
package cluster

import (
	"context"
	"fmt"

	"asmsim/internal/core"
	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
	"asmsim/internal/metrics"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// Config describes the cluster.
type Config struct {
	// Machines is the number of machines.
	Machines int
	// System configures each machine (Cores jobs per machine).
	System sim.Config
	// RoundQuanta is how many quanta each evaluation round simulates.
	RoundQuanta int
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
	return c.System.Validate()
}

// Placement assigns job names to machines (one slice per machine, each of
// length System.Cores).
type Placement [][]string

// Machine is one machine's most recent evaluation.
type Machine struct {
	Jobs []string
	// Slowdowns are the ASM estimates from the machine's last
	// evaluation, nil until it is evaluated and again after a migration
	// or a failed evaluation.
	Slowdowns []float64
}

// MaxSlowdown returns the machine's unfairness.
func (m Machine) MaxSlowdown() float64 { return metrics.MaxSlowdown(m.Slowdowns) }

// Cluster evaluates placements and rebalances them using ASM estimates.
type Cluster struct {
	cfg      Config
	machines []Machine
	// Migrations records every (round, job, from, to) balancer decision.
	Migrations []Migration
	round      int
	tel        *telemetry.Registry
	rec        telemetry.Recorder
	// trace is the cluster's one tracer; nodes[i] is machine i's view
	// of it (see SetTelemetry).
	trace *evtrace.Tracer
	nodes []*evtrace.Tracer
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

// New returns a cluster with the given initial placement. Every job must
// name a known benchmark.
func New(cfg Config, placement Placement) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(placement) != cfg.Machines {
		return nil, fmt.Errorf("cluster: placement covers %d of %d machines", len(placement), cfg.Machines)
	}
	c := &Cluster{cfg: cfg, machines: make([]Machine, cfg.Machines), nodes: make([]*evtrace.Tracer, cfg.Machines)}
	for i, jobs := range placement {
		if len(jobs) != cfg.System.Cores {
			return nil, fmt.Errorf("cluster: machine %d has %d jobs for %d cores", i, len(jobs), cfg.System.Cores)
		}
		for _, name := range jobs {
			if _, ok := workload.ByName(name); !ok {
				return nil, fmt.Errorf("cluster: machine %d: unknown job %q", i, name)
			}
		}
		c.machines[i] = Machine{Jobs: append([]string(nil), jobs...)}
	}
	return c, nil
}

// Machines returns the current state of every machine.
func (c *Cluster) Machines() []Machine { return c.machines }

// Round returns the number of completed evaluation rounds.
func (c *Cluster) Round() int { return c.round }

// EvaluateRound simulates every machine once for RoundQuanta quanta and
// refreshes its ASM slowdown estimates. A machine whose evaluation fails
// is left unevaluated (nil Slowdowns), and the round returns the first
// such error, naming the machine and the round.
func (c *Cluster) EvaluateRound() error {
	c.traceInstant("round", map[string]any{"round": c.round})
	var first error
	for i := range c.machines {
		sd, err := c.evaluate(i)
		c.machines[i].Slowdowns = sd
		if err != nil {
			if first == nil {
				first = fmt.Errorf("cluster: machine %d round %d: %w", i, c.round, err)
			}
			continue
		}
		c.record(i)
	}
	c.round++
	c.tel.Counter("rounds").Inc()
	return first
}

// record synthesizes one quantum record per job on machine i from its
// freshly refreshed estimates and hands them to the attached recorder.
func (c *Cluster) record(i int) {
	if c.rec == nil {
		return
	}
	m := &c.machines[i]
	for a, sd := range m.Slowdowns {
		c.rec.Record(&telemetry.QuantumRecord{
			Mix:      fmt.Sprintf("machine%d", i),
			App:      a,
			Bench:    m.Jobs[a],
			Quantum:  c.round,
			Actual:   sd,
			EndCycle: uint64(c.round+1) * c.roundCycles(),
		})
	}
}

// evaluate runs one machine's mix and returns the mean ASM estimates over
// the round's quanta. The Sanitize guard keeps every estimate finite and
// in range.
func (c *Cluster) evaluate(machine int) ([]float64, error) {
	jobs := c.machines[machine].Jobs
	asm := core.Sanitize(core.NewASM())
	warm := min(1, c.cfg.RoundQuanta-1) // the first quantum warms structures when we can afford it
	sums := make([]float64, len(jobs))
	run := exp.MixRun{
		Config:     c.cfg.System,
		Mix:        workload.Mix{Names: jobs},
		Estimators: []core.Estimator{asm},
		Warmup:     warm,
		Measured:   c.cfg.RoundQuanta - warm,
		Telemetry:  telemetry.Options{Trace: c.nodes[machine]},
		OnQuantum: func(_ *sim.QuantumStats, _ []float64, est map[string][]float64) {
			for i, v := range est[asm.Name()] {
				sums[i] += v
			}
		},
	}
	if _, err := run.Run(context.TODO()); err != nil {
		return nil, err
	}
	for i := range sums {
		sums[i] /= float64(run.Measured)
	}
	return sums, nil
}

// Rebalance performs one slowdown-aware migration: the most-slowed job on
// the machine with the worst unfairness swaps with the least-slowed job
// on the machine with the best. It returns false when the spread is
// already within tolerance (no migration pays off). Machines without
// estimates (unevaluated, or just migrated) are skipped; with fewer than
// two candidates there is nothing to balance.
func (c *Cluster) Rebalance(tolerance float64) (bool, error) {
	worst, best := -1, -1
	for i, m := range c.machines {
		if m.Slowdowns == nil {
			continue
		}
		if worst < 0 || m.MaxSlowdown() > c.machines[worst].MaxSlowdown() {
			worst = i
		}
		if best < 0 || m.MaxSlowdown() < c.machines[best].MaxSlowdown() {
			best = i
		}
	}
	if worst < 0 {
		return false, fmt.Errorf("cluster: no evaluated machines")
	}
	if worst == best || c.machines[worst].MaxSlowdown()-c.machines[best].MaxSlowdown() <= tolerance {
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
// experiencing significant slowdowns"). A machine without estimates
// cannot be judged and is an error.
func (c *Cluster) CanAdmit(machine int, slaBound float64) (bool, error) {
	if machine < 0 || machine >= len(c.machines) {
		return false, fmt.Errorf("cluster: no machine %d", machine)
	}
	sds := c.machines[machine].Slowdowns
	if sds == nil {
		return false, fmt.Errorf("cluster: machine %d not evaluated", machine)
	}
	for _, sd := range sds {
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

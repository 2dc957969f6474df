package cluster

import "asmsim/internal/telemetry"

// SetTelemetry attaches the cluster's observers. With o.Metrics, each
// completed round increments the rounds counter under the "cluster"
// scope. o.Recorder (an SLO engine, say) receives one synthesized
// record per job after every successful machine evaluation (Mix
// "machine<i>", Quantum = the round index, Actual = the job's fresh ASM
// estimate, EndCycle = the round's end on the cluster clock), so
// cluster-wide QoS bounds tick on the round clock.
//
// o.Trace receives every machine's simulations, each through the
// machine's node view (evtrace.Tracer.Node: machine k's app slot j is
// pid k*PidStride+j, its apps are named "n<k>/<app>"), on one cluster
// clock of RoundQuanta quanta per round: round r's simulations start
// at cycle r × RoundQuanta × Quantum. The tracer also receives one
// "round" instant at each round's start and one "migration" instant per
// balancer decision, whose args mirror its Migrations entry. The caller
// opens and closes the tracer.
//
// Balancer decisions are identical with or without observers; the zero
// value (the default) disables all of it.
func (c *Cluster) SetTelemetry(o telemetry.Options) {
	c.tel = o.Metrics.Scope("cluster")
	c.rec = o.Recorder
	c.trace = o.Trace
	for k := range c.nodes {
		c.nodes[k] = o.Trace.Node(k)
	}
}

// roundCycles is the length of one evaluation round on the cluster
// clock: every machine simulates exactly RoundQuanta quanta per round.
func (c *Cluster) roundCycles() uint64 {
	return c.cfg.System.Quantum * uint64(c.cfg.RoundQuanta)
}

// traceInstant moves the cluster clock to the start of the current
// round and writes one cluster instant there.
func (c *Cluster) traceInstant(name string, args map[string]any) {
	c.trace.SetClockOffset(uint64(c.round) * c.roundCycles())
	c.trace.Instant(name, "cluster", 0, args)
}

// traceMigration writes one migration decision; the args mirror the
// Migrations ledger entry exactly.
func (c *Cluster) traceMigration(mv Migration) {
	c.traceInstant("migration", map[string]any{
		"round": mv.Round, "job": mv.Job,
		"from": mv.From, "to": mv.To, "swapped": mv.Swapped,
	})
}

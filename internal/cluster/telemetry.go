package cluster

import (
	"encoding/json"
	"io"
	"slices"

	"asmsim/internal/telemetry"
)

// SetTelemetry attaches the cluster's observers. o observes the
// cluster as a whole: with o.Metrics, every audit-log entry bumps a
// counter named events.<kind> under the "cluster" scope, each completed
// round increments rounds, and the serving/unplaced gauges track the
// cluster's health at the end of the latest round. o.Recorder (an SLO
// engine, say) receives one synthesized record per job after every
// successful machine evaluation (Mix "machine<i>", Quantum = the round
// index, Actual = the job's fresh ASM estimate, EndCycle = the round's
// end on a clock of RoundQuanta quanta per round), so cluster-wide QoS
// bounds tick on the round clock.
//
// nodes[i] observes machine i: it is the Telemetry of every simulation
// the machine runs, and nodes[i].Trace also receives the machine's round
// and migration instants on a node-local clock — rounds re-run the mix
// from simulated cycle zero, so the cluster advances the tracer's clock
// offset between them. The shared round marks are what `tracesum merge`
// aligns the node clocks on; the migration instants cross-check the
// Migrations ledger one-to-one. A machine without an entry is
// unobserved. The caller opens and closes every sink.
//
// Balancer decisions are identical with or without observers; the zero
// values (the default) disable all of it.
func (c *Cluster) SetTelemetry(o telemetry.Options, nodes ...telemetry.Options) {
	c.tel = o.Metrics.Scope("cluster")
	c.rec = o.Recorder
	c.nodes = slices.Clone(nodes)
}

// node returns machine i's observers (the zero value when it has none).
func (c *Cluster) node(i int) telemetry.Options {
	if i < len(c.nodes) {
		return c.nodes[i]
	}
	return telemetry.Options{}
}

// traceRound emits machine i's round-boundary instant: the node-local
// cycle at which the machine entered the current evaluation round.
// Every serving (non-Failed) machine emits one per round — including
// degraded rounds that end up simulating nothing — so trace consumers
// can reconcile the per-node clocks on shared round numbers.
func (c *Cluster) traceRound(i int) {
	tr := c.node(i).Trace
	if tr == nil {
		return
	}
	tr.SetClockOffset(c.clock[i])
	tr.Instant("round", "cluster", 0, map[string]any{
		"round": c.round, "cycle": c.clock[i], "node": i,
	})
}

// traceMigration emits one migration decision into both affected
// nodes' traces, at each node's current local clock. The args mirror
// the Migrations ledger entry exactly, so a merged trace's migration
// instants reconcile with the ledger one-to-one.
func (c *Cluster) traceMigration(mv Migration) {
	args := map[string]any{
		"round": mv.Round, "job": mv.Job,
		"from": mv.From, "to": mv.To, "swapped": mv.Swapped,
	}
	for _, i := range []int{mv.From, mv.To} {
		if tr := c.node(i).Trace; tr != nil {
			tr.SetClockOffset(c.clock[i])
			tr.Instant("migration", "cluster", 0, args)
		}
	}
}

// WriteEventsJSONL streams the robustness audit log (c.Events) as one
// JSON object per line.
func (c *Cluster) WriteEventsJSONL(w io.Writer) error { return writeJSONL(w, c.Events) }

// WriteDrainsJSONL streams the drain log (c.Drains) as one JSON object
// per line.
func (c *Cluster) WriteDrainsJSONL(w io.Writer) error { return writeJSONL(w, c.Drains) }

// WriteMigrationsJSONL streams the balancer's migration log as one JSON
// object per line.
func (c *Cluster) WriteMigrationsJSONL(w io.Writer) error { return writeJSONL(w, c.Migrations) }

// writeJSONL encodes each record as one JSON object per line.
func writeJSONL[T any](w io.Writer, records []T) error {
	enc := json.NewEncoder(w)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

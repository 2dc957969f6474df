package cluster

import (
	"encoding/json"
	"io"

	"asmsim/internal/telemetry"
)

// SetTelemetry attaches the cluster's observers. With o.Metrics, every
// audit-log entry bumps a counter named events.<kind> under the
// "cluster" scope, each completed round increments rounds, and the
// serving/unplaced gauges track the cluster's health at the end of the
// latest round. o.Recorder (an SLO engine, say) receives one synthesized
// record per job after every successful machine evaluation (Mix
// "machine<i>", Quantum = the round index, Actual = the job's fresh ASM
// estimate, EndCycle = the round's end on a clock of RoundQuanta quanta
// per round), so cluster-wide QoS bounds tick on the round clock.
// Balancer decisions are identical with or without observers; the zero
// value (the default) disables all of it.
func (c *Cluster) SetTelemetry(o telemetry.Options) {
	c.tel = o.Metrics.Scope("cluster")
	c.rec = o.Recorder
}

// WriteEventsJSONL streams the robustness audit log (c.Events) as one
// JSON object per line.
func (c *Cluster) WriteEventsJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range c.Events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// WriteDrainsJSONL streams the drain log (c.Drains) as one JSON object
// per line.
func (c *Cluster) WriteDrainsJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, d := range c.Drains {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// WriteMigrationsJSONL streams the balancer's migration log as one JSON
// object per line.
func (c *Cluster) WriteMigrationsJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range c.Migrations {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}

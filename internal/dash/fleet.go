package dash

import (
	_ "embed"
	"net/http"
	"sort"

	"asmsim/internal/evtrace"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
)

//go:embed static/fleet.html
var fleetHTML []byte

// FleetNode is one scraped node's latest state as the poller saw it: the
// raw /metrics samples, the node's mergeable histogram snapshots, and
// (when the node exposes one) its latest interference attribution
// matrix. The dashboard renders these; the poller in internal/serve
// fills them in.
type FleetNode struct {
	// Node is the poller's index for this target (stable across polls).
	Node int `json:"node"`
	// URL is the target's base URL.
	URL string `json:"url"`
	// Healthy reports whether the last poll scraped cleanly; Err carries
	// the failure otherwise. A node that has never answered is unhealthy
	// with an empty sample set.
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
	// Queued and Running mirror the node's serve_queued / serve_running
	// gauges (0 when the node does not run the job service).
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	// Samples is the node's full /metrics exposition, parsed strictly:
	// sample key (name plus rendered labels) -> value.
	Samples map[string]float64 `json:"samples,omitempty"`
	// Hist holds the node's mergeable histogram snapshots by registry
	// name (from /debug/asm/hist); unlike the precomputed quantiles on
	// /metrics these can be summed across nodes.
	Hist map[string]telemetry.HistogramSnapshot `json:"hist,omitempty"`
	// Attribution is the node's latest interference attribution matrix
	// (from /debug/asm/attribution), when the node exposes one.
	Attribution *evtrace.QuantumAttribution `json:"attribution,omitempty"`
	// Endpoints is per-endpoint scrape health: a node degrades one
	// endpoint at a time instead of dropping the whole scrape, so a
	// momentarily missing endpoint leaves the others fresh and the stale
	// one marked with its age in polls.
	Endpoints map[string]EndpointHealth `json:"endpoints,omitempty"`
	// Alerts is the node's SLO alert statuses (from
	// /debug/asm/alerts.json), when the node evaluates any.
	Alerts []slo.AlertStatus `json:"alerts,omitempty"`
}

// EndpointHealth is one scrape endpoint's state on one node.
type EndpointHealth struct {
	// OK reports whether the last poll scraped this endpoint cleanly.
	OK bool `json:"ok"`
	// Err carries the last failure when !OK.
	Err string `json:"err,omitempty"`
	// StalePolls counts consecutive failed polls: the endpoint's data
	// shown elsewhere in the node is that many polls old (0 = fresh).
	StalePolls uint64 `json:"stale_polls,omitempty"`
}

// FleetAlert is one node's alert in the fleet-wide rollup.
type FleetAlert struct {
	// Node is the reporting node's index.
	Node int `json:"node"`
	slo.AlertStatus
}

// FleetHistogram is one metric's fleet-wide distribution: per-node
// snapshots summed bucket-by-bucket, quantiles taken from the merged
// buckets. Because merging is exact (see telemetry.HistogramSnapshot),
// these are the same quantiles a single histogram fed by every node's
// samples would report.
type FleetHistogram struct {
	// Nodes counts how many nodes contributed observations.
	Nodes  int    `json:"nodes"`
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	MaxNs  uint64 `json:"max_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P90Ns  uint64 `json:"p90_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
}

// FleetState is the cluster-wide view served at /debug/asm/fleet.json:
// every node's latest scrape plus the derived fleet aggregates.
type FleetState struct {
	// Polls counts completed poll sweeps.
	Polls uint64 `json:"polls"`
	// Nodes is every target's latest state, in target order.
	Nodes []FleetNode `json:"nodes"`
	// Hist is the fleet-wide merged distribution per histogram name.
	Hist map[string]FleetHistogram `json:"hist"`
	// Attribution is the cluster-level attribution matrix: each node's
	// victim×cause block embedded on the diagonal (apps renamed
	// "n<node>/<name>", per-node system columns folded into the cluster
	// system column), nil until some node reports one. Off-diagonal
	// blocks are zero by construction — nodes do not share a memory
	// system, so cross-node interference cannot exist.
	Attribution *evtrace.QuantumAttribution `json:"attribution,omitempty"`
	// Alerts is the fleet-wide alert rollup: every node's non-inactive
	// SLO alerts, node-tagged, in node order.
	Alerts []FleetAlert `json:"alerts,omitempty"`
	// AlertCounts tallies every node alert (including inactive) by
	// state, so "is anything firing anywhere" is one map lookup.
	AlertCounts map[string]int `json:"alert_counts,omitempty"`
}

// FleetSource supplies the fleet view; the poller in internal/serve
// implements it. The dashboard only renders what the source returns, so
// the aggregation cost is paid on the poller's clock, never a
// simulation's.
type FleetSource interface {
	Fleet() FleetState
}

// SetFleetSource points /debug/asm/fleet at src (replace semantics, like
// SetRegistry). Nil-safe.
func (s *Server) SetFleetSource(src FleetSource) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.fleetSrc = src
	s.mu.Unlock()
}

// AggregateFleet derives the fleet view from per-node scrapes: histogram
// snapshots merge bucket-wise per name, attribution matrices block-embed
// into one cluster matrix. The poller calls this under its own lock; the
// nodes slice is retained, so hand in a copy if the caller keeps
// mutating it.
func AggregateFleet(polls uint64, nodes []FleetNode) FleetState {
	st := FleetState{Polls: polls, Nodes: nodes, Hist: map[string]FleetHistogram{}}
	merged := map[string]*telemetry.HistogramSnapshot{}
	contrib := map[string]int{}
	for _, n := range nodes {
		for name, snap := range n.Hist {
			m := merged[name]
			if m == nil {
				m = &telemetry.HistogramSnapshot{}
				merged[name] = m
			}
			m.Merge(snap)
			if snap.Count > 0 {
				contrib[name]++
			}
		}
	}
	for name, m := range merged {
		st.Hist[name] = FleetHistogram{
			Nodes:  contrib[name],
			Count:  m.Count,
			MeanNs: m.Mean(),
			MaxNs:  m.Max,
			P50Ns:  m.Quantile(0.50),
			P90Ns:  m.Quantile(0.90),
			P99Ns:  m.Quantile(0.99),
			P999Ns: m.Quantile(0.999),
		}
	}
	st.Attribution = fleetAttribution(nodes)
	for _, n := range nodes {
		for _, a := range n.Alerts {
			if st.AlertCounts == nil {
				st.AlertCounts = map[string]int{}
			}
			st.AlertCounts[a.State.String()]++
			if a.State != slo.Inactive {
				st.Alerts = append(st.Alerts, FleetAlert{Node: n.Node, AlertStatus: a})
			}
		}
	}
	return st
}

// fleetAttribution embeds each node's attribution block on the diagonal
// of one cluster matrix (evtrace.BlockDiagonal, the layout the trace merge
// produces), nil until some node reports one. Scraped JSON is outside
// input: a malformed node matrix is skipped, not embedded.
func fleetAttribution(nodes []FleetNode) *evtrace.QuantumAttribution {
	var ids []int
	var blocks []evtrace.QuantumAttribution
	for _, n := range nodes {
		if n.Attribution != nil && n.Attribution.WellFormed() {
			ids = append(ids, n.Node)
			blocks = append(blocks, *n.Attribution)
		}
	}
	if len(blocks) == 0 {
		return nil
	}
	a := evtrace.BlockDiagonal(ids, blocks)
	return &a
}

// fleetResponse is the /debug/asm/fleet.json payload.
type fleetResponse struct {
	// Present is false until SetFleetSource installed a poller.
	Present bool       `json:"present"`
	Fleet   FleetState `json:"fleet"`
}

// handleFleetJSON serves the aggregated fleet view.
func (s *Server) handleFleetJSON(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.fleetSrc
	s.mu.Unlock()
	resp := fleetResponse{Present: src != nil}
	if src != nil {
		resp.Fleet = src.Fleet()
	}
	if resp.Fleet.Nodes == nil {
		resp.Fleet.Nodes = []FleetNode{}
	}
	if resp.Fleet.Hist == nil {
		resp.Fleet.Hist = map[string]FleetHistogram{}
	}
	writeJSON(w, resp)
}

// handleFleet serves the embedded fleet page.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(fleetHTML)
}

// handleHist serves the registry's mergeable histogram snapshots, keyed
// by registry name with sparse buckets. This is the endpoint the fleet
// poller scrapes: /metrics only exposes precomputed quantiles, which
// cannot be combined across nodes, while these snapshots sum exactly.
// Names are sorted into the JSON object deterministically by the
// encoder; an empty or absent registry serves {}.
func (s *Server) handleHist(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	m := reg.SnapshotHistograms()
	if m == nil {
		m = map[string]telemetry.HistogramSnapshot{}
	}
	writeJSON(w, m)
}

// FleetHistNames returns st.Hist's keys sorted, for deterministic
// rendering and tests.
func (st FleetState) FleetHistNames() []string {
	names := make([]string, 0, len(st.Hist))
	for name := range st.Hist {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

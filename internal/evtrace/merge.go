package evtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Cluster trace merge: fold N per-node trace files (one per cluster
// machine, each that machine's Trace in cluster.SetTelemetry) into a
// single Perfetto-loadable chrome-trace file.
//
// Three concerns meet here:
//
//   - pid namespacing: node k's app j becomes pid k*PidStride+j, with
//     process_name/process_sort_index metadata so Perfetto groups each
//     node's apps into one contiguous block;
//   - clock reconciliation: each node advances evaluation rounds at its
//     own pace (failed rounds simulate nothing), so node-local clocks
//     skew apart. Nodes emit a "round" instant at every round start;
//     the merge aligns those shared round boundaries — cluster time for
//     round r is the latest node-local time any node reached it — and
//     reports the largest residual skew it had to absorb;
//   - cluster attribution: the merged file ends with one cluster-level
//     N_total×(N_total+1) attribution instant whose per-node diagonal
//     blocks are the nodes' own summarized matrices, copied bit-exactly
//     (off-diagonal blocks are zero: nodes share no hardware).
//
// Per-node attribution instants are re-emitted under the name
// "node-attribution" so a plain `tracesum` summary of the merged file
// reads the cluster-level matrix instead of accidentally summing
// unrelated nodes' matrices into one.

// PidStride is the merged-trace pid namespace: node k's app j is pid
// k*PidStride + j. One thousand pids per node leaves room for any
// realistic per-machine core count while keeping pids readable.
const PidStride = 1000

// RawEvent is one chrome-trace event kept re-marshalable: Args pass
// through as raw JSON so merged attribution payloads stay bit-identical
// to their node-file originals.
type RawEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Cat  string          `json:"cat,omitempty"`
	Ts   *float64        `json:"ts,omitempty"`
	Dur  *float64        `json:"dur,omitempty"`
	Pid  *int            `json:"pid,omitempty"`
	Tid  *int            `json:"tid,omitempty"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// rawTraceDoc is the chrome-trace envelope for loading and re-emitting.
type rawTraceDoc struct {
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
	TraceEvents     []RawEvent     `json:"traceEvents"`
}

// RoundMark is one node's record of reaching an evaluation round:
// Cycle is the node-local clock (exact, in cycles) at the round start.
type RoundMark struct {
	Round int
	Cycle uint64
}

// MigrationMark is one migration instant read back from a node trace.
type MigrationMark struct {
	Round   int    `json:"round"`
	Job     string `json:"job"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Swapped string `json:"swapped"`
}

// NodeTrace is one node's parsed trace file.
type NodeTrace struct {
	Node            int
	Path            string
	DisplayTimeUnit string
	Events          []RawEvent
	// Quanta is the node's per-quantum attribution series, in emission
	// order (round after round on the node-local clock).
	Quanta []QuantumAttribution
	// Rounds are the node's round-boundary instants, in round order.
	Rounds []RoundMark
	// Migrations are the migration instants recorded in this node's
	// trace (the node was the From or To side of each).
	Migrations []MigrationMark
	// Names are the node's app slot names from its first attribution
	// quantum (slot composition may change later; the slot count not).
	Names []string
}

// LoadNodeTrace reads one node's trace file and parses it (ParseTrace).
func LoadNodeTrace(path string, node int) (*NodeTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("evtrace: %w", err)
	}
	nt, err := ParseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("evtrace: %s: %w", path, err)
	}
	nt.Node, nt.Path = node, path
	return nt, nil
}

// ParseTrace parses a chrome-trace document, extracting the raw event
// stream plus the attribution series, round marks and migration marks
// that summaries and the merge consume. A malformed attribution, round
// or migration event is an error, not a silently shorter series.
func ParseTrace(data []byte) (*NodeTrace, error) {
	var doc rawTraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("not valid chrome-trace JSON: %w", err)
	}
	nt := &NodeTrace{DisplayTimeUnit: doc.DisplayTimeUnit, Events: doc.TraceEvents}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "attribution" && e.Ph == "i" && e.Args != nil:
			var args struct {
				Attribution QuantumAttribution `json:"attribution"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				return nil, fmt.Errorf("bad attribution event: %w", err)
			}
			nt.Quanta = append(nt.Quanta, args.Attribution)
		case e.Name == "round" && e.Ph == "i" && e.Args != nil:
			var args struct {
				Round int    `json:"round"`
				Cycle uint64 `json:"cycle"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				return nil, fmt.Errorf("bad round event: %w", err)
			}
			nt.Rounds = append(nt.Rounds, RoundMark{Round: args.Round, Cycle: args.Cycle})
		case e.Name == "migration" && e.Ph == "i" && e.Args != nil:
			var mm MigrationMark
			if err := json.Unmarshal(e.Args, &mm); err != nil {
				return nil, fmt.Errorf("bad migration event: %w", err)
			}
			nt.Migrations = append(nt.Migrations, mm)
		}
	}
	if len(nt.Quanta) > 0 {
		nt.Names = nt.Quanta[0].Apps
	}
	sort.SliceStable(nt.Rounds, func(i, j int) bool { return nt.Rounds[i].Round < nt.Rounds[j].Round })
	return nt, nil
}

// Check validates the invariants Perfetto's JSON importer relies on:
// every event names itself, uses a known phase, and carries coherent
// non-negative timestamps and durations. The trace must also hold at
// least one attribution snapshot.
func (nt *NodeTrace) Check() error {
	if u := nt.DisplayTimeUnit; u != "" && u != "ms" && u != "ns" {
		return fmt.Errorf("displayTimeUnit %q (want ms or ns)", u)
	}
	if len(nt.Events) == 0 {
		return fmt.Errorf("empty traceEvents array")
	}
	phases := map[string]bool{"X": true, "M": true, "i": true, "I": true, "C": true, "B": true, "E": true}
	for i, e := range nt.Events {
		if e.Name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		if !phases[e.Ph] {
			return fmt.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ph != "M" {
			if e.Ts == nil {
				return fmt.Errorf("event %d (%s): missing ts", i, e.Name)
			}
			if *e.Ts < 0 {
				return fmt.Errorf("event %d (%s): negative ts %v", i, e.Name, *e.Ts)
			}
		}
		if e.Ph == "X" && e.Dur != nil && *e.Dur < 0 {
			return fmt.Errorf("event %d (%s): negative dur %v", i, e.Name, *e.Dur)
		}
		if e.Pid == nil && e.Ph != "M" {
			return fmt.Errorf("event %d (%s): missing pid", i, e.Name)
		}
	}
	if len(nt.Quanta) == 0 {
		return fmt.Errorf("no attribution events")
	}
	return nil
}

// ClusterRound is one reconciled round boundary: Cycle is the cluster
// clock assigned to it (the latest node-local clock of any node that
// reached the round) and Skew the spread it absorbed (that maximum
// minus the slowest participant's local clock).
type ClusterRound struct {
	Round int    `json:"round"`
	Cycle uint64 `json:"cycle"`
	Skew  uint64 `json:"skew"`
}

// Merged is the folded cluster view of N node traces.
type Merged struct {
	Nodes []*NodeTrace
	// Attribution is the cluster block matrix (BlockDiagonal): apps
	// "n<k>/<app>" in node order; node k's diagonal block is
	// bit-identical to its summarized series (Summarize), clipped to the
	// node's app count.
	Attribution QuantumAttribution
	// Rounds is the reconciled cluster round timeline; MaxSkewCycles is
	// the largest per-round skew absorbed anywhere.
	Rounds        []ClusterRound
	MaxSkewCycles uint64

	// shifts[k] maps node k's round marks to timestamp shifts (cycles),
	// parallel to Nodes[k].Rounds.
	shifts [][]uint64
}

// Merge folds node traces into one cluster view. Nodes keep their given
// order (index = node id in pid namespacing).
func Merge(nodes []*NodeTrace) (*Merged, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("evtrace: merge needs at least one node trace")
	}
	m := &Merged{Nodes: nodes}

	// Reconcile clocks on shared round boundaries.
	rounds := map[int][]uint64{} // round -> participating local cycles
	for _, nt := range nodes {
		for _, rm := range nt.Rounds {
			rounds[rm.Round] = append(rounds[rm.Round], rm.Cycle)
		}
	}
	clusterCycle := map[int]uint64{}
	var order []int
	for r, cycles := range rounds {
		order = append(order, r)
		lo, hi := cycles[0], cycles[0]
		for _, c := range cycles[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		clusterCycle[r] = hi
		if skew := hi - lo; skew > m.MaxSkewCycles {
			m.MaxSkewCycles = skew
		}
		m.Rounds = append(m.Rounds, ClusterRound{Round: r, Cycle: hi, Skew: hi - lo})
	}
	sort.Ints(order)
	sort.Slice(m.Rounds, func(i, j int) bool { return m.Rounds[i].Round < m.Rounds[j].Round })
	m.shifts = make([][]uint64, len(nodes))
	for k, nt := range nodes {
		m.shifts[k] = make([]uint64, len(nt.Rounds))
		for i, rm := range nt.Rounds {
			m.shifts[k][i] = clusterCycle[rm.Round] - rm.Cycle
		}
	}

	// Assemble the cluster matrix from per-node summaries.
	ids := make([]int, len(nodes))
	blocks := make([]QuantumAttribution, len(nodes))
	for k, nt := range nodes {
		ids[k], blocks[k] = k, clipBlock(Summarize(nt.Quanta), nt.Names)
	}
	m.Attribution = BlockDiagonal(ids, blocks)
	return m, nil
}

// clipBlock shapes a node's summary into the well-formed block
// BlockDiagonal embeds: one row per app slot the node named, cause
// columns beyond the slot count dropped, the system column (the node's
// column len(names)) kept, and missing entries zero.
func clipBlock(sum Summary, names []string) QuantumAttribution {
	nk := len(names)
	b := QuantumAttribution{
		Cycles:       sum.Cycles,
		Apps:         names,
		MemRowTotals: make([]float64, nk),
		AppStats:     make([]AppQuantumStats, nk),
	}
	copy(b.MemRowTotals, sum.MemRowTotals)
	copy(b.AppStats, sum.AppStats)
	row := func(m [][]float64, j int) []float64 {
		r := make([]float64, nk+1)
		if j < len(m) {
			copy(r, m[j])
		}
		return r
	}
	for j, name := range names {
		b.Mem = append(b.Mem, row(sum.Mem, j))
		b.Cache = append(b.Cache, row(sum.Cache, j))
		b.AppStats[j].Name = name
	}
	return b
}

// shiftUs returns node k's timestamp shift (in trace µs) for an event
// at local timestamp ts: the shift of the latest round boundary at or
// before ts. Events before the first round mark keep their clock.
func (m *Merged) shiftUs(k int, ts float64) float64 {
	nt := m.Nodes[k]
	shift := uint64(0)
	for i, rm := range nt.Rounds {
		if float64(rm.Cycle)/1000.0 > ts {
			break
		}
		shift = m.shifts[k][i]
	}
	return float64(shift) / 1000.0
}

// ClusterAttribution is the cluster-level attribution snapshot the merged
// file carries as its single "attribution" instant: Attribution, stamped
// quantum 0 and ending at the later of the reconciled last round and the
// longest per-node traced window (Cycles: each node's apps ran for that
// node's cycles, not the sum over nodes).
func (m *Merged) ClusterAttribution() QuantumAttribution {
	qa := m.Attribution
	qa.Quantum, qa.EndCycle = 0, qa.Cycles
	for k, nt := range m.Nodes {
		for i, rm := range nt.Rounds {
			qa.EndCycle = max(qa.EndCycle, rm.Cycle+m.shifts[k][i])
		}
	}
	return qa
}

// WriteTo streams the merged chrome-trace file: header metadata, one
// process group per (node, app), every node event pid-namespaced and
// clock-shifted, and the final cluster attribution instant.
func (m *Merged) WriteTrace(w io.Writer) error {
	doc := rawTraceDoc{
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"tool":            "asmsim tracesum merge",
			"cycles_per_us":   1000,
			"nodes":           len(m.Nodes),
			"pid_stride":      PidStride,
			"max_skew_cycles": m.MaxSkewCycles,
			"rounds":          m.Rounds,
		},
	}
	intp := func(v int) *int { return &v }
	f64p := func(v float64) *float64 { return &v }
	mustArgs := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // static shapes; cannot fail
		}
		return b
	}
	var maxTs float64
	for k, nt := range m.Nodes {
		for j, name := range nt.Names {
			pid := k*PidStride + j
			doc.TraceEvents = append(doc.TraceEvents,
				RawEvent{Name: "process_name", Ph: "M", Pid: intp(pid),
					Args: mustArgs(map[string]any{"name": fmt.Sprintf("node%d/app%d %s", k, j, name)})},
				RawEvent{Name: "process_sort_index", Ph: "M", Pid: intp(pid),
					Args: mustArgs(map[string]any{"sort_index": pid})},
			)
		}
		for _, e := range nt.Events {
			if e.Ph == "M" {
				continue // node-local process metadata replaced above
			}
			out := e
			if e.Name == "attribution" {
				// Keep the per-node series loadable, but under a name the
				// plain summarizer ignores — the merged file's canonical
				// "attribution" event is the cluster-level one below.
				out.Name = "node-attribution"
			}
			if e.Pid != nil {
				out.Pid = intp(k*PidStride + *e.Pid)
			}
			if e.Ts != nil {
				ts := *e.Ts + m.shiftUs(k, *e.Ts)
				out.Ts = f64p(ts)
				if ts > maxTs {
					maxTs = ts
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, out)
		}
	}
	qa := m.ClusterAttribution()
	ts := float64(qa.EndCycle) / 1000.0
	if ts < maxTs {
		ts = maxTs
	}
	doc.TraceEvents = append(doc.TraceEvents, RawEvent{
		Name: "attribution", Ph: "i", S: "g", Cat: "attribution",
		Ts: f64p(ts), Pid: intp(0), Tid: intp(0),
		Args: mustArgs(map[string]any{"attribution": qa}),
	})
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// MergeFiles is the one-call form: load every path as a node trace (in
// order: path index = node id), merge, and write the merged trace to w.
func MergeFiles(w io.Writer, paths []string) (*Merged, error) {
	nodes := make([]*NodeTrace, len(paths))
	for i, p := range paths {
		nt, err := LoadNodeTrace(p, i)
		if err != nil {
			return nil, err
		}
		nodes[i] = nt
	}
	m, err := Merge(nodes)
	if err != nil {
		return nil, err
	}
	if err := m.WriteTrace(w); err != nil {
		return nil, fmt.Errorf("evtrace: write merged trace: %w", err)
	}
	return m, nil
}

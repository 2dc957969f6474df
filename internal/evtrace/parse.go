package evtrace

import (
	"encoding/json"
	"fmt"
	"os"
)

// RawEvent is one chrome-trace event as read back from a file: Args stay
// raw JSON, decoded only where a consumer needs them.
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

// rawTraceDoc is the chrome-trace envelope.
type rawTraceDoc struct {
	DisplayTimeUnit string     `json:"displayTimeUnit,omitempty"`
	TraceEvents     []RawEvent `json:"traceEvents"`
}

// NodeTrace is one parsed trace file: a single run's, a sweep's, or a
// whole cluster's.
type NodeTrace struct {
	DisplayTimeUnit string
	Events          []RawEvent
	// Quanta is the attribution series, in emission order.
	Quanta []QuantumAttribution
}

// LoadNodeTrace reads one trace file and parses it (ParseTrace).
func LoadNodeTrace(path string) (*NodeTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("evtrace: %w", err)
	}
	nt, err := ParseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("evtrace: %s: %w", path, err)
	}
	return nt, nil
}

// ParseTrace parses a chrome-trace document, extracting the raw event
// stream plus the attribution series summaries consume. A malformed
// attribution event is an error, not a silently shorter series.
func ParseTrace(data []byte) (*NodeTrace, error) {
	var doc rawTraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("not valid chrome-trace JSON: %w", err)
	}
	nt := &NodeTrace{DisplayTimeUnit: doc.DisplayTimeUnit, Events: doc.TraceEvents}
	for _, e := range doc.TraceEvents {
		if e.Name != "attribution" || e.Ph != "i" || e.Args == nil {
			continue
		}
		var args struct {
			Attribution QuantumAttribution `json:"attribution"`
		}
		if err := json.Unmarshal(e.Args, &args); err != nil {
			return nil, fmt.Errorf("bad attribution event: %w", err)
		}
		nt.Quanta = append(nt.Quanta, args.Attribution)
	}
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

package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"asmsim/internal/evtrace"
)

// AppCounters is the flat, JSON-stable projection of one application's
// per-quantum counters (sim.AppQuantum). The sim layer converts; this
// package stays import-free of the simulator so both can be wired
// together without a cycle.
type AppCounters struct {
	Retired        uint64 `json:"retired"`
	MemStallCycles uint64 `json:"mem_stall_cycles"`

	L2Accesses uint64 `json:"l2_accesses"`
	L2Hits     uint64 `json:"l2_hits"`
	L2Misses   uint64 `json:"l2_misses"`

	QuantumHitTime  uint64 `json:"quantum_hit_time"`
	QuantumMissTime uint64 `json:"quantum_miss_time"`
	MLPIntegral     uint64 `json:"mlp_integral"`

	EpochCount    uint64 `json:"epoch_count"`
	EpochAccesses uint64 `json:"epoch_accesses"`
	EpochHits     uint64 `json:"epoch_hits"`
	EpochMisses   uint64 `json:"epoch_misses"`
	EpochHitTime  uint64 `json:"epoch_hit_time"`
	EpochMissTime uint64 `json:"epoch_miss_time"`

	QueueingCycles  uint64  `json:"queueing_cycles"`
	MemInterfCycles float64 `json:"mem_interf_cycles"`

	MissCount       uint64 `json:"miss_count"`
	MissLatencySum  uint64 `json:"miss_latency_sum"`
	PerReqInterfSum uint64 `json:"per_req_interf_sum"`

	PFContentionMisses  uint64 `json:"pf_contention_misses"`
	ATSContentionMisses uint64 `json:"ats_contention_misses"`

	Writebacks     uint64 `json:"writebacks"`
	PrefetchIssued uint64 `json:"prefetch_issued"`
	PrefetchUseful uint64 `json:"prefetch_useful"`
}

// QuantumRecord is one (application, quantum) time-series point: the
// workload context, the raw counters the models consume, the actual
// slowdown when ground truth ran, and every estimator's estimate.
type QuantumRecord struct {
	// TraceID correlates this record with the job (or run) that
	// produced it; see Options.TraceID. Empty outside a traced context.
	TraceID string `json:"trace_id,omitempty"`
	// Mix labels the workload ("+"-joined benchmark names); Scheme
	// labels the resource-management configuration for policy runs.
	Mix    string `json:"mix,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	// App is the core slot; Bench its benchmark name.
	App   int    `json:"app"`
	Bench string `json:"bench,omitempty"`
	// Quantum is the zero-based quantum index.
	Quantum int `json:"quantum"`
	// Actual is the measured slowdown from the alone-run ground truth
	// (omitted when no ground truth ran).
	Actual float64 `json:"actual,omitempty"`
	// Estimates maps estimator name to its slowdown estimate.
	Estimates map[string]float64 `json:"estimates,omitempty"`
	// Counters is the per-quantum counter snapshot.
	Counters AppCounters `json:"counters"`
	// EndCycle is the quantum's end on the run's simulated clock, stamped
	// by whoever emits the record; the SLO engine stamps its alert trace
	// instants with it. It stays off the wire.
	EndCycle uint64 `json:"-"`
}

// Recorder consumes quantum records. Implementations must be safe for
// concurrent use (sweep workers share one recorder). Write errors are
// sticky and reported by Close, so the per-quantum hot path stays
// error-handling-free.
type Recorder interface {
	Record(rec *QuantumRecord)
	Close() error
}

// JSONLRecorder streams records as one JSON object per line.
type JSONLRecorder struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer // underlying file when opened by path, else nil
	err error
}

// NewJSONLRecorder writes records to w.
func NewJSONLRecorder(w io.Writer) *JSONLRecorder {
	bw := bufio.NewWriter(w)
	return &JSONLRecorder{bw: bw, enc: json.NewEncoder(bw)}
}

// OpenJSONLRecorder creates (or truncates) the file at path and streams
// records to it.
func OpenJSONLRecorder(path string) (*JSONLRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	r := NewJSONLRecorder(f)
	r.c = f
	return r, nil
}

// Record implements Recorder.
func (r *JSONLRecorder) Record(rec *QuantumRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.err = r.enc.Encode(rec)
}

// Close flushes and returns the first write error, if any.
func (r *JSONLRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ferr := r.bw.Flush(); r.err == nil {
		r.err = ferr
	}
	if r.c != nil {
		if cerr := r.c.Close(); r.err == nil {
			r.err = cerr
		}
		r.c = nil
	}
	return r.err
}

// Sink fans one quantum-record stream out to several recorders (build
// one with Fanout): the disk recorder (JSONL), the dashboard and the
// SLO engine all subscribe to the same stream without knowing about each
// other. A nil *Sink is a no-op Recorder.
type Sink struct {
	recs []Recorder
}

// Fanout returns a Recorder feeding every given recorder: nil when none
// are non-nil, the recorder itself when exactly one is, and a Sink
// otherwise. It is the allocation-conscious constructor for wiring
// optional subscribers around an existing recorder.
func Fanout(recs ...Recorder) Recorder {
	var nonNil []Recorder
	for _, r := range recs {
		if r != nil {
			nonNil = append(nonNil, r)
		}
	}
	switch len(nonNil) {
	case 0:
		return nil
	case 1:
		return nonNil[0]
	}
	return &Sink{recs: nonNil}
}

// Record implements Recorder by forwarding to every member.
func (s *Sink) Record(rec *QuantumRecord) {
	if s == nil {
		return
	}
	for _, r := range s.recs {
		r.Record(rec)
	}
}

// Close closes every member once and returns the first error.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	var first error
	for _, r := range s.recs {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.recs = nil
	return first
}

// Options is the one observer value a run takes: everything that watches
// a run does so at its quantum boundaries through these fields. Every
// field may be nil; the zero value disables all observation. Live
// observers (the dashboard's SSE broadcaster, the SLO engine, a flight
// ring) are Recorders composed into Recorder once by whoever builds the
// run.
type Options struct {
	// Recorder receives one QuantumRecord per (app, quantum).
	Recorder Recorder
	// Metrics receives counters, gauges and histograms.
	Metrics *Registry
	// Progress receives live sweep item start/finish notifications.
	Progress *Progress
	// TraceID, when set, is stamped on every QuantumRecord the run
	// emits, correlating quantum records, structured logs, journal
	// entries and SSE frames produced on behalf of one job. It carries
	// no simulation semantics and never affects results.
	TraceID string
	// Trace, when non-nil, records sampled request spans and exact
	// per-quantum interference attribution for the run. Sweep workers
	// may share one tracer; the caller owns it and must Close it.
	Trace *evtrace.Tracer
	// Attribution, when non-nil, receives every quantum's interference
	// attribution snapshot (the dashboard's live feed), with or without
	// Trace: the simulator delivers each snapshot to both.
	Attribution func(evtrace.QuantumAttribution)
}

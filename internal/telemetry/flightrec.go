package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightEvent is one entry in a FlightRecorder's ring: a job lifecycle
// note or a per-quantum record, stamped with the trace ID it belongs
// to.
type FlightEvent struct {
	Seq     uint64         `json:"seq"`
	Time    time.Time      `json:"time"`
	Kind    string         `json:"kind"` // submitted|resumed|started|finished|cancelled|panic|drain|slo-firing|quantum
	TraceID string         `json:"trace_id,omitempty"`
	Job     string         `json:"job,omitempty"`
	Detail  string         `json:"detail,omitempty"`
	Quantum *QuantumRecord `json:"quantum,omitempty"`
}

// flightDumpCap bounds how many dump files one process writes; past it
// Dump becomes a no-op so a failure storm cannot fill the state
// directory.
const flightDumpCap = 32

// FlightRecorder keeps the last N observability events in a bounded
// ring so that when something goes wrong — a panic, a deadline expiry,
// an SLO alert — the moments leading up to it can be dumped as one
// JSON file and read after the process is gone. It implements Recorder,
// so it can ride the same fan-out as the SSE broadcaster and capture
// per-quantum records without touching the sim layer. A nil
// *FlightRecorder is a no-op, like every other handle in this package.
type FlightRecorder struct {
	mu    sync.Mutex
	seq   uint64
	ring  []FlightEvent
	next  int    // ring slot the next event lands in
	n     int    // valid entries (== len(ring) once wrapped)
	dir   string // immutable after construction
	dumps int
}

// NewFlightRecorder returns a recorder holding the most recent
// `capacity` events (default 512 when capacity <= 0) whose automatic and
// on-demand dumps land in dir (created on first dump). With dir empty,
// Dump returns "" and writes nothing.
func NewFlightRecorder(capacity int, dir string) *FlightRecorder {
	if capacity <= 0 {
		capacity = 512
	}
	return &FlightRecorder{ring: make([]FlightEvent, capacity), dir: dir}
}

// Note appends a lifecycle event to the ring.
func (f *FlightRecorder) Note(kind, traceID, job, detail string) {
	if f == nil {
		return
	}
	f.add(FlightEvent{Kind: kind, TraceID: traceID, Job: job, Detail: detail})
}

// Record implements Recorder: per-quantum records enter the ring with
// kind "quantum". The record is referenced, not deep-copied; producers
// hand off ownership when they publish (the same contract every other
// Recorder in this package relies on).
func (f *FlightRecorder) Record(rec *QuantumRecord) {
	if f == nil {
		return
	}
	f.add(FlightEvent{Kind: "quantum", TraceID: rec.TraceID, Quantum: rec})
}

// Close implements Recorder; the ring has nothing to flush.
func (f *FlightRecorder) Close() error { return nil }

func (f *FlightRecorder) add(ev FlightEvent) {
	now := time.Now()
	f.mu.Lock()
	f.seq++
	ev.Seq, ev.Time = f.seq, now
	f.ring[f.next] = ev
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
}

// Events returns the ring's contents, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out
}

// FlightDump is the on-disk dump document.
type FlightDump struct {
	Reason string        `json:"reason"`
	Time   time.Time     `json:"time"`
	Events []FlightEvent `json:"events"`
}

// Dump writes the ring to <dir>/flight-<seq>-<reason>.json and returns
// the path. It is a silent no-op (returning "") when no dump directory
// is set or the per-process dump cap is exhausted, so dump triggers can
// fire unconditionally on error paths.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	if f.dir == "" || f.dumps >= flightDumpCap {
		f.mu.Unlock()
		return "", nil
	}
	f.dumps++
	ordinal := f.dumps
	f.mu.Unlock()
	events := f.Events()
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: flight dump dir: %w", err)
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%03d-%s.json", ordinal, sanitizeReason(reason)))
	b, err := json.MarshalIndent(FlightDump{Reason: reason, Time: time.Now(), Events: events}, "", " ")
	if err != nil {
		return "", fmt.Errorf("telemetry: flight dump marshal: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("telemetry: flight dump write: %w", err)
	}
	return path, nil
}

// sanitizeReason keeps dump filenames portable.
func sanitizeReason(r string) string {
	out := make([]byte, 0, len(r))
	for i := 0; i < len(r) && len(out) < 40; i++ {
		c := r[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}

// Package evtrace is the cycle-level event-tracing subsystem: it records
// per-request lifecycle spans (miss detection → controller enqueue → bank
// service → completion) with every queueing segment attributed to the
// application that caused the wait, aggregates the per-quantum N×N
// interference attribution matrix (cycles app i delayed app j, split
// shared-cache vs main-memory), and streams both as a Perfetto-loadable
// chrome-trace-event JSON file.
//
// Attribution is exact, not sampled: every interference cycle the memory
// controller charges has a single deterministic cause (the app occupying
// the bank, then the data bus, then the command slot), so the matrix is
// accumulated from the same accounting pass that feeds
// dram.Controller.InterferenceCycles — per victim, the matrix row sums to
// the controller's per-app total bit-exactly (see ScaleRows). Span
// recording, by contrast, is sampled (Config.SampleEvery) to bound file
// size and overhead; sampling a span never changes any accounting.
//
// A nil *Tracer is a no-op on every method, so instrumented code needs no
// enabled-checks beyond one nil test, and the disabled path allocates
// nothing.
package evtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// cyclesPerMicro converts CPU cycles to trace microseconds: the trace
// presents one cycle as one nanosecond, so all relative timings (queue
// waits, service times) read directly in Perfetto regardless of the
// simulated clock.
const cyclesPerMicro = 1000.0

// spanLanes is the number of per-process trace lanes sampled miss spans
// rotate through. Chrome "X" events on one lane render nested-only;
// rotating lanes keeps concurrently outstanding sampled misses from
// stacking into one misleading hierarchy.
const spanLanes = 8

// Config parameterizes a Tracer.
type Config struct {
	// SampleEvery records every Nth completed demand-miss span (1-in-N
	// sampling); values <= 1 record every miss. Attribution matrices are
	// always exact regardless of this knob — only span emission is
	// sampled.
	SampleEvery int
}

// MissSpan is one completed demand miss's lifecycle, in CPU cycles. All
// timestamps come from the timing bookkeeping the simulator already
// keeps (missTxn.start, dram.Request.Enqueue/Start/Complete).
type MissSpan struct {
	App  int    // requesting application slot
	Line uint64 // 64 B line address

	Detect   uint64 // cycle the shared-cache miss was detected
	Enqueue  uint64 // cycle the request entered the memory controller
	Start    uint64 // cycle its first DRAM command issued
	Complete uint64 // cycle the last data beat transferred
	Done     uint64 // cycle the fill reached the core side

	Channel int
	Bank    int
	RowHit  bool

	// InterfCycles is the request's total attributed interference; Causes
	// breaks it down by cause app. Causes may be nil when per-cause
	// tracking was off.
	InterfCycles uint64
	Causes       []uint64

	// CacheCause is the app whose shared-cache insertion evicted this
	// line (making the miss a contention miss), or -1 when the line was
	// not a cross-application eviction victim.
	CacheCause int
}

// AppQuantumStats is the per-app slice of a quantum the CPI stack is
// built from (all in CPU cycles except Retired).
type AppQuantumStats struct {
	Name            string  `json:"name"`
	Retired         uint64  `json:"retired"`
	MemStallCycles  uint64  `json:"mem_stall_cycles"`
	QuantumHitTime  uint64  `json:"quantum_hit_time"`
	QuantumMissTime uint64  `json:"quantum_miss_time"`
	QueueingCycles  uint64  `json:"queueing_cycles"`
	MemInterf       float64 `json:"mem_interf_cycles"`
	CacheInterf     float64 `json:"cache_interf_cycles"`
}

// QuantumAttribution is one quantum's interference attribution snapshot.
// Matrices are victim-major: M[j][i] is the cycles cause i inflicted on
// victim j this quantum; column index NumApps (the last) is the system
// pseudo-cause, which the simulator charges with Cache misses whose
// evictor it does not know and never in Mem. Mem rows sum bit-exactly to
// MemRowTotals[j], which in turn equals the controller-side accounting
// (dram.System.InterferenceCycles summed in channel order).
type QuantumAttribution struct {
	Quantum  int      `json:"quantum"`
	EndCycle uint64   `json:"end_cycle"`
	Cycles   uint64   `json:"cycles"` // quantum length Q
	Apps     []string `json:"apps"`

	Mem          [][]float64 `json:"mem"`
	MemRowTotals []float64   `json:"mem_row_totals"`
	Cache        [][]float64 `json:"cache"`

	AppStats []AppQuantumStats `json:"app_stats"`
}

// PidStride is a node view's pid namespace (Node): node k's app slot j
// is pid k*PidStride + j. One thousand pids per node leaves room for any
// realistic per-machine core count while keeping pids readable.
const PidStride = 1000

// Tracer streams trace events to one JSON file. It keeps no attribution
// series: the simulator hands each quantum's snapshot to the tracer and
// to a run's attribution observer itself. It is safe for concurrent use
// (sweep workers may share one tracer); a nil Tracer is a no-op.
//
// New and Open return the root tracer: app slot j is pid j and apps keep
// their names. Node returns a view of it for one cluster machine.
type Tracer struct {
	*stream
	pidBase int    // pid of app slot 0
	prefix  string // prepended to app names ("n<k>/" in a node view)
	named   bool   // process names written (guarded by stream.mu)
}

// stream is the state a tracer shares with its node views: the file,
// its lock, the sampling clock and the clock offset.
type stream struct {
	sampleEvery uint64
	missCount   atomic.Uint64 // demand misses seen (sampling clock)
	spanCount   atomic.Uint64 // sampled spans emitted (lane rotation)

	// clockOffset (cycles) shifts every emitted event timestamp. A
	// cluster re-runs each machine's mix from simulated cycle zero every
	// evaluation round; the balancer advances this offset between rounds
	// so the rounds lay out sequentially on one cluster clock instead of
	// stacking at the origin. Attribution snapshots keep their run-local
	// EndCycle — the offset is a presentation-clock concern only and
	// never touches accounting.
	clockOffset atomic.Uint64

	mu     sync.Mutex
	bw     *bufio.Writer
	c      io.Closer
	wrote  bool // any event written yet (comma management)
	closed bool
	err    error
}

// New returns a tracer streaming chrome-trace JSON to w.
func New(w io.Writer, cfg Config) *Tracer {
	se := cfg.SampleEvery
	if se < 1 {
		se = 1
	}
	t := &Tracer{stream: &stream{sampleEvery: uint64(se), bw: bufio.NewWriter(w)}}
	t.bw.WriteString(`{"displayTimeUnit":"ns","otherData":{"tool":"asmsim","cycles_per_us":1000},"traceEvents":[`)
	return t
}

// Open creates (or truncates) path and streams the trace to it.
func Open(path string, cfg Config) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("evtrace: %w", err)
	}
	t := New(f, cfg)
	t.c = f
	return t, nil
}

// Node returns cluster machine k's view of the root tracer t: it writes
// to the same file on the same sampling clock and clock offset, maps app
// slot j to pid k*PidStride + j, and names every app "n<k>/<app>" in
// process names and attribution snapshots. Runs of different machines
// therefore never share a pid, and tracesum splits their snapshots by
// app set. Node of a nil tracer is nil.
func (t *Tracer) Node(k int) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{stream: t.stream, pidBase: k * PidStride, prefix: fmt.Sprintf("n%d/", k)}
}

// SetClockOffset shifts all subsequently emitted event timestamps, of
// the tracer and of every view sharing its file, by the given number of
// cycles. Cluster rounds restart the simulated clock at zero; setting
// the offset to the round's start on the cluster clock before each
// round keeps the trace timeline monotone. Safe on a nil tracer and from
// any goroutine.
func (t *Tracer) SetClockOffset(cycles uint64) {
	if t == nil {
		return
	}
	t.clockOffset.Store(cycles)
}

// Instant emits one global instant event ("ph":"i") at the given cycle
// (clock offset applied), carrying args verbatim. The cluster balancer
// uses it for round boundaries and migration decisions, so trace
// consumers can place rounds on the cluster clock and cross-check the
// migration ledger. No-op on a nil tracer.
func (t *Tracer) Instant(name, cat string, cycle uint64, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(event{
		Name: name, Ph: "i", S: "g", Cat: cat,
		Ts:  float64(cycle+t.clockOffset.Load()) / cyclesPerMicro,
		Pid: 0, Tid: 0, Args: args,
	})
}

// SampleEvery returns the span sampling period (0 for a nil tracer).
func (t *Tracer) SampleEvery() uint64 {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// event is one chrome-trace-event JSON object.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// emit appends one event under the lock; errors are sticky and reported
// by Close.
func (t *Tracer) emit(evs ...event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(evs...)
}

func (t *Tracer) emitLocked(evs ...event) {
	if t.err != nil || t.closed {
		return
	}
	for _, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			t.err = fmt.Errorf("evtrace: %w", err)
			return
		}
		if t.wrote {
			t.bw.WriteString(",\n")
		}
		t.wrote = true
		if _, err := t.bw.Write(b); err != nil {
			t.err = fmt.Errorf("evtrace: %w", err)
			return
		}
	}
}

// BeginRun names the traced applications: app slot j is pid j (offset
// by a node view's pid base). The first call on a tracer or view wins;
// later runs sharing it (experiment sweeps, a machine's later rounds)
// reuse the pids, so their traces are best read via the attribution
// events, which carry app names per quantum.
func (t *Tracer) BeginRun(names []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.named {
		return
	}
	t.named = true
	for i, n := range names {
		t.emitLocked(event{
			Name: "process_name", Ph: "M", Pid: t.pidBase + i,
			Args: map[string]any{"name": fmt.Sprintf("app%d %s%s", i, t.prefix, n)},
		})
	}
}

// SampleMiss reports whether the next completed demand miss should have
// its span recorded (the 1-in-N sampling clock). Safe from concurrent
// simulators; a nil tracer never samples.
func (t *Tracer) SampleMiss() bool {
	if t == nil {
		return false
	}
	return t.missCount.Add(1)%t.sampleEvery == 0
}

// MissSpan records one sampled demand-miss lifecycle as three nested
// "X" slices on the victim's process: the whole miss, its controller
// queue wait, and its bank service.
func (t *Tracer) MissSpan(sp MissSpan) {
	if t == nil {
		return
	}
	lane := int(t.spanCount.Add(1) % spanLanes)
	args := map[string]any{
		"line":          fmt.Sprintf("%#x", sp.Line),
		"channel":       sp.Channel,
		"bank":          sp.Bank,
		"row_hit":       sp.RowHit,
		"interf_cycles": sp.InterfCycles,
	}
	if sp.CacheCause >= 0 {
		args["cache_cause_app"] = sp.CacheCause
	}
	if sp.Causes != nil {
		causes := map[string]any{}
		for i, v := range sp.Causes {
			if v == 0 {
				continue
			}
			causes[fmt.Sprintf("app%d", i)] = v
		}
		if len(causes) > 0 {
			args["cause_cycles"] = causes
		}
	}
	off := t.clockOffset.Load()
	us := func(c uint64) float64 { return float64(c+off) / cyclesPerMicro }
	dur := func(a, b uint64) float64 {
		if b < a {
			return 0
		}
		return float64(b-a) / cyclesPerMicro
	}
	evs := []event{{
		Name: "miss", Ph: "X", Cat: "miss",
		Ts: us(sp.Detect), Dur: dur(sp.Detect, sp.Done),
		Pid: t.pidBase + sp.App, Tid: lane, Args: args,
	}}
	if sp.Enqueue >= sp.Detect && sp.Start >= sp.Enqueue {
		evs = append(evs, event{
			Name: "mc-queue", Ph: "X", Cat: "miss",
			Ts: us(sp.Enqueue), Dur: dur(sp.Enqueue, sp.Start),
			Pid: t.pidBase + sp.App, Tid: lane,
		})
	}
	if sp.Complete >= sp.Start {
		evs = append(evs, event{
			Name: "bank-service", Ph: "X", Cat: "miss",
			Ts: us(sp.Start), Dur: dur(sp.Start, sp.Complete),
			Pid: t.pidBase + sp.App, Tid: lane,
		})
	}
	t.emit(evs...)
}

// Quantum writes one quantum's attribution snapshot: an instant event
// carrying the full matrices plus one counter event per victim app
// (memory- and cache-side interference). A node view writes the
// snapshot with its app names prefixed; the caller's q is not modified.
// ParseTrace reads the series back.
func (t *Tracer) Quantum(q QuantumAttribution) {
	if t == nil {
		return
	}
	if t.prefix != "" {
		apps := make([]string, len(q.Apps))
		for j, a := range q.Apps {
			apps[j] = t.prefix + a
		}
		q.Apps = apps
		q.AppStats = slices.Clone(q.AppStats)
		for j := range q.AppStats {
			q.AppStats[j].Name = t.prefix + q.AppStats[j].Name
		}
	}
	off := t.clockOffset.Load()
	evs := make([]event, 0, len(q.Apps)+1)
	evs = append(evs, event{
		Name: "attribution", Ph: "i", S: "g", Cat: "attribution",
		Ts: float64(q.EndCycle+off) / cyclesPerMicro, Pid: 0, Tid: 0,
		Args: map[string]any{"attribution": q},
	})
	for j := range q.Apps {
		var mem float64
		if j < len(q.MemRowTotals) {
			mem = q.MemRowTotals[j]
		}
		var cache float64
		if j < len(q.Cache) {
			for _, v := range q.Cache[j] {
				cache += v
			}
		}
		evs = append(evs, event{
			Name: "interference", Ph: "C",
			Ts: float64(q.EndCycle+off) / cyclesPerMicro, Pid: t.pidBase + j, Tid: 0,
			Args: map[string]any{"mem": mem, "cache": cache},
		})
	}
	t.emit(evs...)
}

// Err returns the first write error, if any, without closing.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close terminates the JSON document, flushes, and returns the first
// write error. Closing a nil tracer is a no-op.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		if _, werr := t.bw.WriteString("\n]}\n"); t.err == nil && werr != nil {
			t.err = fmt.Errorf("evtrace: %w", werr)
		}
		if ferr := t.bw.Flush(); t.err == nil && ferr != nil {
			t.err = fmt.Errorf("evtrace: %w", ferr)
		}
		if t.c != nil {
			if cerr := t.c.Close(); t.err == nil && cerr != nil {
				t.err = fmt.Errorf("evtrace: %w", cerr)
			}
			t.c = nil
		}
	}
	return t.err
}

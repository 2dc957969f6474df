// Package telemetry is the observability layer: an allocation-free
// atomic counter/gauge/histogram registry, a quantum-level time-series
// recorder for per-app counters and slowdown estimates, runtime
// profiling hooks, and live sweep progress reporting.
//
// The paper's evaluation rests on per-quantum counters (Table 1,
// Section 4.3) and multi-hour sweeps over 100 workloads; this package
// makes both observable while they run instead of only after. Every
// entry point is nil-safe: a nil *Registry hands out nil metric
// handles whose methods are no-ops, so instrumented code needs no
// enabled-checks at use sites and the disabled path costs one nil
// check per call.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins int64. The zero value is ready; a nil
// *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last set value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// registryData is the shared name->metric store behind a Registry and
// all its scopes.
type registryData struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Registry hands out named metrics. Handles are resolved once (with a
// lock) and then updated lock-free; instrumented hot paths should keep
// the handle, not the name. Scopes share their parent's store with a
// dotted name prefix. A nil *Registry hands out nil handles.
type Registry struct {
	data   *registryData
	prefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{data: &registryData{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}}
}

// Scope returns a view of the registry that prefixes every metric name
// with "name." (nested scopes chain). Scoping a nil registry is a nil
// registry.
func (r *Registry) Scope(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{data: r.data, prefix: r.prefix + name + "."}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	d := r.data
	d.mu.Lock()
	defer d.mu.Unlock()
	full := r.prefix + name
	c := d.counters[full]
	if c == nil {
		c = &Counter{}
		d.counters[full] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	d := r.data
	d.mu.Lock()
	defer d.mu.Unlock()
	full := r.prefix + name
	g := d.gauges[full]
	if g == nil {
		g = &Gauge{}
		d.gauges[full] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	d := r.data
	d.mu.Lock()
	defer d.mu.Unlock()
	full := r.prefix + name
	h := d.hists[full]
	if h == nil {
		h = &Histogram{}
		d.hists[full] = h
	}
	return h
}

// Metric is one registry entry's exported state.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	// Value is the counter count or gauge value; for histograms it is
	// the event count.
	Value int64 `json:"value"`
	// TotalNs, MeanNs, MaxNs and the quantile estimates are set for
	// histograms.
	TotalNs int64 `json:"total_ns,omitempty"`
	MeanNs  int64 `json:"mean_ns,omitempty"`
	MaxNs   int64 `json:"max_ns,omitempty"`
	P50Ns   int64 `json:"p50_ns,omitempty"`
	P90Ns   int64 `json:"p90_ns,omitempty"`
	P99Ns   int64 `json:"p99_ns,omitempty"`
	P999Ns  int64 `json:"p999_ns,omitempty"`
}

// Snapshot returns every metric in the registry (including all scopes),
// sorted by name. A nil registry snapshots empty.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	d := r.data
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Metric, 0, len(d.counters)+len(d.gauges)+len(d.hists))
	for name, c := range d.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: int64(c.Value())})
	}
	for name, g := range d.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range d.hists {
		s := h.Snapshot()
		out = append(out, Metric{
			Name:    name,
			Kind:    "histogram",
			Value:   int64(s.Count),
			TotalNs: int64(s.Sum),
			MeanNs:  int64(s.Mean()),
			MaxNs:   int64(s.Max),
			P50Ns:   int64(s.Quantile(0.50)),
			P90Ns:   int64(s.Quantile(0.90)),
			P99Ns:   int64(s.Quantile(0.99)),
			P999Ns:  int64(s.Quantile(0.999)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotHistograms copies every histogram's full bucketed state,
// keyed by registry name. Unlike Snapshot (which pre-computes a fixed
// set of quantiles and drops the buckets), these snapshots answer any
// quantile; the SLO engine's latency objectives read them. A nil
// registry returns nil.
func (r *Registry) SnapshotHistograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	d := r.data
	d.mu.Lock()
	hists := make(map[string]*Histogram, len(d.hists))
	for name, h := range d.hists {
		hists[name] = h
	}
	d.mu.Unlock()
	// Bucket copies happen outside the registry lock: they are per-bucket
	// atomic loads and need no map consistency.
	out := make(map[string]HistogramSnapshot, len(hists))
	for name, h := range hists {
		out[name] = h.Snapshot()
	}
	return out
}

// WriteJSONL writes the snapshot as one JSON object per line.
func (r *Registry) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range r.Snapshot() {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("telemetry: write metric %s: %w", m.Name, err)
		}
	}
	return nil
}

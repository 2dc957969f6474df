package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around its own call
// into the program. Times are nanoseconds since the tracer was created.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for the root
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run is kept free of it.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (0 for the root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: time.Since(t.t0).Nanoseconds(), End: -1,
	})
	return id
}

// end closes a span; counts are the units of work done inside it.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// record stores a span whose interval was measured by the caller.
func (t *tracer) record(parent int, name string, from, to time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds(), Counts: counts,
	})
	return id
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, total duration and self time: a
// span's duration minus the part of its interval that its child spans
// cover. Children that overlap (parallel items) are counted once.
func selfTimes(spans []span) []selfRow {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.TotalMS += float64(dur) / 1e6
		r.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b < a {
			continue
		}
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = parent.Start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// spanFile is the document written to <out>/spans.json.
type spanFile struct {
	Workload string    `json:"workload"`
	Spans    []span    `json:"spans"`
	Self     []selfRow `json:"self_time"`
}

// write stores the spans and their self-time table at path.
func (t *tracer) write(path string) ([]selfRow, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	b, err := json.MarshalIndent(spanFile{Workload: t.workload, Spans: spans, Self: self}, "", " ")
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, b, 0o644)
}

func formatSelfTable(rows []selfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-22s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %7d %12.2f %12.2f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	return b.String()
}

package telemetry

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the Registry.
//
// The registry stores flat dotted names ("serve.done",
// "exp.scheme.ASM"); Prometheus wants families with labels
// ("serve_jobs_finished_total{state=\"done\"}"). PromRule declares that
// rewrite: an exact name or a name prefix maps into a family with one
// label. Anything no rule claims is exported under its sanitized flat
// name — nothing in the registry is ever silently dropped, with one
// exception: when two registry entries collide into the same
// family+label (a histogram "x" and another "x_ns" both export as
// family "x_ns"), only the first seen survives. Duplicate samples would
// make the whole exposition unscrapeable under a strict parse
// (ParseExposition, and real Prometheus servers reject them too), which
// is worse than dropping the duplicate.
//
// Kind mapping: counters gain the conventional _total suffix, gauges
// export as-is, histograms become summaries (sum/count plus
// p50/p90/p99/p999 quantile lines, all nanoseconds) with the max as a
// _max gauge. Histogram families carry a _ns unit suffix unless the
// registry name already ends in _ns.

// PromRule maps registry metric names onto one labeled Prometheus
// family. Exactly one of Name or Prefix must be set.
type PromRule struct {
	Name   string // exact registry name this rule claims
	Prefix string // or: claim every name with this prefix
	Family string // exported family name (pre-suffix, e.g. "serve_jobs_finished")
	Label  string // label key attached to matched samples
	Value  string // label value for Name rules; Prefix rules use the name remainder
}

// DefaultPromRules is the label mapping for this repo's metric
// namespace: terminal job states, per-scheme experiment wall times, and
// SLO alerting series.
// Callers mounting /metrics should pass these so every exporter in the
// process agrees on series names.
func DefaultPromRules() []PromRule {
	return []PromRule{
		{Name: "serve.done", Family: "serve_jobs_finished", Label: "state", Value: "done"},
		{Name: "serve.failed", Family: "serve_jobs_finished", Label: "state", Value: "failed"},
		{Name: "serve.cancelled", Family: "serve_jobs_finished", Label: "state", Value: "cancelled"},
		{Prefix: "exp.scheme.", Family: "exp_scheme", Label: "scheme"},
		{Prefix: "slo.budget_remaining.", Family: "slo_error_budget_remaining", Label: "slo"},
		{Prefix: "slo.burn_rate.", Family: "slo_burn_rate", Label: "slo"},
		{Prefix: "slo.alerts.", Family: "slo_alerts", Label: "state"},
	}
}

// promSanitize rewrites a dotted registry name into a legal Prometheus
// metric name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func promSanitize(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promFamily collects the samples that share one exported family.
type promFamily struct {
	name    string
	typ     string // "counter", "gauge" or "summary"
	samples []promSample
}

type promSample struct {
	label string // rendered `key="value"` pair, or ""
	m     Metric
}

// promMatch finds the first rule claiming name. Exact rules win over
// prefix rules regardless of order.
func promMatch(name string, rules []PromRule) (PromRule, string, bool) {
	for _, r := range rules {
		if r.Name != "" && r.Name == name {
			return r, r.Value, true
		}
	}
	for _, r := range rules {
		if r.Prefix != "" && strings.HasPrefix(name, r.Prefix) {
			return r, strings.TrimPrefix(name, r.Prefix), true
		}
	}
	return PromRule{}, "", false
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format. Families are emitted sorted by name, each under a
// single # TYPE line; samples within a family sort by label.
func WritePrometheus(w *bytes.Buffer, snap []Metric, rules []PromRule) {
	fams := map[string]*promFamily{}
	add := func(name, typ, label string, m Metric) {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		// Collision resolution: one sample per family+label, the first
		// seen.
		for _, s := range f.samples {
			if s.label == label {
				return
			}
		}
		f.samples = append(f.samples, promSample{label: label, m: m})
	}
	for _, m := range snap {
		family := promSanitize(m.Name)
		label := ""
		if r, val, ok := promMatch(m.Name, rules); ok {
			family = r.Family
			label = r.Label + `="` + promEscape(val) + `"`
		}
		switch m.Kind {
		case "counter":
			if !strings.HasSuffix(family, "_total") {
				family += "_total"
			}
			add(family, "counter", label, m)
		case "gauge":
			add(family, "gauge", label, m)
		case "histogram":
			if !strings.HasSuffix(family, "_ns") {
				family += "_ns"
			}
			add(family, "summary", label, m)
			mm := m
			mm.Value = m.MaxNs // export the max as a plain gauge sample
			add(family+"_max", "gauge", label, mm)
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].label < f.samples[j].label })
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			switch {
			case f.typ == "summary":
				for _, qv := range [...]struct {
					q string
					v int64
				}{{"0.5", s.m.P50Ns}, {"0.9", s.m.P90Ns}, {"0.99", s.m.P99Ns}, {"0.999", s.m.P999Ns}} {
					fmt.Fprintf(w, "%s{%squantile=%q} %d\n", f.name, joinLabel(s.label), qv.q, qv.v)
				}
				fmt.Fprintf(w, "%s_sum%s %d\n", f.name, wrapLabel(s.label), s.m.TotalNs)
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrapLabel(s.label), s.m.Value)
			default:
				fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabel(s.label), s.m.Value)
			}
		}
	}
}

// wrapLabel renders "{label}" or "" for the empty label.
func wrapLabel(label string) string {
	if label == "" {
		return ""
	}
	return "{" + label + "}"
}

// joinLabel renders "label," or "" so a quantile label can follow.
func joinLabel(label string) string {
	if label == "" {
		return ""
	}
	return label + ","
}

// PromHandler serves the registry in Prometheus text exposition format.
// A nil registry serves an empty (still valid) payload.
func PromHandler(r *Registry, rules []PromRule) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		WritePrometheus(&buf, r.Snapshot(), rules)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}

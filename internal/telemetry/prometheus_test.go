package telemetry

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// parseExposition delegates to the production strict parser
// (ParseExposition, which this helper was promoted into) and adapts the
// result to the int64 view the assertions use.
func parseExposition(t *testing.T, body string) map[string]int64 {
	t.Helper()
	fsamples, err := ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]int64, len(fsamples))
	for k, v := range fsamples {
		samples[k] = int64(v)
	}
	return samples
}

// promFixture is a registry with one of each kind, rule-mapped and not.
func promFixture() *Registry {
	r := NewRegistry()
	sv := r.Scope("serve")
	sv.Counter("submitted").Add(7)
	sv.Counter("done").Add(5)
	sv.Counter("failed").Add(2)
	sv.Counter("cancelled").Add(1)
	sv.Gauge("queued").Set(4)
	h := sv.Histogram("job_latency_ns")
	for i := uint64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	r.Scope("exp").Scope("scheme").Timer("ASM").Observe(2 * time.Millisecond)
	r.Scope("sim").Timer("quantum_wall").Observe(time.Millisecond)
	r.Scope("slo").Scope("alerts").Counter("firing").Add(3)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, promFixture().Snapshot(), DefaultPromRules())
	body := buf.String()
	samples := parseExposition(t, body)

	checks := map[string]int64{
		`serve_submitted_total`:                        7,
		`serve_jobs_finished_total{state="done"}`:      5,
		`serve_jobs_finished_total{state="failed"}`:    2,
		`serve_jobs_finished_total{state="cancelled"}`: 1,
		`serve_queued`:                      4,
		`serve_job_latency_ns_count`:        100,
		`serve_job_latency_ns_sum`:          5050000,
		`serve_job_latency_ns_max`:          100000,
		`exp_scheme_ns_count{scheme="ASM"}`: 1,
		`exp_scheme_ns_sum{scheme="ASM"}`:   int64(2 * time.Millisecond),
		`sim_quantum_wall_ns_count`:         1,
		`slo_alerts_total{state="firing"}`:  3,
	}
	for k, want := range checks {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing sample %s\nbody:\n%s", k, body)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, want %d", k, got, want)
		}
	}
	p50, ok := samples[`serve_job_latency_ns{quantile="0.5"}`]
	if !ok {
		t.Fatalf("missing p50 quantile line\n%s", body)
	}
	if p50 < 45_000 || p50 > 55_000 {
		t.Errorf("p50 %d outside [45000, 55000]", p50)
	}
	if _, ok := samples[`serve_job_latency_ns{quantile="0.999"}`]; !ok {
		t.Error("missing p999 quantile line")
	}
	if strings.Count(body, "# TYPE serve_jobs_finished_total counter") != 1 {
		t.Error("labeled family must declare TYPE exactly once")
	}
}

// TestWritePrometheusFamilyCollision pins the collision rule: a timer
// "x" and a histogram "x_ns" both export into family "x_ns" (timers
// gain the _ns unit suffix), and the exposition must stay strictly
// parseable — exactly one sample per series, the histogram's (it has
// quantiles), regardless of which the snapshot lists first. This shape
// shipped once (sim.quantum_wall + sim.quantum_wall_ns) and made every
// asmserve node unscrapeable by the fleet poller.
func TestWritePrometheusFamilyCollision(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, collisionFixture().Snapshot(), DefaultPromRules())
	body := buf.String()
	samples := parseExposition(t, body) // strict: fails on any duplicate sample

	if got := samples[`sim_quantum_wall_ns_count`]; got != 2 {
		t.Errorf("count = %d, want the histogram's 2\nbody:\n%s", got, body)
	}
	if got := samples[`sim_quantum_wall_ns_sum`]; got != 6_000_000 {
		t.Errorf("sum = %d, want the histogram's 6000000", got)
	}
	if got := samples[`sim_quantum_wall_ns_max`]; got != 4_000_000 {
		t.Errorf("max = %d, want the histogram's 4000000", got)
	}
	if _, ok := samples[`sim_quantum_wall_ns{quantile="0.5"}`]; !ok {
		t.Errorf("histogram quantile lines missing — timer won the collision\nbody:\n%s", body)
	}
	if n := strings.Count(body, "sim_quantum_wall_ns_sum "); n != 1 {
		t.Errorf("%d sim_quantum_wall_ns_sum samples, want exactly 1", n)
	}
}

// collisionFixture holds a timer and a histogram that export into one
// family.
func collisionFixture() *Registry {
	r := NewRegistry()
	r.Scope("sim").Timer("quantum_wall").Observe(time.Millisecond)
	h := r.Scope("sim").Histogram("quantum_wall_ns")
	h.Record(2_000_000)
	h.Record(4_000_000)
	return r
}

func TestPromHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	rec := httptest.NewRecorder()
	PromHandler(r, DefaultPromRules()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	b, _ := io.ReadAll(rec.Body)
	if want := "x_total 1\n"; !strings.Contains(string(b), want) {
		t.Fatalf("body %q missing %q", b, want)
	}

	// Nil registry serves an empty but valid payload.
	rec = httptest.NewRecorder()
	PromHandler(nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("nil registry: status %d body %q", rec.Code, rec.Body.String())
	}
}

func TestPromSanitizeAndEscape(t *testing.T) {
	if got := promSanitize("sim.alone_cache.saved-cycles"); got != "sim_alone_cache_saved_cycles" {
		t.Fatalf("sanitize: %q", got)
	}
	if got := promSanitize("9lives"); got != "_9lives" {
		t.Fatalf("sanitize leading digit: %q", got)
	}
	if got := promEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escape: %q", got)
	}
}

// FuzzParseExposition: the strict parser never panics, whatever the bytes,
// and accepts whatever WritePrometheus renders for a registry of fuzzed
// counter and gauge names (NUL-separated, alternating) and values. Seeded
// with the expositions the tests above render and a broken one.
func FuzzParseExposition(f *testing.F) {
	for _, r := range []*Registry{promFixture(), collisionFixture(), nil} {
		var buf bytes.Buffer
		WritePrometheus(&buf, r.Snapshot(), DefaultPromRules())
		f.Add(buf.String(), "serve.done\x00serve.faults.journal\x00x", int64(7))
	}
	f.Add("# TYPE broken counter\nbroken 1\n", "", int64(-1))
	f.Add("", "serve.faults.a}b\x00exp.scheme.\"q\\\n", int64(1))
	f.Fuzz(func(t *testing.T, body, names string, v int64) {
		ParseExposition(body)
		r := NewRegistry()
		for i, name := range strings.Split(names, "\x00") {
			if i%2 == 0 {
				r.Counter(name).Add(uint64(v) + uint64(i))
			} else {
				r.Gauge(name).Set(v - int64(i))
			}
		}
		var buf bytes.Buffer
		WritePrometheus(&buf, r.Snapshot(), DefaultPromRules())
		if _, err := ParseExposition(buf.String()); err != nil {
			t.Fatalf("names %q: %v\n%s", names, err, buf.String())
		}
	})
}

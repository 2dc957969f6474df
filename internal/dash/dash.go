package dash

import (
	_ "embed"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
)

//go:embed static/index.html
var indexHTML []byte

// maxDeltaTokens caps how many distinct ?delta= clients the metrics
// endpoint remembers previous snapshots for; the oldest token is evicted
// past the cap so an endpoint scraper cycling random tokens cannot grow
// server memory.
const maxDeltaTokens = 64

// Server is the dashboard's state hub. It is a telemetry.Recorder —
// composed once into a run's Options.Recorder, it streams the records to
// SSE clients — and ObserveAttribution is the run's
// Options.Attribution; the registry, progress and alert source are
// installed once at start-up. Mount registers its HTTP handlers on the
// profiler's mux. Every method is safe on a nil *Server.
type Server struct {
	bc *Broadcaster

	quantaSeen atomic.Uint64 // attribution snapshots observed

	mu       sync.Mutex
	reg      *telemetry.Registry
	prog     *telemetry.Progress
	lastAttr *evtrace.QuantumAttribution
	alertSrc AlertSource

	deltaMu    sync.Mutex
	deltas     map[string]map[string]telemetry.Metric
	deltaOrder []string
}

// NewServer returns a dashboard with a fresh broadcaster.
func NewServer() *Server {
	return &Server{
		bc:     NewBroadcaster(),
		deltas: map[string]map[string]telemetry.Metric{},
	}
}

// SetRegistry points /debug/asm/metrics (and /metrics) at r; a binary
// installs its registry once at start-up.
func (s *Server) SetRegistry(r *telemetry.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg = r
	s.mu.Unlock()
	// Surface the SSE fan-out's drop-oldest evictions as a scrapeable
	// counter next to the rest of the registry.
	s.bc.SetDropCounter(r.Scope("dash").Scope("sse").Counter("dropped_frames"))
}

// SetProgress points /debug/asm/progress at p.
func (s *Server) SetProgress(p *telemetry.Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.prog = p
	s.mu.Unlock()
}

// ObserveAttribution retains q as the latest interference snapshot
// served by /debug/asm/attribution. It is a run's
// telemetry.Options.Attribution and is safe from any goroutine.
func (s *Server) ObserveAttribution(q evtrace.QuantumAttribution) {
	if s == nil {
		return
	}
	s.quantaSeen.Add(1)
	s.mu.Lock()
	s.lastAttr = &q
	s.mu.Unlock()
}

// Record implements telemetry.Recorder: the record goes to every
// connected SSE client as one `event: quantum` frame. Free when nobody is
// listening.
func (s *Server) Record(rec *telemetry.QuantumRecord) {
	if s == nil {
		return
	}
	s.bc.Record(rec)
}

// Mount registers every dashboard route on mux. The signature matches
// telemetry.StartProfiler's mount hooks, so the dashboard and pprof
// share one listener. Mounting a nil Server registers nothing.
func (s *Server) Mount(mux *http.ServeMux) {
	if s == nil {
		return
	}
	mux.HandleFunc("/debug/asm/", s.handleIndex)
	mux.HandleFunc("/debug/asm/metrics", s.handleMetrics)
	mux.Handle("/debug/asm/quanta", s.bc)
	mux.HandleFunc("/debug/asm/attribution", s.handleAttribution)
	mux.HandleFunc("/debug/asm/progress", s.handleProgress)
	mux.HandleFunc("/debug/asm/alerts", s.handleAlerts)
	mux.HandleFunc("/debug/asm/alerts.json", s.handleAlertsJSON)
}

// MountMetrics registers the Prometheus text-exposition endpoint at
// /metrics, serving whatever registry SetRegistry last installed. It is
// split from Mount because asmserve mounts the dashboard and the job
// service on one listener and the job service already owns /metrics
// there; standalone binaries (asmsim, experiments) add this mount to
// get a scrape target on the pprof listener. Mounting a nil Server
// registers nothing.
func (s *Server) MountMetrics(mux *http.ServeMux) {
	if s == nil {
		return
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		reg := s.reg
		s.mu.Unlock()
		telemetry.PromHandler(reg, telemetry.DefaultPromRules()).ServeHTTP(w, r)
	})
}

// Close implements telemetry.Recorder: it shuts the SSE fan-out down so
// connected clients' handlers exit; call it before stopping the
// profiler's HTTP server so shutdown can drain them. Nil-safe and
// idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.bc.Close()
}

// handleIndex serves the embedded single-file dashboard page at exactly
// /debug/asm/ (anything deeper that no other route claims is a 404).
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/asm/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(indexHTML)
}

// metricsResponse is the /debug/asm/metrics payload.
type metricsResponse struct {
	// Metrics is the full registry snapshot, sorted by name.
	Metrics []telemetry.Metric `json:"metrics"`
	// Delta maps metric name to its value change since the same ?delta=
	// token's previous poll (non-zero changes only; omitted on a token's
	// first poll).
	Delta map[string]int64 `json:"delta,omitempty"`
	// Dash reports the dashboard's own stream health.
	Dash dashStats `json:"dash"`
}

type dashStats struct {
	BroadcastStats
	QuantaSeen uint64 `json:"quanta_seen"`
}

// handleMetrics serves the live registry snapshot as JSON. An optional
// ?delta=<token> query makes the response carry per-metric deltas since
// that token's previous poll, so pollers get rates without client-side
// bookkeeping.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	resp := metricsResponse{
		Metrics: reg.Snapshot(),
		Dash:    dashStats{BroadcastStats: s.bc.Stats(), QuantaSeen: s.quantaSeen.Load()},
	}
	if resp.Metrics == nil {
		resp.Metrics = []telemetry.Metric{}
	}
	if tok := r.URL.Query().Get("delta"); tok != "" {
		resp.Delta = s.delta(tok, resp.Metrics)
	}
	writeJSON(w, resp)
}

// delta diffs snap against the token's previous snapshot (remembering
// snap for next time) and returns the non-zero value changes.
func (s *Server) delta(tok string, snap []telemetry.Metric) map[string]int64 {
	cur := make(map[string]telemetry.Metric, len(snap))
	for _, m := range snap {
		cur[m.Name] = m
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	prev, seen := s.deltas[tok]
	if !seen {
		if len(s.deltaOrder) >= maxDeltaTokens {
			delete(s.deltas, s.deltaOrder[0])
			s.deltaOrder = s.deltaOrder[1:]
		}
		s.deltaOrder = append(s.deltaOrder, tok)
	}
	s.deltas[tok] = cur
	if !seen {
		return nil
	}
	out := map[string]int64{}
	for name, m := range cur {
		if d := m.Value - prev[name].Value; d != 0 {
			out[name] = d
		}
	}
	return out
}

// attributionResponse is the /debug/asm/attribution payload.
type attributionResponse struct {
	// Present is false until the first quantum's snapshot arrives.
	Present bool `json:"present"`
	// Seen counts attribution snapshots observed so far.
	Seen uint64 `json:"seen"`
	// Attribution is the latest per-quantum victim×cause matrix pair
	// (shared-cache and main-memory splits), present when Present.
	Attribution *evtrace.QuantumAttribution `json:"attribution,omitempty"`
}

// handleAttribution serves the most recent interference attribution
// snapshot.
func (s *Server) handleAttribution(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	last := s.lastAttr
	s.mu.Unlock()
	writeJSON(w, attributionResponse{
		Present:     last != nil,
		Seen:        s.quantaSeen.Load(),
		Attribution: last,
	})
}

// progressResponse is the /debug/asm/progress payload.
type progressResponse struct {
	Progress telemetry.ProgressState `json:"progress"`
	// Metrics is the sweep-health slice of the registry (the exp.* scope:
	// item timers, done/failed counts, worker utilization gauges).
	Metrics []telemetry.Metric `json:"metrics"`
}

// handleProgress serves the sweep's progress state plus the registry's
// exp.* metrics (timers, losses, worker utilization).
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	prog, reg := s.prog, s.reg
	s.mu.Unlock()
	resp := progressResponse{Progress: prog.State(), Metrics: []telemetry.Metric{}}
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "exp.") {
			resp.Metrics = append(resp.Metrics, m)
		}
	}
	writeJSON(w, resp)
}

// writeJSON renders v with a stable content type; encoding errors are
// the client's connection problem, not ours to surface.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

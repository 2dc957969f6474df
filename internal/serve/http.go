package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"asmsim/internal/dash"
	"asmsim/internal/exp"
	"asmsim/internal/telemetry"
)

// Mount registers the job API on mux. The signature matches
// telemetry.StartProfiler's mount hooks, so the service shares the
// profiler's listener alongside the dashboard:
//
//	POST   /api/jobs               submit a job (exp.JobSpec JSON)
//	GET    /api/jobs               list all jobs
//	GET    /api/jobs/{id}          one job's status
//	GET    /api/jobs/{id}/result   the finished job's table
//	DELETE /api/jobs/{id}          cancel the job
//	GET    /api/events             SSE: job lifecycle + quantum records
//	GET    /api/debug/flightrecord recent-events ring (?save=1 also dumps to disk)
//	GET    /healthz                liveness (503 while draining)
//	GET    /readyz                 readiness with real dependency checks
//	GET    /metrics                Prometheus text exposition of the registry
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/api/jobs", s.handleJobs)
	mux.HandleFunc("/api/jobs/", s.handleJob)
	mux.Handle("/api/events", s.bc)
	mux.HandleFunc("/api/debug/flightrecord", s.handleFlightRecord)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", telemetry.PromHandler(s.opts.Metrics, telemetry.DefaultPromRules()))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// apiError is the JSON body of load-shed (429), drain (503) and
// oversized-request (413) responses: the error plus current queue
// occupancy, so clients can pace their resubmissions instead of guessing.
type apiError struct {
	Error      string `json:"error"`
	Queued     int    `json:"queued"`
	QueueDepth int    `json:"queue_depth"`
}

// writeShedError renders an admission rejection with queue occupancy.
func (s *Server) writeShedError(w http.ResponseWriter, code int, err error) {
	s.mu.Lock()
	queued := s.queuedN
	s.mu.Unlock()
	writeJSON(w, code, apiError{Error: err.Error(), Queued: queued, QueueDepth: s.opts.QueueDepth})
}

// maxJobSpecBytes bounds a POST /api/jobs body. A job spec is a few
// hundred bytes; anything past this is refused with 413 before it is
// decoded, so a client cannot make the service buffer an unbounded body.
const maxJobSpecBytes = 64 << 10

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Jobs())
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			s.writeShedError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: job spec exceeds %d bytes", tooBig.Limit))
			return
		}
		var spec exp.JobSpec
		if err == nil {
			spec, err = exp.DecodeJobSpec(body)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job spec: %w", err))
			return
		}
		st, err := s.Submit(spec)
		switch {
		case err == nil:
			code := http.StatusAccepted
			if st.Cached || st.Dedup {
				code = http.StatusOK
			}
			writeJSON(w, code, st)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			s.writeShedError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.DrainTimeout/time.Second)+1))
			s.writeShedError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrNotDurable):
			w.Header().Set("Retry-After", "1")
			s.writeShedError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	switch {
	case r.Method == http.MethodGet && sub == "":
		st, err := s.Status(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case r.Method == http.MethodGet && sub == "result":
		t, err := s.Result(id)
		if err != nil {
			code := http.StatusNotFound
			if !errors.Is(err, ErrNotFound) {
				code = http.StatusConflict // job exists, result not ready
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, t)
	case r.Method == http.MethodDelete && sub == "":
		st, err := s.Cancel(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s %s not allowed", r.Method, r.URL.Path))
	}
}

// Health is the /healthz document.
type Health struct {
	Status        string              `json:"status"` // ok | draining
	Workers       int                 `json:"workers"`
	QueueDepth    int                 `json:"queue_depth"`
	Queued        int                 `json:"queued"`
	Running       int                 `json:"running"`
	Jobs          int                 `json:"jobs"`
	CacheEntries  int                 `json:"cache_entries"`
	JournalSeq    uint64              `json:"journal_seq"`
	JournalErrors uint64              `json:"journal_errors"`
	Broadcast     dash.BroadcastStats `json:"broadcast"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := Health{
		Status:        "ok",
		Workers:       s.opts.Workers,
		QueueDepth:    s.opts.QueueDepth,
		Queued:        s.queuedN,
		Running:       s.runningN,
		Jobs:          len(s.jobs),
		CacheEntries:  s.store.Len(),
		JournalSeq:    s.journal.Seq(),
		JournalErrors: s.journal.Errors(),
		Broadcast:     s.bc.Stats(),
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// Readiness is the /readyz document: the overall verdict plus every
// dependency check's outcome ("ok" or the failure detail).
type Readiness struct {
	Ready  bool              `json:"ready"`
	Checks map[string]string `json:"checks"`
}

// Readiness runs the real dependency checks behind /readyz: admissions
// open (flips during SIGTERM drain), the whole worker pool alive, queue
// headroom left, and the state directory actually writable (probed with
// a real write, since that is what every journal append needs).
func (s *Server) Readiness() Readiness {
	s.mu.Lock()
	draining, queued := s.draining, s.queuedN
	s.mu.Unlock()
	r := Readiness{Ready: true, Checks: map[string]string{}}
	check := func(name string, ok bool, detail string) {
		if ok {
			r.Checks[name] = "ok"
			return
		}
		r.Checks[name] = detail
		r.Ready = false
	}
	check("admissions", !draining, "draining")
	alive := int(s.workersAlive.Load())
	check("workers", alive >= s.opts.Workers, fmt.Sprintf("%d/%d workers alive", alive, s.opts.Workers))
	check("queue", queued < s.opts.QueueDepth, fmt.Sprintf("full (%d/%d)", queued, s.opts.QueueDepth))
	if s.opts.StateDir == "" {
		r.Checks["journal"] = "ok (in-memory)"
	} else {
		probe := filepath.Join(s.opts.StateDir, ".readyz-probe")
		err := os.WriteFile(probe, []byte("ok\n"), 0o644)
		if err == nil {
			os.Remove(probe)
		}
		check("journal", err == nil, fmt.Sprintf("state dir not writable: %v", err))
	}
	return r
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.Readiness()
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

// flightRecordResponse is the /api/debug/flightrecord payload.
type flightRecordResponse struct {
	Events []telemetry.FlightEvent `json:"events"`
	// Path is set when ?save=1 also persisted a dump file.
	Path string `json:"path,omitempty"`
}

// handleFlightRecord serves the flight recorder's ring, oldest event
// first. ?save=1 additionally writes a dump file under the state
// directory (subject to the per-process dump cap) and reports its path.
func (s *Server) handleFlightRecord(w http.ResponseWriter, r *http.Request) {
	resp := flightRecordResponse{Events: s.flight.Events()}
	if resp.Events == nil {
		resp.Events = []telemetry.FlightEvent{}
	}
	if r.URL.Query().Get("save") == "1" {
		path, err := s.flight.Dump("on-demand")
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Path = path
	}
	writeJSON(w, http.StatusOK, resp)
}

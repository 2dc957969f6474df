package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asmsim/internal/dash"
	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
	"asmsim/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	// StateCancelled means a client cancelled the job (DELETE) before
	// its run returned a table; a cancelled job has no result.
	StateCancelled State = "cancelled"
	// StateInterrupted means a drain stopped the job mid-run. The
	// journal deliberately records no terminal event for it, so the next
	// server start re-runs it from its submitted entry.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state ends a job's life in this process.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// JobStatus is the client-visible view of one job.
type JobStatus struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	// TraceID is the job's correlation ID, minted at admission and
	// carried through structured logs, journal entries, per-quantum
	// records and SSE frames. It is derived deterministically from the
	// job ID and fingerprint so crash-recovery replays reconstruct the
	// same ID and a job's whole life greps as one token across restarts.
	TraceID string      `json:"trace_id,omitempty"`
	State   State       `json:"state"`
	Spec    exp.JobSpec `json:"spec"`
	// Cached marks a job answered from the full-run result cache
	// without simulating anything.
	Cached bool `json:"cached,omitempty"`
	// Dedup marks a submit response that attached to an identical job
	// already queued or running (single-flight); the ID is that job's.
	Dedup bool `json:"dedup,omitempty"`
	// Resumed marks a job re-enqueued from the journal after a restart.
	Resumed bool   `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
}

// job is the server's internal record. status and the fields below it
// are guarded by Server.mu; done closes exactly once, when the job
// reaches a terminal state.
type job struct {
	status      JobStatus
	cancel      context.CancelFunc // set while running
	userCancel  bool               // a client asked for cancellation
	submittedAt time.Time          // admission instant (end-to-end latency base)
	startedAt   time.Time          // first claim by a worker (queue wait end)
	done        chan struct{}
}

// Options configures a Server. The zero value is serviceable: two
// workers, a small queue, in-memory-only state.
type Options struct {
	// Workers is the number of concurrent job runners (default 2).
	Workers int
	// QueueDepth bounds the admission queue; submits beyond it are shed
	// with 429 (default 8).
	QueueDepth int
	// JobTimeout bounds each job's wall time; 0 means no deadline.
	JobTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight jobs get this
	// long to finish before being cancelled mid-quantum (default 10s).
	DrainTimeout time.Duration
	// StateDir roots the journal and on-disk result cache; "" keeps
	// everything in memory (no crash safety, no cross-restart cache).
	StateDir string
	// Metrics optionally receives service counters/gauges under the
	// "serve" scope plus the usual sweep metrics from jobs.
	Metrics *telemetry.Registry
	// Recorder and Attribution are composed into every job's
	// telemetry.Options next to the service's own SSE broadcaster and
	// Flight: the live dashboard and the SLO engine ride here, so they
	// observe every job without perturbing it (see the non-perturbation
	// test at the repo root). Latency SLOs need their own loop over the
	// Metrics registry — see slo.Engine.StartLatencyLoop.
	Recorder    telemetry.Recorder
	Attribution func(evtrace.QuantumAttribution)
	// Flight is the process's flight ring, built by the caller (which may
	// hand the same ring to its SLO engine). Every job's quantum records
	// and lifecycle notes enter it, panics and deadline expiries dump
	// it, and /api/debug/flightrecord serves it. Nil means no ring.
	Flight *telemetry.FlightRecorder
	// Log receives structured job lifecycle events; every record about a
	// job carries its trace_id. Nil discards everything.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

type serveMetrics struct {
	submitted, shed, rejected, dedup, cacheHits *telemetry.Counter
	done, failed, cancelled, resumed            *telemetry.Counter
	journalErrs, drainRejected                  *telemetry.Counter
	queued, running                             *telemetry.Gauge
	jobLatency, queueWait, runDur               *telemetry.Histogram
}

// Server is the job service. Create with New, mount its handlers with
// Mount (the signature telemetry.StartProfiler's mount hooks expect),
// and stop it with Shutdown.
type Server struct {
	opts    Options
	journal *Journal
	store   *resultStore
	bc      *dash.Broadcaster
	met     serveMetrics
	log     *slog.Logger
	flight  *telemetry.FlightRecorder
	// run executes a job's spec: exp.JobSpec.Run, replaced only by tests
	// that fail or count runs.
	run func(exp.JobSpec, context.Context, ...func(*exp.Scale)) (*exp.Table, error)

	// workersAlive counts worker goroutines currently in their pick
	// loop; /readyz reports unready until the full pool is live.
	workersAlive atomic.Int64

	runCtx  context.Context // cancelled to hard-stop in-flight runs
	runStop context.CancelFunc

	queue    chan *job
	wg       sync.WaitGroup
	stopPick chan struct{} // closed when workers must stop picking jobs
	stopOnce sync.Once

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string
	inflight map[string]*job // fingerprint -> queued/running job
	nextID   uint64
	queuedN  int
	runningN int
}

// New builds the server, replays the journal when a state directory is
// configured (re-enqueueing jobs that never reached a terminal state,
// answering completed ones from the on-disk cache), and starts the
// worker pool.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	store, err := newResultStore(opts.StateDir)
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics.Scope("serve")
	fsyncH := reg.Histogram("journal_fsync_ns")
	var journal *Journal
	var entries []Entry
	if opts.StateDir != "" {
		journal, entries, err = OpenJournal(opts.StateDir, fsyncH)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:     opts,
		journal:  journal,
		store:    store,
		bc:       dash.NewBroadcaster(),
		log:      opts.Log,
		flight:   opts.Flight,
		run:      exp.JobSpec.Run,
		stopPick: make(chan struct{}),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
		met: serveMetrics{
			submitted:     reg.Counter("submitted"),
			shed:          reg.Counter("shed"),
			rejected:      reg.Counter("rejected"),
			dedup:         reg.Counter("dedup_hits"),
			cacheHits:     reg.Counter("cache_hits"),
			done:          reg.Counter("done"),
			failed:        reg.Counter("failed"),
			cancelled:     reg.Counter("cancelled"),
			resumed:       reg.Counter("resumed"),
			journalErrs:   reg.Counter("journal_errors"),
			drainRejected: reg.Counter("drain_rejected"),
			queued:        reg.Gauge("queued"),
			running:       reg.Gauge("running"),
			jobLatency:    reg.Histogram("job_latency_ns"),
			queueWait:     reg.Histogram("queue_wait_ns"),
			runDur:        reg.Histogram("attempt_ns"),
		},
	}
	s.bc.SetDropCounter(reg.Scope("sse").Counter("dropped_frames"))
	s.runCtx, s.runStop = context.WithCancel(context.Background())
	recovered := s.replay(entries)
	s.queue = make(chan *job, opts.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.queuedN++
		s.queue <- j
	}
	s.met.queued.Set(int64(s.queuedN))
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay rebuilds job records from journal entries and returns the jobs
// that must run again: submitted but never finished, and not already
// answered by the result cache. Runs before the worker pool starts, so
// no locking is needed.
func (s *Server) replay(entries []Entry) []*job {
	type rec struct {
		e        Entry
		term     Entry
		terminal bool
	}
	byID := map[string]*rec{}
	var ids []string
	for _, e := range entries {
		switch e.Event {
		case evSubmitted:
			if e.Spec == nil || byID[e.ID] != nil {
				continue
			}
			byID[e.ID] = &rec{e: e}
			ids = append(ids, e.ID)
		default:
			if r := byID[e.ID]; r != nil && e.terminal() && !r.terminal {
				r.term, r.terminal = e, true
			}
		}
	}
	var rerun []*job
	for _, id := range ids {
		r := byID[id]
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		// A terminal job keeps the key its table was stored under; any
		// other is keyed by its spec, as a fresh submission of it is.
		fp := cmp.Or(r.term.Fingerprint, r.e.Spec.Fingerprint())
		tid := cmp.Or(r.e.TraceID, traceID(id, fp))
		j := &job{
			status: JobStatus{
				ID:          id,
				TraceID:     tid,
				Fingerprint: fp,
				Spec:        *r.e.Spec,
			},
			submittedAt: time.Now(),
			done:        make(chan struct{}),
		}
		switch {
		case r.terminal:
			switch r.term.Event {
			case evDone:
				j.status.State = StateDone
			case evFailed:
				j.status.State, j.status.Error = StateFailed, r.term.Error
			case evCancelled:
				j.status.State, j.status.Error = StateCancelled, r.term.Error
			}
			close(j.done)
		default:
			if _, ok := s.store.Get(fp); ok {
				// A twin's result is already durable: answer from cache
				// instead of re-simulating.
				j.status.State, j.status.Cached = StateDone, true
				s.met.cacheHits.Inc()
				close(j.done)
				break
			}
			if twin := s.inflight[fp]; twin != nil {
				// Keys journaled apart can meet once recomputed: the later
				// ID answers as the earlier job, as a deduped submission.
				j = twin
				break
			}
			j.status.State, j.status.Resumed = StateQueued, true
			s.inflight[fp] = j
			s.met.resumed.Inc()
			s.log.Info("job resumed from journal", "trace_id", tid, "job", id, "fp", fp)
			s.flight.Note("resumed", tid, id, "re-enqueued from journal")
			rerun = append(rerun, j)
		}
		s.jobs[id] = j
		if j.status.ID == id {
			s.order = append(s.order, id)
		}
	}
	return rerun
}

// Submit admits a job: answered from the result cache when a completed
// twin exists, attached to an in-flight twin when one is queued or
// running (single-flight), otherwise journaled and enqueued. The
// returned status snapshot carries the admission verdict. Errors:
// ErrDraining, ErrQueueFull, or a journal failure (the job was NOT
// admitted; the client should retry).
func (s *Server) Submit(spec exp.JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	fp := spec.Fingerprint()
	s.mu.Lock()
	if s.draining {
		s.met.drainRejected.Inc()
		s.mu.Unlock()
		s.log.Warn("job rejected: draining", "fp", fp)
		return JobStatus{}, ErrDraining
	}
	s.met.submitted.Inc()
	if twin := s.inflight[fp]; twin != nil {
		st := twin.status
		st.Dedup = true
		s.met.dedup.Inc()
		s.mu.Unlock()
		return st, nil
	}
	if _, ok := s.store.Get(fp); ok {
		j := s.newJobLocked(spec, fp)
		j.status.State, j.status.Cached = StateDone, true
		close(j.done)
		st := j.status
		s.met.cacheHits.Inc()
		s.mu.Unlock()
		s.publish(st)
		return st, nil
	}
	if s.queuedN >= s.opts.QueueDepth {
		s.met.shed.Inc()
		s.mu.Unlock()
		s.log.Warn("job shed: queue full", "fp", fp, "queue_depth", s.opts.QueueDepth)
		return JobStatus{}, ErrQueueFull
	}
	j := s.newJobLocked(spec, fp)
	j.status.State = StateQueued
	if err := s.journalAppend(Entry{Event: evSubmitted, ID: j.status.ID, TraceID: j.status.TraceID, Fingerprint: fp, Spec: &spec}); err != nil {
		// Not durable -> not admitted; undo the record so a retry of the
		// same spec is a fresh submission.
		delete(s.jobs, j.status.ID)
		s.order = s.order[:len(s.order)-1]
		s.met.rejected.Inc()
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	s.inflight[fp] = j
	s.queuedN++
	s.met.queued.Set(int64(s.queuedN))
	select {
	case s.queue <- j:
	default:
		// Cannot happen (queuedN mirrors channel occupancy under mu),
		// but shed rather than block the handler if it ever does.
		delete(s.inflight, fp)
		delete(s.jobs, j.status.ID)
		s.order = s.order[:len(s.order)-1]
		s.queuedN--
		s.met.queued.Set(int64(s.queuedN))
		s.met.shed.Inc()
		s.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	st := j.status
	s.mu.Unlock()
	s.log.Info("job submitted", "trace_id", st.TraceID, "job", st.ID, "fp", st.Fingerprint, "experiment", st.Spec.Experiment)
	s.flight.Note("submitted", st.TraceID, st.ID, st.Spec.Experiment)
	s.publish(st)
	return st, nil
}

// Admission errors.
var (
	ErrDraining   = errors.New("serve: draining, not accepting jobs")
	ErrQueueFull  = errors.New("serve: queue full")
	ErrNotDurable = errors.New("serve: journal write failed, job not admitted")
	ErrNotFound   = errors.New("serve: no such job")
)

// traceID derives a job's correlation ID from its identity: FNV-64a
// (its offset basis and prime below) of id, NUL and fingerprint, in hex.
// Admission journals it with the spec and replay keeps the journaled
// value, so one grep follows a job across restarts even when its
// fingerprint is recomputed differently.
func traceID(id, fp string) string {
	h := uint64(14695981039346656037)
	for _, b := range []byte(id + "\x00" + fp) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

func (s *Server) newJobLocked(spec exp.JobSpec, fp string) *job {
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := &job{
		status: JobStatus{
			ID:          id,
			TraceID:     traceID(id, fp),
			Fingerprint: fp,
			Spec:        spec,
		},
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	s.jobs[j.status.ID] = j
	s.order = append(s.order, j.status.ID)
	return j
}

// Status returns the job's current status snapshot.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.status, nil
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status)
	}
	return out
}

// Result returns the job's result table from the result store, which
// holds every done job's table in memory (Put fills memory before disk)
// and loads a done job recovered from the journal from disk.
func (s *Server) Result(id string) (*exp.Table, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	st := j.status
	s.mu.Unlock()
	if st.State != StateDone {
		return nil, fmt.Errorf("serve: job %s is %s, no result", id, st.State)
	}
	t, ok := s.store.Get(st.Fingerprint)
	if !ok {
		return nil, fmt.Errorf("serve: job %s result missing from cache", id)
	}
	return t, nil
}

// Cancel stops a job: a queued job is terminal immediately, a running
// one has its context cancelled and stops within one quantum-poll
// stride, without a result. Cancelling a terminal job is a no-op
// returning its status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	if j.status.State.Terminal() {
		st := j.status
		s.mu.Unlock()
		return st, nil
	}
	j.userCancel = true
	if j.status.State == StateQueued {
		// The worker that eventually dequeues it sees the terminal state
		// and skips it.
		j.status.State = StateCancelled
		delete(s.inflight, j.status.Fingerprint)
		s.met.cancelled.Inc()
		st := j.status
		s.journalAppend(Entry{Event: evCancelled, ID: id, TraceID: st.TraceID, Fingerprint: st.Fingerprint})
		close(j.done)
		s.mu.Unlock()
		s.log.Info("job cancelled while queued", "trace_id", st.TraceID, "job", id)
		s.flight.Note("cancelled", st.TraceID, id, "cancelled while queued")
		s.publish(st)
		return st, nil
	}
	cancel := j.cancel
	st := j.status
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return st, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

func (s *Server) publish(st JobStatus) { s.bc.Publish("job", st) }

func (s *Server) journalAppend(e Entry) error {
	err := s.journal.Append(e)
	if err != nil {
		s.met.journalErrs.Inc()
		s.log.Warn("journal append failed", "trace_id", e.TraceID, "job", e.ID, "event", e.Event, "err", err)
	}
	return err
}

func (s *Server) worker() {
	defer s.wg.Done()
	s.workersAlive.Add(1)
	defer s.workersAlive.Add(-1)
	for {
		// Drain wins over queued work: once stopPick closes, queued jobs
		// stay journaled-but-unstarted and the next start resumes them.
		select {
		case <-s.stopPick:
			return
		default:
		}
		select {
		case <-s.stopPick:
			return
		case j := <-s.queue:
			s.mu.Lock()
			s.queuedN--
			s.met.queued.Set(int64(s.queuedN))
			claimed := j.status.State == StateQueued
			if claimed {
				j.status.State = StateRunning
				j.startedAt = time.Now()
				s.met.queueWait.Observe(j.startedAt.Sub(j.submittedAt))
				s.runningN++
				s.met.running.Set(int64(s.runningN))
			}
			st := j.status
			s.mu.Unlock()
			if !claimed {
				continue
			}
			s.log.Info("job claimed", "trace_id", st.TraceID, "job", st.ID)
			s.publish(st)
			s.runJob(j)
		}
	}
}

func (s *Server) stopping() bool {
	select {
	case <-s.stopPick:
		return true
	default:
		return false
	}
}

// runJob runs one claimed job once: it journals the start, runs the
// spec under the job's deadline with panic isolation, and finishes the
// job with whatever the run returned. A run is a pure function of its
// spec, so a failed one would fail the same way again: nothing retries.
func (s *Server) runJob(j *job) {
	base := s.runCtx
	var cancelT context.CancelFunc = func() {}
	if s.opts.JobTimeout > 0 {
		base, cancelT = context.WithTimeout(base, s.opts.JobTimeout)
	}
	defer cancelT()
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	s.mu.Lock()
	j.cancel = cancel
	spec, id, tid, fp := j.status.Spec, j.status.ID, j.status.TraceID, j.status.Fingerprint
	// A Cancel that raced the claim (before the cancel func existed)
	// takes effect now.
	if j.userCancel {
		cancel()
	}
	s.mu.Unlock()

	s.journalAppend(Entry{Event: evStarted, ID: id, TraceID: tid, Fingerprint: fp})
	s.flight.Note("started", tid, id, "run started")
	stop := s.met.runDur.Start()
	table, err := s.execute(ctx, spec, id, tid)
	stop()
	s.finish(j, ctx, table, err)
}

// execute is the job's one isolated run: the experiment run with the
// service's observability attached. A panic anywhere inside (including
// table assembly above the sweep's own per-item recovery) becomes the
// run's error.
func (s *Server) execute(ctx context.Context, spec exp.JobSpec, id, tid string) (t *exp.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("serve: job %s panicked: %v", id, r)
			s.flight.Note("panic", tid, id, fmt.Sprint(r))
			if path, derr := s.flight.Dump("panic"); path != "" && derr == nil {
				s.log.Error("flight record dumped", "trace_id", tid, "job", id, "reason", "panic", "path", path)
			}
		}
	}()
	return s.run(spec, ctx, func(sc *exp.Scale) {
		sc.Telemetry = telemetry.Options{
			Recorder:    telemetry.Fanout(s.bc, s.flight, s.opts.Recorder),
			Metrics:     s.opts.Metrics,
			TraceID:     tid,
			Attribution: s.opts.Attribution,
		}
	})
}

// finish classifies the outcome, journals the terminal event (except
// for drain interruptions, which must stay resumable), stores a returned
// table in the full-run cache, releases the job's running slot, and
// wakes waiters.
func (s *Server) finish(j *job, ctx context.Context, table *exp.Table, err error) {
	// A run returns a whole table or an error, so a returned table is the
	// job's canonical result even when ctx ended after the run finished.
	s.mu.Lock()
	fp, id, tid := j.status.Fingerprint, j.status.ID, j.status.TraceID
	userCancel := j.userCancel
	s.mu.Unlock()
	var storeErr error
	if err == nil {
		storeErr = s.store.Put(fp, table)
	}
	s.mu.Lock()
	delete(s.inflight, fp)
	var entry *Entry
	switch {
	case err == nil:
		j.status.State = StateDone
		if storeErr != nil {
			j.status.Error = storeErr.Error()
		}
		s.met.done.Inc()
		entry = &Entry{Event: evDone, ID: id, TraceID: tid, Fingerprint: fp}
	case userCancel:
		j.status.State, j.status.Error = StateCancelled, err.Error()
		s.met.cancelled.Inc()
		entry = &Entry{Event: evCancelled, ID: id, TraceID: tid, Fingerprint: fp}
	case s.stopping() && ctx.Err() != nil:
		// Drain cut it down: no terminal journal entry, so the next
		// start re-runs it and produces the result.
		j.status.State = StateInterrupted
		j.status.Error = "interrupted by shutdown"
	default:
		j.status.State, j.status.Error = StateFailed, err.Error()
		s.met.failed.Inc()
		entry = &Entry{Event: evFailed, ID: id, TraceID: tid, Fingerprint: fp, Error: err.Error()}
	}
	st := j.status
	latency := time.Since(j.submittedAt)
	if entry != nil {
		s.journalAppend(*entry)
	}
	// The running gauge settles, and the ring gets the terminal note and
	// any deadline dump, before done closes: a waiter must find them.
	s.runningN--
	s.met.running.Set(int64(s.runningN))
	s.flight.Note("finished", tid, id, string(st.State))
	var dump string
	if st.State == StateFailed && errors.Is(ctx.Err(), context.DeadlineExceeded) && !s.stopping() {
		// The job's own deadline failed it (not a drain): capture the
		// run-up for post-mortem. A failed dump costs only that.
		dump, _ = s.flight.Dump("deadline")
	}
	close(j.done)
	s.mu.Unlock()
	s.met.jobLatency.Observe(latency)
	s.log.Info("job finished", "trace_id", tid, "job", id, "state", string(st.State),
		"latency", latency, "err", st.Error)
	if dump != "" {
		s.log.Warn("flight record dumped", "trace_id", tid, "job", id, "reason", "deadline expiry", "path", dump)
	}
	s.publish(st)
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: admissions stop immediately, queued jobs
// stay journaled for the next start, and in-flight jobs get until the
// drain deadline (the sooner of ctx and Options.DrainTimeout) to
// finish before being cancelled mid-quantum and left resumable. The SSE
// broadcaster closes only after the last job published its terminal
// event, so clients never see a truncated frame. Always returns with
// the worker pool stopped and the journal closed; the error is the
// journal's close error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	queued, running := s.queuedN, s.runningN
	s.mu.Unlock()
	s.log.Info("drain started", "queued", queued, "running", running)
	s.flight.Note("drain", "", "", "shutdown started")
	s.stopOnce.Do(func() { close(s.stopPick) })
	ctx, cancel := context.WithTimeout(ctx, s.opts.DrainTimeout)
	defer cancel()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		s.runStop()
		<-idle
	}
	s.runStop()
	// Jobs still queued were never started; journal-wise they are
	// already resumable. Mark them interrupted so in-process waiters
	// unblock.
	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.status.State == StateQueued {
			j.status.State = StateInterrupted
			j.status.Error = "interrupted by shutdown"
			delete(s.inflight, j.status.Fingerprint)
			close(j.done)
		}
	}
	s.mu.Unlock()
	s.bc.Close()
	s.log.Info("drain complete")
	return s.journal.Close()
}

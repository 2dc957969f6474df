// Command asmserve runs the simulation job service: a long-lived HTTP
// server that accepts experiment jobs as JSON, executes them on a
// bounded worker pool with admission control, memoizes full-run results
// by canonical job fingerprint, and streams job lifecycle events plus
// per-quantum records over SSE. With -state it journals every job to
// disk, so a crashed or drained server resumes incomplete jobs on the
// next start and answers completed ones from the on-disk cache.
//
// Usage:
//
//	asmserve -addr localhost:8080 -state /var/lib/asmserve
//	curl -s localhost:8080/api/jobs -d '{"experiment":"fig2","workloads":2,"measured_quanta":1}'
//	curl -s localhost:8080/api/jobs/job-1
//	curl -s localhost:8080/api/jobs/job-1/result
//	curl -N  localhost:8080/api/events
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/api/debug/flightrecord
//
// The listener also serves the live dashboard (/debug/asm/) and pprof
// (/debug/pprof/). SIGINT/SIGTERM drains gracefully: admissions stop
// with 503, in-flight jobs get -drain-timeout to finish before being
// cancelled mid-quantum and left resumable in the journal, and the
// process exits 0.
//
// Each job runs once. A run is a pure function of its spec, so nothing
// retries a failed one. A job that panics or outlives -job-timeout ends
// failed; with -state it also leaves a flight dump under the state
// directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"asmsim/internal/observe"
	"asmsim/internal/serve"
)

func main() {
	var obs observe.Flags
	var (
		addr         = flag.String("addr", "localhost:8080", "HTTP listen address (use :0 for an ephemeral port)")
		state        = flag.String("state", "", "state directory for the job journal and result cache (empty = in-memory only)")
		workers      = flag.Int("workers", 0, "concurrent job runners (0 = default)")
		queue        = flag.Int("queue", 0, "admission queue depth; beyond it submissions are shed with 429 (0 = default)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on SIGINT/SIGTERM")
		logSpec      = flag.String("log", "", "structured job logs: off (default), text, or json; written to stderr with per-job trace_id")
		sloInterval  = flag.Duration("slo-interval", 0, "latency-SLO histogram polling interval (0 = default 5s)")
	)
	obs.Register(flag.CommandLine, map[string]string{
		"slo":        "evaluate SLOs from this JSON spec file over every job's quantum records and the service latency histograms (see EXPERIMENTS.md); alerts surface on /debug/asm/alerts, /metrics and the flight recorder",
		"cpuprofile": "write a CPU profile to this file",
		"memprofile": "write a heap profile to this file on exit",
	})
	flag.Parse()
	if *addr == "" {
		fatal(fmt.Errorf("asmserve: -addr is required"))
	}
	var logger *slog.Logger
	switch *logSpec {
	case "", "off":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("asmserve: -log must be off, text or json (got %q)", *logSpec))
	}

	// Catch signals before anything is advertised: a SIGTERM arriving
	// the instant the banner prints must still drain, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The dashboard is always on, on the job service's listener. The
	// flight ring, shared by the job service and the SLO engine, dumps
	// under the state directory.
	obs.Dash = *addr
	if *state != "" {
		obs.SLOFlight = filepath.Join(*state, "flightrec")
	}
	o, err := observe.Start(obs, logger)
	if err != nil {
		fatal(err)
	}
	tel, _ := o.Run("") // a single-run Run opens nothing, so it cannot fail
	srv, err := serve.New(serve.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
		StateDir:     *state,
		Metrics:      tel.Metrics,
		Recorder:     tel.Recorder,
		Attribution:  tel.Attribution,
		Flight:       o.Flight,
		Log:          logger,
	})
	if err != nil {
		fatal(err)
	}
	if o.SLO != nil {
		defer o.SLO.StartLatencyLoop(o.Registry, *sloInterval)()
	}
	// The job service owns /metrics on this listener. Close (LIFO) closes
	// the dashboard broadcaster before the HTTP server stops, so its SSE
	// handlers drain instead of hanging the shutdown.
	if err := o.Listen(srv.Mount); err != nil {
		fatal(err)
	}
	// asmserve opens no observation files, so Close has nothing to fail
	// on; the exit code stays the drain's.
	defer o.Close()

	bound := o.Addr()
	fmt.Fprintf(os.Stderr, "asmserve: job service listening on http://%s/api/jobs\n", bound)
	if *state != "" {
		fmt.Fprintf(os.Stderr, "asmserve: journaling to %s\n", *state)
	}
	if resumed := countResumed(srv); resumed > 0 {
		fmt.Fprintf(os.Stderr, "asmserve: resumed %d incomplete job(s) from the journal\n", resumed)
	}

	<-ctx.Done()
	stop() // a second signal kills the process the default way
	fmt.Fprintf(os.Stderr, "asmserve: draining (up to %v)...\n", *drainTimeout)
	if err := srv.Shutdown(context.Background()); err != nil {
		fatal(fmt.Errorf("asmserve: drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "asmserve: drained cleanly")
}

func countResumed(srv *serve.Server) int {
	n := 0
	for _, st := range srv.Jobs() {
		if st.Resumed {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

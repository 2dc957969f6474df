// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig2            # quick scale (minutes)
//	experiments -run fig2 -full      # paper scale (hours)
//	experiments -run all -quick
//	experiments -run tab3 -workloads 10 -quanta 5
//	experiments -run all -timeout 30m
//	experiments -run fig2 -format json | jq .
//	experiments -run fig2 -telemetry /tmp/tel -dash localhost:6060
//
// Tables go to stdout; all progress and diagnostics go to stderr, so
// `-format json` (or csv) output stays machine-parseable when piped.
// With -run all and -format json, stdout is one JSON array of tables.
//
// A table is whole or its experiment fails: a failed mix, Ctrl-C
// (SIGINT/SIGTERM) or the -timeout deadline (which stops the runs in
// flight mid-quantum) fails the experiment with an error naming the
// cause. The tables of the experiments that finished before it are
// still printed, every observer output is flushed, and the process
// exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"asmsim/internal/exp"
	"asmsim/internal/observe"
	"asmsim/internal/telemetry"
)

func main() {
	obs := observe.Flags{TraceSample: 256, PerRun: true}
	var (
		list      = flag.Bool("list", false, "list available experiments")
		run       = flag.String("run", "", "experiment id to run, or 'all'")
		full      = flag.Bool("full", false, "paper-scale sweep (hours)")
		workloads = flag.Int("workloads", 0, "override workload count")
		quanta    = flag.Int("quanta", 0, "override measured quanta")
		seed      = flag.Uint64("seed", 0, "override random seed")
		format    = flag.String("format", "text", "output format: text, csv, json")
		outDir    = flag.String("o", "", "also write each table to <dir>/<id>.<format>")
		timeout   = flag.Duration("timeout", 0, "overall deadline for the whole invocation (0 = none)")
		progress  = flag.Bool("progress", true, "report live sweep progress (done/total, ETA, losses) on stderr")
	)
	obs.Register(flag.CommandLine, map[string]string{
		"telemetry":    "write quantum telemetry (<id>.quanta.jsonl per experiment + metrics.jsonl) to this directory",
		"trace":        "write a Perfetto-loadable chrome-trace JSON per experiment (<id>.trace.json) to this directory",
		"trace-sample": "record every Nth demand-miss span in traces (1 = all; attribution is always exact)",
		"cpuprofile":   "write a CPU profile to this file",
		"memprofile":   "write a heap profile to this file on exit",
		"dash":         "serve the live dashboard (and pprof) on this address; visit /debug/asm/ while the sweep runs",
		"slo":          "evaluate SLOs from this JSON spec file over every sweep's quantum records (see EXPERIMENTS.md); the final alert states print to stderr and non-inactive alerts fail the invocation",
	})
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.All() {
			ref := e.Paper
			if ref == "" {
				ref = "ablation"
			}
			fmt.Printf("  %-12s %-12s %s\n", e.ID, ref, e.Title)
		}
		return
	}

	// Every experiment resolves its scale the way asmserve resolves a job:
	// through exp.JobSpec, which also gives each experiment a fresh
	// alone-curve cache (curves are shared within one experiment only,
	// which bounds resident memory over a -run all sweep).
	spec := exp.JobSpec{
		Full:           *full,
		Workloads:      *workloads,
		MeasuredQuanta: *quanta,
		Seed:           *seed,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var exps []exp.Experiment
	if *run == "all" {
		exps = exp.All()
	} else {
		e, err := exp.ByID(*run)
		if err != nil {
			fatal(err)
		}
		exps = []exp.Experiment{e}
	}

	o, err := observe.Start(obs, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		fatal(err)
	}
	// The dashboard, /metrics and pprof share the one -dash listener.
	if err := o.Listen(o.Dash.MountMetrics); err != nil {
		fatal(err)
	}

	var tables []*exp.Table
	var runErr error
	for _, e := range exps {
		var tel telemetry.Options
		if tel, runErr = o.Run(e.ID); runErr != nil {
			break
		}
		var prg *telemetry.Progress
		if *progress {
			prg = telemetry.NewProgress(os.Stderr, e.ID, 0)
			tel.Progress = prg
		}
		// Each experiment's progress replaces the previous one on the
		// dashboard (the /progress endpoint tracks the live sweep).
		o.Dash.SetProgress(prg)
		start := time.Now()
		spec.Experiment = e.ID
		table, err := spec.Run(ctx, func(sc *exp.Scale) { sc.Telemetry = tel })
		prg.Finish()
		o.EndRun()
		if err != nil {
			runErr = fmt.Errorf("%s: %w", e.ID, err)
			break
		}
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		tables = append(tables, table)
		if *outDir != "" {
			if runErr = writeTable(*outDir, table, *format); runErr != nil {
				break
			}
		}
	}
	// Print what finished and flush every observer output whether or not
	// an experiment failed. Observability sinks that fail to flush make
	// the invocation fail: silently dropped telemetry or trace data must
	// not exit zero.
	if err := emit(os.Stdout, tables, *format); err != nil && runErr == nil {
		runErr = err
	}
	obsErr := o.Close()
	sloFailed := o.ReportAlerts(os.Stderr)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	if runErr != nil || obsErr != nil || sloFailed {
		os.Exit(1)
	}
}

// renderAll renders a run's tables for stdout. Text and CSV concatenate
// with blank-line separators; JSON emits a single object for one table
// and an array for several, so piped output always parses as one JSON
// value.
func renderAll(tables []*exp.Table, format string) (string, error) {
	if format == "json" && len(tables) != 1 {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return "", err
		}
		return string(out), nil
	}
	s := ""
	for i, t := range tables {
		out, err := t.Render(format)
		if err != nil {
			return "", err
		}
		if i > 0 {
			s += "\n"
		}
		s += out + "\n"
	}
	return s, nil
}

// emit writes the rendered tables to w (no-op for an empty run).
func emit(w io.Writer, tables []*exp.Table, format string) error {
	if len(tables) == 0 {
		return nil
	}
	out, err := renderAll(tables, format)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, out)
	return err
}

// writeTable stores one table under dir as <id>.<ext>.
func writeTable(dir string, t *exp.Table, format string) error {
	out, err := t.Render(format)
	if err != nil {
		return err
	}
	ext := format
	if ext == "text" {
		ext = "txt"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.ID+"."+ext), []byte(out+"\n"), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

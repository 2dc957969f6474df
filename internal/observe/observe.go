// Package observe is the command-line binaries' one observer harness:
// it declares the observer flags (each binary offers its own subset,
// defaults and usage text), builds the process-wide observers — the
// flight ring, and those the flags ask for: metrics registry, profiler
// and dashboard listener, SLO engine — hands each run its
// telemetry.Options, and flushes every sink in LIFO order on Close.
package observe

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"

	"asmsim/internal/dash"
	"asmsim/internal/evtrace"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
)

// Flags are the observer flag values; an empty string disables that
// observer. Set defaults in the fields before Register.
type Flags struct {
	Telemetry              string // record directory
	Trace                  string // trace file (a directory with PerRun)
	TraceSample            int
	Dash                   string // listen address: dashboard, /metrics and pprof
	SLO, SLOFlight         string // spec file; flight-dump directory (see Observers.Flight)
	CPUProfile, MemProfile string
	// PerRun makes Telemetry and Trace directories holding one file set
	// per Run id (<id>.quanta.jsonl, <id>.trace.json). Otherwise the
	// process is one run: Telemetry holds quanta.jsonl, Trace names the
	// trace file, and the SLO engine's alert instants go into it.
	PerRun bool

	declared map[string]bool
}

// Register declares on fs each observer flag named in usage, with that
// usage text and the field's current value as its default.
func (f *Flags) Register(fs *flag.FlagSet, usage map[string]string) {
	strs := map[string]*string{
		"telemetry": &f.Telemetry, "trace": &f.Trace, "dash": &f.Dash,
		"slo": &f.SLO, "slo-flight": &f.SLOFlight,
		"cpuprofile": &f.CPUProfile, "memprofile": &f.MemProfile,
	}
	f.declared = map[string]bool{}
	for name, u := range usage {
		f.declared[name] = true
		if p, ok := strs[name]; ok {
			fs.StringVar(p, name, *p, u)
		} else if name == "trace-sample" {
			fs.IntVar(&f.TraceSample, name, f.TraceSample, u)
		} else {
			panic("observe: unknown observer flag " + name)
		}
	}
}

// closer is one sink to flush, labelled for its error message.
type closer struct {
	label string
	close func() error
}

// Observers are a process's observers, built once by Start.
type Observers struct {
	Registry *telemetry.Registry // nil unless telemetry, dashboard or SLOs are on
	Dash     *dash.Server        // nil without -dash
	SLO      *slo.Engine         // nil without -slo
	// Flight is the process's one flight ring, always built. It dumps
	// into SLOFlight, which a binary offering -slo-flight defaults to the
	// -telemetry directory, else "."; such a binary also fans each run's
	// quantum stream into it under -slo. The SLO engine dumps it when an
	// alert fires; asmserve hands it to its job service, which feeds it.
	Flight *telemetry.FlightRecorder

	f      Flags
	live   telemetry.Recorder // flight ring, dashboard, SLO engine
	rec    telemetry.Recorder // the current run's quantum recorder
	tracer *evtrace.Tracer    // the current run's tracer
	prof   *telemetry.Profiler
	sinks  []closer // flushed by Close
	run    []closer // the current PerRun run's files, flushed by EndRun
	failed bool
}

// Start builds the flight ring and the observers f asks for — registry,
// dashboard, the single run's recorder and tracer, and SLO engine,
// logging transitions to log — and installs the registry and alert
// source on the dashboard, once.
func Start(f Flags, log *slog.Logger) (*Observers, error) {
	dumpDir := f.SLOFlight
	if f.declared["slo-flight"] {
		dumpDir = cmp.Or(f.SLOFlight, f.Telemetry, ".")
	}
	o := &Observers{f: f, Flight: telemetry.NewFlightRecorder(512, dumpDir)}
	if f.Telemetry != "" || f.Dash != "" || f.SLO != "" {
		o.Registry = telemetry.NewRegistry()
	}
	if f.Dash != "" {
		o.Dash = dash.NewServer()
		o.Dash.SetRegistry(o.Registry)
	}
	dirs := []string{f.Telemetry}
	if f.PerRun {
		dirs = append(dirs, f.Trace)
	}
	for _, dir := range dirs {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
	}
	if !f.PerRun {
		if err := o.openRun(""); err != nil {
			return nil, err
		}
		o.sinks, o.run = o.run, nil
	}
	var live []telemetry.Recorder
	if f.SLO != "" {
		spec, err := slo.Load(f.SLO)
		if err != nil {
			return nil, err
		}
		if f.declared["slo-flight"] {
			// The flight ring rides the quantum stream so a firing alert
			// dumps the recent records that led up to it.
			live = append(live, o.Flight)
		}
		o.SLO = slo.New(spec, slo.Sinks{Metrics: o.Registry, Log: log, Flight: o.Flight,
			Trace: o.tracer, OnTransition: o.Dash.PublishAlert})
	}
	if o.Dash != nil {
		live = append(live, o.Dash)
		if o.SLO != nil {
			o.Dash.SetAlertSource(o.SLO)
		}
	}
	if o.SLO != nil {
		live = append(live, o.SLO)
	}
	o.live = telemetry.Fanout(live...)
	if f.Telemetry != "" {
		o.Track("telemetry", func() error {
			out, err := os.Create(filepath.Join(f.Telemetry, "metrics.jsonl"))
			if err != nil {
				return err
			}
			return errors.Join(o.Registry.WriteJSONL(out), out.Close())
		})
	}
	return o, nil
}

// Listen starts the profiler — CPU and heap profiles, and, with a
// dashboard address, one HTTP listener serving pprof, the dashboard and
// mounts — and announces the bound address on stderr.
func (o *Observers) Listen(mounts ...func(*http.ServeMux)) error {
	prof, err := telemetry.StartProfiler(o.f.CPUProfile, o.f.MemProfile,
		o.f.Dash, append(mounts, o.Dash.Mount)...)
	if err != nil {
		return err
	}
	o.prof = prof
	if a := o.Addr(); a != "" {
		fmt.Fprintf(os.Stderr, "pprof server listening on http://%s/debug/pprof/\n", a)
		fmt.Fprintf(os.Stderr, "dashboard listening on http://%s/debug/asm/\n", a)
	}
	return nil
}

// Addr returns the listener's bound address ("" when none runs).
func (o *Observers) Addr() string { return o.prof.PprofAddr() }

// Run returns one run's telemetry.Options: its recorder and tracer —
// opened here under PerRun (only then can it fail), and flushed by the
// next Run or EndRun — composed with the process-wide registry, flight
// ring, dashboard and SLO engine.
func (o *Observers) Run(id string) (telemetry.Options, error) {
	if o.f.PerRun {
		o.EndRun()
		if err := o.openRun(id); err != nil {
			return telemetry.Options{}, err
		}
	}
	opts := telemetry.Options{Recorder: telemetry.Fanout(o.rec, o.live), Metrics: o.Registry, Trace: o.tracer}
	if o.Dash != nil {
		opts.Attribution = o.Dash.ObserveAttribution
	}
	return opts, nil
}

// openRun opens run id's recorder and tracer, queuing them on o.run.
func (o *Observers) openRun(id string) error {
	label, quanta, trace := "", "quanta.jsonl", o.f.Trace
	if o.f.PerRun {
		label, quanta, trace = ": "+id, id+".quanta.jsonl", filepath.Join(trace, id+".trace.json")
	}
	if o.f.Telemetry != "" {
		var err error
		if o.rec, err = telemetry.OpenJSONLRecorder(filepath.Join(o.f.Telemetry, quanta)); err != nil {
			return err
		}
		o.run = append(o.run, closer{"telemetry" + label, o.rec.Close})
	}
	if o.f.Trace != "" {
		var err error
		if o.tracer, err = evtrace.Open(trace, evtrace.Config{SampleEvery: o.f.TraceSample}); err != nil {
			return err
		}
		o.run = append(o.run, closer{"trace" + label, o.tracer.Close})
	}
	return nil
}

// EndRun flushes the current PerRun run's files.
func (o *Observers) EndRun() {
	o.flush(o.run)
	o.run, o.rec, o.tracer = nil, nil, nil
}

// Track adds a sink the binary opened itself to Close's flush.
func (o *Observers) Track(label string, close func() error) {
	o.sinks = append(o.sinks, closer{label, close})
}

// Close flushes every sink last-first — the open run's files, tracked
// sinks, the metrics snapshot — then closes the dashboard (so its SSE
// handlers drain) and stops the profiler. A sink that cannot write its
// data fails the invocation: Close reports each on stderr and returns
// an error.
func (o *Observers) Close() error {
	o.EndRun()
	o.flush(o.sinks)
	o.sinks = nil
	o.Dash.Close()
	if err := o.prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if o.failed {
		return errors.New("observe: observation sinks failed to flush")
	}
	return nil
}

// ReportAlerts prints every SLO's final state to w, one line each, and
// reports whether any alert is not inactive.
func (o *Observers) ReportAlerts(w io.Writer) (active bool) {
	for _, a := range o.SLO.Alerts() {
		fmt.Fprintf(w, "slo %-20s %-9s %-8s bad=%d/%d burn=%.2f budget=%.0f%%\n",
			a.Name, a.Signal, a.State, a.Bad, a.Ticks, a.BurnRate, 100*a.BudgetRemaining)
		active = active || a.State != slo.Inactive
	}
	return active
}

func (o *Observers) flush(cs []closer) {
	for i := len(cs) - 1; i >= 0; i-- {
		if err := cs[i].close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cs[i].label, err)
			o.failed = true
		}
	}
}

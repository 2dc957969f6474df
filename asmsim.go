// Package asmsim is a from-scratch Go reproduction of "The Application
// Slowdown Model: Quantifying and Controlling the Impact of
// Inter-Application Interference at Shared Caches and Main Memory"
// (Subramanian, Seshadri, Ghosh, Khan, Mutlu — MICRO 2015).
//
// The package bundles:
//
//   - a cycle-level multi-core memory-system simulator (out-of-order-like
//     cores, private L1s, shared L2 with auxiliary tag stores, DDR3 main
//     memory behind FR-FCFS/PARBS/TCM scheduling);
//   - the Application Slowdown Model (ASM) and the prior-work baselines it
//     is evaluated against (FST, PTCA, MISE, STFM);
//   - the slowdown-aware resource management schemes built on ASM
//     (ASM-Cache, ASM-Mem, ASM-Cache-Mem, ASM-QoS) and their baselines
//     (UCP, MCFQ);
//   - synthetic SPEC CPU2006 / NAS / TPC-C / YCSB workload generators;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation (see Experiments and cmd/experiments).
//
// Quick start:
//
//	res, err := asmsim.Run(asmsim.DefaultConfig(),
//	    []string{"mcf", "libquantum", "bzip2", "h264ref"},
//	    asmsim.RunOptions{WarmupQuanta: 1, Quanta: 3, GroundTruth: true})
//	for i, name := range res.Names {
//	    fmt.Printf("%s: estimated %.2fx, actual %.2fx\n",
//	        name, res.EstimatedSlowdown[i], res.ActualSlowdown[i])
//	}
package asmsim

import (
	"context"
	"fmt"
	"io"

	"asmsim/internal/cluster"
	"asmsim/internal/core"
	"asmsim/internal/dash"
	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
	"asmsim/internal/metrics"
	"asmsim/internal/model"
	"asmsim/internal/partition"
	"asmsim/internal/serve"
	"asmsim/internal/sim"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// Re-exported system types. The aliases make the internal implementation
// nameable by importers of this package.
type (
	// Config describes a simulated system (Table 2 of the paper).
	Config = sim.Config
	// System is one running simulated machine.
	System = sim.System
	// QuantumStats is the per-quantum counter snapshot models consume.
	QuantumStats = sim.QuantumStats
	// AppSpec parameterizes one synthetic application.
	AppSpec = workload.Spec
	// Mix is a multiprogrammed workload (one benchmark name per core).
	Mix = workload.Mix
	// Estimator is a slowdown model: quantum counters in, per-app
	// slowdown estimates out.
	Estimator = core.Estimator
	// Partitioner is a shared-cache way-allocation policy.
	Partitioner = partition.Partitioner
	// Experiment is one regenerable paper table/figure.
	Experiment = exp.Experiment
	// ExperimentScale sets experiment sizes (Quick vs Full).
	ExperimentScale = exp.Scale
	// ASM is the paper's Application Slowdown Model.
	ASM = core.ASM
	// TelemetryOptions is the one observer value a run takes: metrics
	// registry, quantum recorder (the dashboard and the SLO engine are
	// recorders composed into it), progress reporter, event tracer and
	// attribution subscriber. The zero value disables all observation at
	// zero cost.
	TelemetryOptions = telemetry.Options
	// TelemetryRegistry is an allocation-free atomic counter/gauge/timer
	// registry with named scopes; nil is a valid no-op registry.
	TelemetryRegistry = telemetry.Registry
	// TelemetryMetric is one snapshotted registry entry.
	TelemetryMetric = telemetry.Metric
	// QuantumRecord is one (app, quantum) time-series sample: raw counters
	// plus every estimator's slowdown estimate and, when available, the
	// actual slowdown.
	QuantumRecord = telemetry.QuantumRecord
	// QuantumRecorder streams QuantumRecords to a sink (JSONL or CSV).
	QuantumRecorder = telemetry.Recorder
	// AloneCurveCache memoizes alone-run ground-truth curves so repeated
	// runs sharing benchmarks and configuration pay each benchmark's
	// alone simulation once (see RunOptions.SharedAloneCache and
	// ExperimentScale.AloneCache).
	AloneCurveCache = sim.AloneCurveCache
	// Tracer streams cycle-level request spans and per-quantum
	// interference attribution matrices as Perfetto-loadable
	// chrome-trace-event JSON; nil disables tracing at zero cost.
	Tracer = evtrace.Tracer
	// TracerConfig parameterizes a Tracer (span sampling period).
	TracerConfig = evtrace.Config
	// QuantumAttribution is one quantum's N×N interference attribution
	// snapshot (cycles app i delayed app j, split cache vs memory).
	QuantumAttribution = evtrace.QuantumAttribution
	// TraceSummary aggregates a trace's attribution series into run-level
	// matrices and CPI stacks.
	TraceSummary = evtrace.Summary
	// DashServer is the live observability dashboard: mounted on the
	// profiler's HTTP mux, it streams metrics, per-quantum records and
	// interference attribution while a run or sweep executes. It is a
	// QuantumRecorder; its ObserveAttribution is a run's
	// TelemetryOptions.Attribution.
	DashServer = dash.Server
	// FleetPoller scrapes K nodes' /metrics, /debug/asm/hist and
	// /debug/asm/attribution endpoints on an interval and merges them
	// into the cluster-wide state served at /debug/asm/fleet (install it
	// with DashServer.SetFleetSource).
	FleetPoller = serve.FleetPoller
	// FleetPollerOptions parameterizes a FleetPoller (targets, scrape
	// interval, per-request timeout, health-metrics registry).
	FleetPollerOptions = serve.FleetPollerOptions
	// SLOSpec is a declarative set of service-level objectives over a
	// run's slowdown bounds, estimator accuracy and service latency
	// (load one from JSON with LoadSLOSpec).
	SLOSpec = slo.Spec
	// SLOEngine evaluates an SLOSpec with multi-window burn-rate
	// alerting and an estimator-drift watchdog; it is a QuantumRecorder
	// reading the records only, so it never perturbs simulation results.
	SLOEngine = slo.Engine
	// SLOSinks wires an SLOEngine's alert outputs (metrics registry,
	// structured log, flight recorder, event tracer, transition hook).
	SLOSinks = slo.Sinks
	// SLOAlertStatus is one objective's live alert state.
	SLOAlertStatus = slo.AlertStatus
	// SLOAlertEvent is one alert state transition.
	SLOAlertEvent = slo.AlertEvent
)

// Memory scheduling policies.
const (
	PolicyFRFCFS = sim.PolicyFRFCFS
	PolicyPARBS  = sim.PolicyPARBS
	PolicyTCM    = sim.PolicyTCM
)

// DefaultConfig returns the paper's main evaluation system: 4 cores, 2 MB
// shared 16-way L2, one DDR3-1333 channel, Q = 5M cycles, E = 10K cycles.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewSystem builds a simulated machine running one spec per core.
func NewSystem(cfg Config, specs []AppSpec) (*System, error) { return sim.New(cfg, specs) }

// Benchmarks returns every named synthetic benchmark (SPEC + NAS + DB).
func Benchmarks() []AppSpec { return workload.All() }

// BenchmarkByName resolves a benchmark (or "hogN") name.
func BenchmarkByName(name string) (AppSpec, bool) { return workload.ByName(name) }

// RandomMixes builds n-core random workload mixes as in Section 5.
func RandomMixes(n, count int, seed uint64) []Mix {
	pool := workload.SPEC()
	pool = append(pool, workload.NAS()...)
	return workload.RandomMixes(pool, n, count, seed)
}

// NewASM returns the paper's model (Sections 3-4).
func NewASM() *ASM { return core.NewASM() }

// NewFST returns the Fairness-via-Source-Throttling baseline model.
func NewFST() Estimator { return model.NewFST() }

// NewPTCA returns the Per-Thread Cycle Accounting baseline model.
func NewPTCA() Estimator { return model.NewPTCA() }

// NewMISE returns the memory-only MISE baseline model.
func NewMISE() Estimator { return model.NewMISE() }

// NewUCP returns the utility-based cache partitioning baseline.
func NewUCP() Partitioner { return partition.NewUCP() }

// NewMCFQ returns the MLP/cache-friendliness-aware partitioning baseline.
func NewMCFQ() Partitioner { return partition.NewMCFQ() }

// NewASMCache returns the slowdown-aware cache partitioner (Section 7.1).
func NewASMCache() Partitioner { return partition.NewASMCache(nil) }

// NewASMQoS returns the soft-slowdown-guarantee partitioner (Section 7.3).
func NewASMQoS(targetApp int, bound float64) Partitioner {
	return partition.NewASMQoS(targetApp, bound)
}

// AttachPartitioner applies a cache partitioning policy to a system at
// every quantum boundary.
func AttachPartitioner(s *System, p Partitioner) {
	s.AddQuantumListener(partition.Listener(p))
}

// AttachASMMem applies slowdown-proportional memory bandwidth
// partitioning (Section 7.2) to a system.
func AttachASMMem(s *System) {
	s.AddQuantumListener(partition.NewASMMem(nil).Listener())
}

// Experiments returns the registry of regenerable paper artifacts.
func Experiments() []Experiment { return exp.All() }

// ExperimentByID looks up one experiment (fig2, tab3, ...).
func ExperimentByID(id string) (Experiment, error) { return exp.ByID(id) }

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewJSONLRecorder streams quantum records to w as JSON lines.
func NewJSONLRecorder(w io.Writer) QuantumRecorder { return telemetry.NewJSONLRecorder(w) }

// OpenJSONLRecorder creates path and streams quantum records to it as
// JSON lines; Close flushes and reports the first write error.
func OpenJSONLRecorder(path string) (QuantumRecorder, error) {
	return telemetry.OpenJSONLRecorder(path)
}

// FanoutRecorders returns one QuantumRecorder feeding every given
// recorder in order (nils are skipped): how a file recorder, a
// DashServer and an SLOEngine share a run's TelemetryOptions.Recorder.
func FanoutRecorders(recs ...QuantumRecorder) QuantumRecorder { return telemetry.Fanout(recs...) }

// NewAloneCurveCache returns an empty alone-run ground-truth curve
// cache, safe for concurrent use across Runs and experiment sweeps.
func NewAloneCurveCache() *AloneCurveCache { return sim.NewAloneCurveCache() }

// NewTracer returns a tracer streaming chrome-trace JSON to w.
func NewTracer(w io.Writer, cfg TracerConfig) *Tracer { return evtrace.New(w, cfg) }

// OpenTracer creates path and streams the trace to it; Close terminates
// the JSON document and reports the first write error.
func OpenTracer(path string, cfg TracerConfig) (*Tracer, error) { return evtrace.Open(path, cfg) }

// SummarizeTrace folds a per-quantum attribution series, collected
// through TelemetryOptions.Attribution, into one aggregate summary.
func SummarizeTrace(quanta []QuantumAttribution) TraceSummary { return evtrace.Summarize(quanta) }

// NewDashServer returns a live dashboard ready to Mount on the
// profiler's mux (telemetry.StartProfiler) and to compose into a run's
// TelemetryOptions (Recorder and Attribution).
func NewDashServer() *DashServer { return dash.NewServer() }

// NewFleetPoller returns a poller over the given node base URLs; call
// Start to begin sweeping, then install it with
// DashServer.SetFleetSource to light up /debug/asm/fleet.
func NewFleetPoller(opts FleetPollerOptions) *FleetPoller { return serve.NewFleetPoller(opts) }

// LoadSLOSpec reads and validates a JSON SLO spec file (see
// internal/slo for the schema; EXPERIMENTS.md documents it).
func LoadSLOSpec(path string) (SLOSpec, error) { return slo.Load(path) }

// NewSLOEngine builds an alert engine for spec with the given sinks.
// Compose it into a run's TelemetryOptions.Recorder (or the job
// service's serve.Options.Recorder); it observes quantum records without
// perturbing them.
func NewSLOEngine(spec SLOSpec, sinks SLOSinks) *SLOEngine { return slo.New(spec, sinks) }

// QuickScale returns the minutes-scale experiment configuration.
func QuickScale() ExperimentScale { return exp.Quick() }

// FullScale returns the paper-scale experiment configuration.
func FullScale() ExperimentScale { return exp.Full() }

// RunOptions controls Run.
type RunOptions struct {
	// WarmupQuanta are simulated but excluded from the reported averages.
	WarmupQuanta int
	// Quanta is the number of measured quanta (default 3).
	Quanta int
	// GroundTruth additionally runs each app alone to measure actual
	// slowdowns. The alone runs are curves extended on goroutines of their
	// own while the shared run simulates (see SharedAloneCache).
	GroundTruth bool
	// Estimators to evaluate; nil selects ASM only.
	Estimators []Estimator
	// Attach, when non-nil, is called with the system before the run
	// starts — use it to install partitioning or bandwidth policies.
	Attach func(*System)
	// Telemetry optionally observes the run: Metrics receives the
	// simulator's counters/gauges/timers, Recorder receives one
	// QuantumRecord per (app, quantum), warmup included, and Trace and
	// Attribution observe the shared run's interference. The zero value
	// disables all of it.
	Telemetry TelemetryOptions
	// SharedAloneCache, when non-nil and GroundTruth is set, serves the
	// alone-run curves from a cache shared across Runs: pass the same
	// cache to several Runs under the same Config to pay each benchmark's
	// alone run once. nil (the default) gives the Run a private cache.
	// Reported slowdowns are bit-identical either way.
	SharedAloneCache *AloneCurveCache
}

// RunResult reports per-app outcomes of a Run.
type RunResult struct {
	// Names are the benchmark names, one per core.
	Names []string
	// IPC is each app's measured instructions per cycle (shared run).
	IPC []float64
	// EstimatedSlowdown is the first estimator's mean estimate over
	// measured quanta; Estimates holds every estimator's by name.
	EstimatedSlowdown []float64
	Estimates         map[string][]float64
	// ActualSlowdown is ground truth (nil unless requested).
	ActualSlowdown []float64
	// MaxSlowdown and HarmonicSpeedup are computed from actual slowdowns
	// when available, else from the first estimator's estimates.
	MaxSlowdown     float64
	HarmonicSpeedup float64
}

// Run simulates one workload mix under cfg and reports slowdowns. It is
// the package's convenience entry point; use NewSystem directly for
// custom instrumentation.
func Run(cfg Config, names []string, opt RunOptions) (*RunResult, error) {
	return RunContext(context.Background(), cfg, names, opt)
}

// RunContext is Run with cancellation: the simulation polls ctx every few
// thousand cycles, so it stops mid-quantum, and returns ctx's error (with
// no result) when cancelled.
func RunContext(ctx context.Context, cfg Config, names []string, opt RunOptions) (*RunResult, error) {
	if opt.Quanta <= 0 {
		opt.Quanta = 3
	}
	ests := opt.Estimators
	if len(ests) == 0 {
		ests = []Estimator{core.NewASM()}
	}
	for _, n := range names {
		if _, ok := workload.ByName(n); !ok {
			return nil, fmt.Errorf("asmsim: unknown benchmark %q", n)
		}
	}
	n := len(names)
	res := &RunResult{
		Names:     names,
		IPC:       make([]float64, n),
		Estimates: map[string][]float64{},
	}
	for _, e := range ests {
		res.Estimates[e.Name()] = make([]float64, n)
	}
	if opt.GroundTruth {
		res.ActualSlowdown = make([]float64, n)
	}
	sys, err := exp.MixRun{
		Config:      cfg,
		Mix:         Mix{Names: names},
		Telemetry:   opt.Telemetry,
		Attach:      opt.Attach,
		Estimators:  ests,
		GroundTruth: opt.GroundTruth,
		AloneCache:  opt.SharedAloneCache,
		Warmup:      opt.WarmupQuanta,
		Measured:    opt.Quanta,
		OnQuantum: func(st *sim.QuantumStats, actual []float64, est map[string][]float64) {
			for a := 0; a < n; a++ {
				res.IPC[a] += st.IPC(a)
				for name, v := range est {
					res.Estimates[name][a] += v[a]
				}
				if actual != nil {
					res.ActualSlowdown[a] += actual[a]
				}
			}
		},
	}.Run(ctx)
	if err != nil {
		if sys != nil {
			return nil, fmt.Errorf("asmsim: run cancelled after %d quanta: %w", sys.QuantumIndex(), err)
		}
		return nil, err
	}
	for a := 0; a < n; a++ {
		res.IPC[a] /= float64(opt.Quanta)
		for name := range res.Estimates {
			res.Estimates[name][a] /= float64(opt.Quanta)
		}
		if opt.GroundTruth {
			res.ActualSlowdown[a] /= float64(opt.Quanta)
		}
	}
	res.EstimatedSlowdown = res.Estimates[ests[0].Name()]
	sd := res.EstimatedSlowdown
	if opt.GroundTruth {
		sd = res.ActualSlowdown
	}
	res.MaxSlowdown = metrics.MaxSlowdown(sd)
	res.HarmonicSpeedup = metrics.HarmonicSpeedup(sd)
	return res, nil
}

// ClusterConfig configures the Section 7.5 migration/admission-control
// use case.
type ClusterConfig = cluster.Config

// ClusterMachine is one machine's jobs and latest slowdown estimates.
type ClusterMachine = cluster.Machine

// ClusterMigration records one balancer decision.
type ClusterMigration = cluster.Migration

// Cluster is the slowdown-aware cluster balancer (Section 7.5):
// EvaluateRound simulates every machine and refreshes its ASM estimates,
// Rebalance swaps jobs between the worst and best machines, CanAdmit is
// SLA admission control, and the Migrations field records what the
// balancer did. SetTelemetry attaches a cluster-wide observer and one
// observer value per machine.
type Cluster = cluster.Cluster

// NewCluster builds a cluster with the given job placement (one job list
// per machine).
func NewCluster(cfg ClusterConfig, placement [][]string) (*Cluster, error) {
	return cluster.New(cfg, placement)
}

// FairBill implements the Section 7.4 cloud-billing use case: given a
// job's wall-clock time on a shared machine and its estimated slowdown,
// it returns the time the user should be billed for — the time the job
// would have taken alone.
func FairBill(wallTime float64, slowdown float64) float64 {
	if slowdown < 1 {
		slowdown = 1
	}
	return wallTime / slowdown
}

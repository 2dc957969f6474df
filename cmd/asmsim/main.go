// Command asmsim runs one multiprogrammed workload on the simulated
// system and prints per-application slowdown estimates (and, with
// -groundtruth, the measured actual slowdowns from alone-run replays).
//
// Usage:
//
//	asmsim -apps mcf,libquantum,bzip2,h264ref -quanta 4 -groundtruth
//	asmsim -apps soplex,mcf,milc,sphinx3 -policy tcm
//	asmsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"asmsim"
	"asmsim/internal/observe"
)

func main() {
	obs := observe.Flags{TraceSample: 64}
	var (
		apps        = flag.String("apps", "mcf,libquantum,bzip2,h264ref", "comma-separated benchmark names, one per core")
		quanta      = flag.Int("quanta", 4, "measured quanta")
		warmup      = flag.Int("warmup", 1, "warmup quanta (excluded from averages)")
		quantum     = flag.Uint64("quantum", 1_000_000, "quantum length Q in cycles")
		epoch       = flag.Uint64("epoch", 10_000, "epoch length E in cycles")
		policy      = flag.String("policy", "frfcfs", "memory scheduler: frfcfs, parbs, tcm")
		cacheMB     = flag.Int("cache", 2, "shared cache size in MB")
		channels    = flag.Int("channels", 1, "memory channels")
		sampled     = flag.Int("ats", 64, "ATS sampled sets (0 = full)")
		groundTruth = flag.Bool("groundtruth", false, "measure actual slowdowns via alone-run replays")
		prefetch    = flag.Bool("prefetch", false, "enable the stride prefetcher")
		seed        = flag.Uint64("seed", 1, "random seed")
		list        = flag.Bool("list", false, "list available benchmarks")
		charact     = flag.Bool("characterize", false, "run every benchmark alone and print its memory characterization")
		timeout     = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	)
	obs.Register(flag.CommandLine, map[string]string{
		"telemetry":    "write quantum-level telemetry (quanta.jsonl + metrics.jsonl) to this directory",
		"trace":        "write a Perfetto-loadable chrome-trace JSON (request spans + attribution matrices) to this file",
		"trace-sample": "record every Nth demand-miss span in the trace (1 = all; attribution is always exact)",
		"cpuprofile":   "write a CPU profile to this file",
		"memprofile":   "write a heap profile to this file on exit",
		"dash":         "serve the live dashboard (and pprof) on this address (e.g. localhost:6060); visit /debug/asm/",
		"slo":          "evaluate SLOs from this JSON spec file (see EXPERIMENTS.md): burn-rate alerts over slowdown bounds and estimator drift, surfaced on the dashboard, /metrics, stderr logs and flight-recorder dumps",
		"slo-flight":   "directory for flight-recorder dumps written when an alert fires (default: the -telemetry dir, else the working directory)",
	})
	flag.Parse()

	if *list {
		fmt.Println("available benchmarks:")
		for _, s := range asmsim.Benchmarks() {
			fmt.Printf("  %-12s %-9s wss=%6dKB stream=%.2f dep=%.2f class=%d\n",
				s.Name, s.Suite, s.WSS/1024, s.StreamFrac, s.DepFrac, s.Class)
		}
		return
	}

	names := strings.Split(*apps, ",")
	cfg := asmsim.DefaultConfig()
	cfg.Quantum = *quantum
	cfg.Epoch = *epoch
	cfg.L2Bytes = *cacheMB << 20
	cfg.Channels = *channels
	cfg.ATSSampledSets = *sampled
	cfg.Prefetch = *prefetch
	cfg.Seed = *seed
	switch *policy {
	case "frfcfs":
		cfg.Policy = asmsim.PolicyFRFCFS
	case "parbs":
		cfg.Policy = asmsim.PolicyPARBS
	case "tcm":
		cfg.Policy = asmsim.PolicyTCM
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	o, err := observe.Start(obs, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		fatal(err)
	}
	// The dashboard, /metrics and pprof share the one -dash listener.
	if err := o.Listen(o.Dash.MountMetrics); err != nil {
		fatal(err)
	}
	if *charact {
		characterize(*quantum, *seed)
		if o.Close() != nil {
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	tel, _ := o.Run("") // a single-run Run opens nothing, so it cannot fail

	res, err := asmsim.RunContext(ctx, cfg, names, asmsim.RunOptions{
		WarmupQuanta: *warmup,
		Quanta:       *quanta,
		GroundTruth:  *groundTruth,
		Estimators:   []asmsim.Estimator{asmsim.NewASM(), asmsim.NewFST(), asmsim.NewPTCA(), asmsim.NewMISE()},
		Telemetry:    tel,
	})
	if err != nil {
		// A cancelled or failed run still flushes what its observers
		// gathered: profiles, metrics and a well-formed trace.
		o.Close()
		fatal(err)
	}
	// Flush the observability outputs before reporting: a recorder or
	// tracer that cannot write its data is a failed run (non-zero exit),
	// not a footnote on stderr.
	obsErr := o.Close()

	fmt.Printf("%-12s %8s %8s %8s %8s %8s", "app", "IPC", "ASM", "FST", "PTCA", "MISE")
	if res.ActualSlowdown != nil {
		fmt.Printf(" %8s", "actual")
	}
	fmt.Println()
	for i, name := range res.Names {
		fmt.Printf("%-12s %8.3f %8.2f %8.2f %8.2f %8.2f",
			name, res.IPC[i], res.Estimates["ASM"][i], res.Estimates["FST"][i],
			res.Estimates["PTCA"][i], res.Estimates["MISE"][i])
		if res.ActualSlowdown != nil {
			fmt.Printf(" %8.2f", res.ActualSlowdown[i])
		}
		fmt.Println()
	}
	fmt.Printf("\nmax slowdown %.2f, harmonic speedup %.3f\n", res.MaxSlowdown, res.HarmonicSpeedup)
	if o.SLO != nil {
		fmt.Println()
		o.ReportAlerts(os.Stdout)
	}
	if obsErr != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// characterize runs every named benchmark alone on the default system and
// prints the alone-run characterization the synthetic specs are meant to
// realize: IPC, shared-cache accesses and misses per kilo-instruction,
// DRAM row-buffer hit rate and bus utilization.
func characterize(quantum uint64, seed uint64) {
	fmt.Printf("%-12s %7s %8s %8s %8s %8s\n", "benchmark", "IPC", "L2 APKI", "L2 MPKI", "row-hit", "bus-util")
	for _, spec := range asmsim.Benchmarks() {
		cfg := asmsim.DefaultConfig()
		cfg.Cores = 1
		cfg.EpochPriority = false
		cfg.Epoch = 0
		cfg.Quantum = quantum
		cfg.Seed = seed
		sys, err := asmsim.NewSystem(cfg, []asmsim.AppSpec{spec})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var retired, accesses, misses uint64
		var rowHitSum float64
		quanta := 0
		sys.AddQuantumListener(func(s *asmsim.System, st *asmsim.QuantumStats) {
			if st.Quantum == 0 {
				return // warmup
			}
			retired += st.Apps[0].Retired
			accesses += st.Apps[0].L2Accesses
			misses += st.Apps[0].L2Misses
			rowHitSum += s.Mem().Channels()[0].RowHitRate(0)
			quanta++
		})
		sys.RunQuanta(3)
		kilo := float64(retired) / 1000
		if kilo == 0 {
			kilo = 1
		}
		if quanta == 0 {
			quanta = 1
		}
		fmt.Printf("%-12s %7.3f %8.2f %8.2f %7.0f%% %7.0f%%\n",
			spec.Name,
			float64(retired)/float64(uint64(quanta)*quantum),
			float64(accesses)/kilo,
			float64(misses)/kilo,
			100*rowHitSum/float64(quanta),
			100*sys.Mem().Channels()[0].BusUtilization())
	}
}

package exp

import (
	"context"
	"fmt"

	"asmsim/internal/core"
	"asmsim/internal/model"
	"asmsim/internal/sim"
	"asmsim/internal/workload"
)

// runAblEpoch compares probabilistic vs round-robin epoch assignment
// (Section 4.2 says both achieve similar accuracy; the probabilistic
// policy is kept because ASM-Mem builds on it).
func runAblEpoch(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	t := &Table{
		ID:     "abl-epoch",
		Title:  "Ablation: epoch assignment policy (Section 4.2)",
		Header: []string{"assignment", "ASM avg error"},
	}
	manifest := &Manifest{}
	for _, rr := range []bool{false, true} {
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = 64
		cfg.EpochRoundRobin = rr
		samples, m, err := accuracySweep(ctx, cfg, mixes, estAll, sc)
		if err != nil {
			return nil, err
		}
		manifest.Merge(m)
		name := "probabilistic"
		if rr {
			name = "round-robin"
		}
		t.AddRow(name, pct(MeanError(samples, "ASM")))
	}
	t.AddNote("paper: the two policies achieve similar effects; probabilistic assignment is what ASM-Mem generalizes")
	attach(t, manifest)
	return t, nil
}

// runAblQueueing measures the value of ASM's Section 4.3 memory queueing
// correction.
func runAblQueueing(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	t := &Table{
		ID:     "abl-queueing",
		Title:  "Ablation: Section 4.3 queueing-delay correction",
		Header: []string{"variant", "ASM avg error"},
	}
	manifest := &Manifest{}
	for _, disable := range []bool{false, true} {
		dis := disable
		newEst := func() []core.Estimator {
			a := core.NewASM()
			a.NoQueueingCorrection = dis
			return core.SanitizeAll([]core.Estimator{a})
		}
		all, m, err := accuracySweep(ctx, cfg, mixes, newEst, sc)
		if err != nil {
			return nil, err
		}
		manifest.Merge(m)
		name := "with correction"
		if dis {
			name = "without correction"
		}
		t.AddRow(name, pct(MeanError(all, "ASM")))
	}
	t.AddNote("the correction matters most at higher core counts (Section 6.5); even at 4 cores it should not hurt")
	attach(t, manifest)
	return t, nil
}

// runAblATS sweeps the auxiliary-tag-store sampling budget (Section 4.4
// claims 64 sampled sets lose almost nothing vs a full ATS).
func runAblATS(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	t := &Table{
		ID:     "abl-ats",
		Title:  "Ablation: ATS sampled-set budget (Section 4.4)",
		Header: []string{"sampled sets", "ASM avg error", "PTCA avg error"},
	}
	manifest := &Manifest{}
	for _, sets := range []int{8, 32, 64, 256, 0} {
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = sets
		samples, m, err := accuracySweep(ctx, cfg, mixes, estAll, sc)
		if err != nil {
			return nil, err
		}
		manifest.Merge(m)
		label := fmt.Sprint(sets)
		if sets == 0 {
			label = "full"
		}
		t.AddRow(label, pct(MeanError(samples, "ASM")), pct(MeanError(samples, "PTCA")))
	}
	t.AddNote("paper: sampling barely moves ASM (9.0%% -> 9.9%%) but destroys PTCA (14.7%% -> 40.4%%)")
	attach(t, manifest)
	return t, nil
}

// runAblCARn validates the Section 7.1 CAR_n model directly: predict an
// app's cache access rate under a forced way allocation from an
// unpartitioned run, then actually enforce that allocation and measure.
func runAblCARn(ctx context.Context, sc Scale) (*Table, error) {
	mix := workload.Mix{Names: []string{"bzip2", "mcf", "soplex", "h264ref"}}
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	run := MixRun{Config: cfg, Mix: mix, Warmup: sc.WarmupQuanta, Measured: sc.MeasuredQuanta}

	// Pass 1: unpartitioned, record CAR_n predictions for app 0 from the
	// final measured quantum (ASM runs throughout to keep its fallback
	// state warm).
	preds := make(map[int]float64)
	pass1 := run
	pass1.Estimators = []core.Estimator{core.NewASM()}
	pass1.OnQuantum = func(st *sim.QuantumStats, _ []float64, _ map[string][]float64) {
		if st.Quantum == sc.TotalQuanta()-1 {
			for _, n := range []int{2, 4, 8, 12, 16} {
				preds[n] = core.CARAtWays(st, 0, n)
			}
		}
	}
	if _, err := pass1.Run(ctx); err != nil {
		return nil, fmt.Errorf("exp: abl-carn pass 1: %w", err)
	}

	t := &Table{
		ID:     "abl-carn",
		Title:  "Ablation: CAR_n prediction vs enforced allocation (Section 7.1)",
		Header: []string{"ways for bzip2", "predicted CAR", "measured CAR", "rel err"},
	}
	// Pass 2: enforce each allocation and measure the real CAR.
	for _, n := range []int{2, 4, 8, 12, 16} {
		alloc := spreadAllocation(n, len(mix.Names), cfg.L2Ways)
		var accesses uint64
		pass2 := run
		pass2.Attach = func(sys *sim.System) { sys.SetL2Partition(alloc) }
		pass2.OnQuantum = func(st *sim.QuantumStats, _ []float64, _ map[string][]float64) {
			accesses += st.Apps[0].L2Accesses
		}
		if _, err := pass2.Run(ctx); err != nil {
			return nil, fmt.Errorf("exp: abl-carn pass 2 (%d ways): %w", n, err)
		}
		measured := float64(accesses) / float64(uint64(sc.MeasuredQuanta)*cfg.Quantum)
		rel := 0.0
		if measured > 0 {
			rel = (preds[n] - measured) / measured * 100
			if rel < 0 {
				rel = -rel
			}
		}
		t.AddRow(fmt.Sprint(n), f3(preds[n]*1000), f3(measured*1000), pct(rel))
	}
	t.AddNote("CAR in accesses per kilocycle; predictions come from the unpartitioned run's ATS way profile")
	t.AddNote("the paper argues this extension is straightforward for ASM and non-trivial for FST/PTCA (Section 7.1.1)")
	return t, nil
}

// spreadAllocation gives app 0 n ways and splits the rest evenly.
func spreadAllocation(n, apps, ways int) []int {
	alloc := make([]int, apps)
	alloc[0] = n
	rest := ways - n
	for i := 1; i < apps; i++ {
		alloc[i] = rest / (apps - 1)
	}
	for i := 1; i <= rest%(apps-1); i++ {
		alloc[i]++
	}
	return alloc
}

// runAblSTFM compares the full estimator lineup including the STFM-style
// memory-only per-request model, isolating what each modeling ingredient
// buys (per-request vs aggregate x memory-only vs memory+cache).
func runAblSTFM(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 0
	all, m, err := accuracySweep(ctx, cfg, mixes, func() []core.Estimator {
		return core.SanitizeAll([]core.Estimator{
			core.NewASM(), model.NewFST(), model.NewPTCA(),
			model.NewMISE(), model.NewSTFM(), model.NewRegression(),
		})
	}, sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-models",
		Title:  "Ablation: modeling ingredients (per-request vs aggregate, memory vs memory+cache)",
		Header: []string{"model", "accounting", "scope", "avg error"},
	}
	t.AddRow("STFM", "per-request", "memory", pct(MeanError(all, "STFM")))
	t.AddRow("REGR", "regression", "cache only", pct(MeanError(all, "REGR")))
	t.AddRow("FST", "per-request", "memory+cache", pct(MeanError(all, "FST")))
	t.AddRow("PTCA", "per-request", "memory+cache", pct(MeanError(all, "PTCA")))
	t.AddRow("MISE", "aggregate", "memory", pct(MeanError(all, "MISE")))
	t.AddRow("ASM", "aggregate", "memory+cache", pct(MeanError(all, "ASM")))
	attach(t, m)
	return t, nil
}

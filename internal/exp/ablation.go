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
	cfgs := withATS(sc.BaseConfig(), 64, 64)
	cfgs[1].EpochRoundRobin = true
	got, err := accuracySweeps(ctx, mixes, estAll, sc, cfgs...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-epoch",
		Title:  "Ablation: epoch assignment policy (Section 4.2)",
		Header: []string{"assignment", "ASM avg error"},
	}
	t.AddRow("probabilistic", pct(MeanError(got[0], "ASM")))
	t.AddRow("round-robin", pct(MeanError(got[1], "ASM")))
	t.AddNote("paper: the two policies achieve similar effects; probabilistic assignment is what ASM-Mem generalizes")
	return t, nil
}

// renamed gives an estimator another name, so two variants of one model
// can score the same run.
type renamed struct {
	core.Estimator
	name string
}

func (r renamed) Name() string { return r.name }

// runAblQueueing measures the value of ASM's Section 4.3 memory queueing
// correction: ASM with and without it score the same runs.
func runAblQueueing(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	newEst := func() []core.Estimator {
		off := core.NewASM()
		off.NoQueueingCorrection = true
		return core.SanitizeAll([]core.Estimator{core.NewASM(), renamed{off, "ASM-noQ"}})
	}
	got, err := accuracySweeps(ctx, mixes, newEst, sc, withATS(sc.BaseConfig(), 64)...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-queueing",
		Title:  "Ablation: Section 4.3 queueing-delay correction",
		Header: []string{"variant", "ASM avg error"},
	}
	t.AddRow("with correction", pct(MeanError(got[0], "ASM")))
	t.AddRow("without correction", pct(MeanError(got[0], "ASM-noQ")))
	t.AddNote("the correction matters most at higher core counts (Section 6.5); even at 4 cores it should not hurt")
	return t, nil
}

// runAblATS sweeps the auxiliary-tag-store sampling budget (Section 4.4
// claims 64 sampled sets lose almost nothing vs a full ATS).
func runAblATS(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	budgets := []int{8, 32, 64, 256, 0}
	got, err := accuracySweeps(ctx, mixes, estAll, sc, withATS(sc.BaseConfig(), budgets...)...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-ats",
		Title:  "Ablation: ATS sampled-set budget (Section 4.4)",
		Header: []string{"sampled sets", "ASM avg error", "PTCA avg error"},
	}
	for i, sets := range budgets {
		label := fmt.Sprint(sets)
		if sets == 0 {
			label = "full"
		}
		t.AddRow(label, pct(MeanError(got[i], "ASM")), pct(MeanError(got[i], "PTCA")))
	}
	t.AddNote("paper: sampling barely moves ASM (9.0%% -> 9.9%%) but destroys PTCA (14.7%% -> 40.4%%)")
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
	got, err := accuracySweeps(ctx, mixes, func() []core.Estimator {
		return core.SanitizeAll([]core.Estimator{
			core.NewASM(), model.NewFST(), model.NewPTCA(),
			model.NewMISE(), model.NewSTFM(), model.NewRegression(),
		})
	}, sc, withATS(sc.BaseConfig(), 0)...)
	if err != nil {
		return nil, err
	}
	all := got[0]
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
	return t, nil
}

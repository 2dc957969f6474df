package exp

import (
	"context"
	"fmt"
	"sort"

	"asmsim/internal/core"
	"asmsim/internal/model"
	"asmsim/internal/sim"
	"asmsim/internal/stats"
	"asmsim/internal/workload"
)

// estAll builds the estimator set used by the accuracy experiments. Every
// estimator runs behind the core.Sanitize guard, so NaN/Inf from a
// corrupted counter snapshot degrades to the previous quantum's estimate
// instead of poisoning the sweep (a pass-through on clean counters).
func estAll() []core.Estimator {
	return core.SanitizeAll([]core.Estimator{
		core.NewASM(), model.NewFST(), model.NewPTCA(), model.NewMISE(),
	})
}

// suitePool returns the SPEC+NAS benchmarks the paper draws workloads from.
func suitePool() []workload.Spec {
	pool := workload.SPEC()
	return append(pool, workload.NAS()...)
}

// accuracySweep runs the estimator set over all mixes under cfg and
// returns every mix's samples, pooled in mix order, or the sweep's error.
func accuracySweep(ctx context.Context, cfg sim.Config, mixes []workload.Mix, newEst EstimatorSet, sc Scale) ([]Sample, error) {
	results, err := sweepMixes(ctx, cfg, mixes, sc, func(c sim.Config, mix workload.Mix) ([]Sample, error) {
		return RunAccuracy(ctx, c, mix, newEst, sc)
	})
	var all []Sample
	for _, s := range results {
		all = append(all, s...)
	}
	return all, err
}

// accuracySweeps runs accuracySweep once per config, in order, and
// returns each sweep's samples. It stops at the first sweep that fails.
func accuracySweeps(ctx context.Context, mixes []workload.Mix, newEst EstimatorSet, sc Scale, cfgs ...sim.Config) ([][]Sample, error) {
	got := make([][]Sample, len(cfgs))
	for i, cfg := range cfgs {
		samples, err := accuracySweep(ctx, cfg, mixes, newEst, sc)
		if err != nil {
			return nil, err
		}
		got[i] = samples
	}
	return got, nil
}

// withATS returns one copy of cfg per ATS sampling budget (0: unsampled).
func withATS(cfg sim.Config, sets ...int) []sim.Config {
	cfgs := make([]sim.Config, len(sets))
	for i, n := range sets {
		cfgs[i] = cfg
		cfgs[i].ATSSampledSets = n
	}
	return cfgs
}

// perBenchTable renders a Figure 2/3-style table: per-benchmark error for
// each estimator, sorted suite-then-intensity like the paper's x-axis,
// with suite and overall averages.
func perBenchTable(id, title string, samples []Sample, estimators []string) *Table {
	t := &Table{ID: id, Title: title, Header: append([]string{"benchmark"}, estimators...)}
	order := map[string]int{}
	for i, s := range append(workload.SPEC(), workload.NAS()...) {
		order[s.Name] = i
	}
	byBench := map[string]bool{}
	for _, s := range samples {
		byBench[s.Bench] = true
	}
	names := make([]string, 0, len(byBench))
	for n := range byBench {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })

	perEst := map[string]map[string][]float64{}
	for _, e := range estimators {
		perEst[e] = ErrorsByBench(samples, e)
	}
	for _, n := range names {
		row := []string{n}
		for _, e := range estimators {
			row = append(row, pct(stats.Mean(perEst[e][n])))
		}
		t.AddRow(row...)
	}
	avg := []string{"AVERAGE"}
	for _, e := range estimators {
		avg = append(avg, pct(MeanError(samples, e)))
	}
	t.AddRow(avg...)
	return t
}

// perBenchFigure builds a Figure 2/3-style experiment: the per-benchmark
// table of FST, PTCA and ASM error over random 4-core mixes, with the ATS
// sampling the given number of sets (0: unsampled) and the paper's
// averages as the note.
func perBenchFigure(id, title, note string, sets int) func(context.Context, Scale) (*Table, error) {
	return func(ctx context.Context, sc Scale) (*Table, error) {
		mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
		got, err := accuracySweeps(ctx, mixes, estAll, sc, withATS(sc.BaseConfig(), sets)...)
		if err != nil {
			return nil, err
		}
		t := perBenchTable(id, title, got[0], []string{"FST", "PTCA", "ASM"})
		t.Notes = append(t.Notes, note)
		return t, nil
	}
}

// runFig4 reproduces Figure 4: the distribution of estimation error, with
// FST/PTCA unsampled and ASM sampled, as in the paper.
func runFig4(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	got, err := accuracySweeps(ctx, mixes, estAll, sc, withATS(sc.BaseConfig(), 0, 64)...)
	if err != nil {
		return nil, err
	}
	hist := func(samples []Sample, est string) (*stats.Histogram, float64) {
		h := stats.NewHistogram(0, 10, 10) // 0-100% in 10% buckets
		errs := Errors(samples, est)
		for _, e := range errs {
			h.Add(e)
		}
		return h, stats.Max(errs)
	}
	hFST, mFST := hist(got[0], "FST")
	hPTCA, mPTCA := hist(got[0], "PTCA")
	hASM, mASM := hist(got[1], "ASM")

	t := &Table{
		ID:     "fig4",
		Title:  "Distribution of slowdown estimation error (Figure 4)",
		Header: []string{"error range", "FST", "PTCA", "ASM"},
	}
	for i := 0; i < 10; i++ {
		t.AddRow(hFST.BucketLabel(i)+"%",
			pct(100*hFST.Fractions()[i]), pct(100*hPTCA.Fractions()[i]), pct(100*hASM.Fractions()[i]))
	}
	within20 := func(h *stats.Histogram) float64 {
		fr := h.Fractions()
		return 100 * (fr[0] + fr[1])
	}
	t.AddRow("<=20%", pct(within20(hFST)), pct(within20(hPTCA)), pct(within20(hASM)))
	t.AddRow("max error", pct(mFST), pct(mPTCA), pct(mASM))
	t.AddNote("paper: 76.25%%/79.25%%/95.25%% of FST/PTCA/ASM estimates within 20%%; max errors 133%%/87%%/36%%")
	return t, nil
}

// runFig5 reproduces Figure 5: accuracy with a stride prefetcher (degree
// 4, distance 24), unsampled structures.
func runFig5(ctx context.Context, sc Scale) (*Table, error) {
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 0
	cfg.Prefetch = true
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	got, err := accuracySweeps(ctx, mixes, estAll, sc, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Estimation error with prefetching (Figure 5)",
		Header: []string{"model", "avg error", "std dev"},
	}
	for _, e := range []string{"FST", "PTCA", "ASM"} {
		errs := Errors(got[0], e)
		t.AddRow(e, pct(stats.Mean(errs)), pct(stats.Std(errs)))
	}
	t.AddNote("paper: FST 20%%, PTCA 15%%, ASM 7.5%%")
	return t, nil
}

// runDBAcc reproduces the Section 6 text experiment on database
// workloads (TPC-C, YCSB): FST/PTCA unsampled, ASM sampled.
func runDBAcc(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(workload.DB(), 4, sc.Workloads, sc.Seed)
	got, err := accuracySweeps(ctx, mixes, estAll, sc, withATS(sc.BaseConfig(), 0, 64)...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "dbacc",
		Title:  "Accuracy on database workloads (Section 6 text)",
		Header: []string{"model", "avg error"},
	}
	t.AddRow("FST (unsampled)", pct(MeanError(got[0], "FST")))
	t.AddRow("PTCA (unsampled)", pct(MeanError(got[0], "PTCA")))
	t.AddRow("ASM (sampled)", pct(MeanError(got[1], "ASM")))
	t.AddNote("paper: FST 27%%, PTCA 12%%, ASM 4%%")
	return t, nil
}

// runFig7 reproduces Figure 7: error vs core count (4/8/16), FST/PTCA
// unsampled and ASM sampled as in the paper's sensitivity studies.
func runFig7(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Estimation error vs core count (Figure 7)",
		Header: []string{"cores", "FST", "FST std", "PTCA", "PTCA std", "ASM", "ASM std"},
	}
	for _, cores := range []int{4, 8, 16} {
		n := scaledWorkloads(sc, cores)
		mixes := workload.RandomMixes(suitePool(), cores, n, sc.Seed+uint64(cores))
		sc := scaleQuantumForCores(sc, cores)
		got, err := accuracySweeps(ctx, mixes, estAll, sc, withATS(sc.BaseConfig(), 0, 64)...)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(cores)}
		for _, errs := range [][]float64{Errors(got[0], "FST"), Errors(got[0], "PTCA"), Errors(got[1], "ASM")} {
			row = append(row, pct(stats.Mean(errs)), pct(stats.Std(errs)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: error grows with core count for all models; ASM stays lowest with the smallest spread")
	return t, nil
}

// runFig8 reproduces Figure 8: error vs shared cache capacity (1/2/4 MB).
func runFig8(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Estimation error vs cache size (Figure 8)",
		Header: []string{"cache", "FST", "PTCA", "ASM"},
	}
	sizes := []int{1, 2, 4}
	var cfgs []sim.Config
	for _, mbytes := range sizes {
		cfg := sc.BaseConfig()
		cfg.L2Bytes = mbytes << 20
		cfgs = append(cfgs, withATS(cfg, 0, 64)...)
	}
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	got, err := accuracySweeps(ctx, mixes, estAll, sc, cfgs...)
	if err != nil {
		return nil, err
	}
	for i, mbytes := range sizes {
		su, ss := got[2*i], got[2*i+1]
		t.AddRow(fmt.Sprintf("%dMB", mbytes),
			pct(MeanError(su, "FST")), pct(MeanError(su, "PTCA")), pct(MeanError(ss, "ASM")))
	}
	t.AddNote("paper: ASM significantly more accurate across all cache capacities")
	return t, nil
}

// runTab3 reproduces Table 3: ASM error sensitivity to quantum and epoch
// lengths. Quick scale shrinks the quantum values proportionally (the
// trend is governed by the epoch count Q/E); full scale uses the paper's.
func runTab3(ctx context.Context, sc Scale) (*Table, error) {
	quanta := []uint64{1_000_000, 5_000_000, 10_000_000}
	if sc.Quantum < 5_000_000 {
		quanta = []uint64{500_000, 1_000_000, 2_000_000}
	}
	epochs := []uint64{1_000, 10_000, 50_000, 100_000}

	t := &Table{
		ID:     "tab3",
		Title:  "ASM error vs quantum and epoch lengths (Table 3)",
		Header: []string{"quantum\\epoch", "1000", "10000", "50000", "100000"},
	}
	nmix := sc.Workloads
	if nmix > 4 {
		nmix = 4 // 12-cell grid: bound the quick-mode cost
	}
	mixes := workload.RandomMixes(suitePool(), 4, nmix, sc.Seed)
	for _, q := range quanta {
		// Keep total simulated cycles per workload roughly constant
		// across rows despite the varying quantum length.
		rowSc := sc
		rowSc.Quantum = q
		total := int(uint64(sc.TotalQuanta()) * sc.Quantum / q)
		if total < 2 {
			total = 2
		}
		rowSc.WarmupQuanta = 1
		rowSc.MeasuredQuanta = total - 1
		var cfgs []sim.Config
		for _, e := range epochs {
			cfg := sc.BaseConfig()
			cfg.ATSSampledSets = 64
			cfg.Quantum = q
			cfg.Epoch = e
			cfgs = append(cfgs, cfg)
		}
		got, err := accuracySweeps(ctx, mixes, estAll, rowSc, cfgs...)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(q)}
		for _, samples := range got {
			row = append(row, pct(MeanError(samples, "ASM")))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper Table 3: error rises as quantum shrinks or epoch grows (fewer epochs); very short epochs (1000) are worst")
	return t, nil
}

// runMISE reproduces the Section 6.4 comparison: epoch-based aggregation
// alone (MISE, memory-only) vs ASM (memory + cache).
func runMISE(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	got, err := accuracySweeps(ctx, mixes, estAll, sc, withATS(sc.BaseConfig(), 64)...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "mise",
		Title:  "Benefit of modeling shared-cache interference (Section 6.4)",
		Header: []string{"model", "avg error"},
	}
	t.AddRow("MISE (memory only)", pct(MeanError(got[0], "MISE")))
	t.AddRow("ASM (memory + cache)", pct(MeanError(got[0], "ASM")))
	t.AddNote("paper: MISE 22%%, ASM 9.9%%")
	return t, nil
}

// scaledWorkloads shrinks the workload count for expensive core counts in
// quick mode while keeping at least two workloads.
func scaledWorkloads(sc Scale, cores int) int {
	n := sc.Workloads * 4 / cores
	if n < 2 {
		n = 2
	}
	if n > sc.Workloads {
		n = sc.Workloads
	}
	return n
}

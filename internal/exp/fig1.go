package exp

import (
	"context"
	"fmt"

	"asmsim/internal/sim"
	"asmsim/internal/stats"
	"asmsim/internal/workload"
)

// runFig1 reproduces the paper's motivating Figure 1: each application of
// interest runs alongside a cache-capacity/memory-bandwidth hog of varying
// aggressiveness, and its performance (IPC) is plotted against its shared
// cache access rate, both normalized to the alone run. The paper's claim
// is proportionality; we report the (CAR, performance) points and the
// Pearson correlation per application.
//
// The paper ran this on an Intel Core-i5 with a 6 MB cache; we run the
// identical protocol on the simulated Table 2 system (see DESIGN.md's
// substitution table).
func runFig1(ctx context.Context, sc Scale) (*Table, error) {
	apps := []string{"bzip2", "sphinx3", "soplex"}
	t := &Table{
		ID:     "fig1",
		Title:  "Cache access rate vs performance (Figure 1)",
		Header: []string{"app", "hog", "norm CAR", "norm perf"},
	}
	warm := sc.WarmupQuanta
	measure := sc.MeasuredQuanta

	for _, name := range apps {
		cars := []float64{1}
		perfs := []float64{1}

		// Alone baseline.
		aloneCAR, aloneIPC, err := measureCARPerf(ctx, sc, []string{name}, warm, measure)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "alone", f3(1), f3(1))

		for level := 0; level < workload.HogLevels; level++ {
			car, ipc, err := measureCARPerf(ctx, sc, []string{name, workload.Hog(level).Name}, warm, measure)
			if err != nil {
				return nil, err
			}
			nc, np := car/aloneCAR, ipc/aloneIPC
			cars = append(cars, nc)
			perfs = append(perfs, np)
			t.AddRow(name, fmt.Sprint(level), f3(nc), f3(np))
		}
		t.AddRow(name, "pearson", f3(stats.Pearson(cars, perfs)), "")
	}
	t.AddNote("paper: performance is proportional to cache access rate (points on the y=x trend); correlations near 1 confirm the Section 3.1 observation")
	return t, nil
}

// measureCARPerf runs the named apps (app of interest first) and returns
// app 0's shared-cache access rate and IPC over the measured window.
func measureCARPerf(ctx context.Context, sc Scale, names []string, warm, measure int) (car, ipc float64, err error) {
	cfg := sc.BaseConfig()
	cfg.EpochPriority = false
	cfg.Epoch = 0
	var accesses, retired uint64
	_, err = MixRun{Config: cfg, Mix: workload.Mix{Names: names}, Warmup: warm, Measured: measure,
		OnQuantum: func(st *sim.QuantumStats, _ []float64, _ map[string][]float64) {
			accesses += st.Apps[0].L2Accesses
			retired += st.Apps[0].Retired
		},
	}.Run(ctx)
	if err != nil {
		return 0, 0, err
	}
	cycles := float64(uint64(measure) * cfg.Quantum)
	return float64(accesses) / cycles, float64(retired) / cycles, nil
}

package exp

import (
	"context"
	"fmt"

	"asmsim/internal/sim"
	"asmsim/internal/stats"
	"asmsim/internal/workload"
)

// latHist builds the miss-service-time histograms for Figure 6:
// buckets of 50 cycles from 50 to 800 (the interesting DDR3 range:
// a row hit is ~physically 112 CPU cycles, conflicts and queueing push
// latencies up).
func latHist() *stats.Histogram { return stats.NewHistogram(50, 50, 15) }

// runFig6 reproduces Figure 6: the distribution of *alone* miss service
// times — actually measured in alone runs vs estimated by FST, PTCA
// (per-request: shared latency minus attributed interference cycles) and
// ASM (aggregate epoch-based avg-miss-time) — without (6a) and with (6b)
// auxiliary-tag-store sampling. Under sampling the per-request models can
// only see requests that map to sampled sets, which is what degrades their
// distributions in the paper; ASM's aggregate estimate is unaffected.
func runFig6(ctx context.Context, sc Scale) (*Table, error) {
	nmix := sc.Workloads
	if nmix > 6 {
		nmix = 6
	}
	mixes := workload.MemoryIntensiveMixes(suitePool(), 4, nmix, sc.Seed)

	actual := latHist()
	fstU, ptcaU, asmU := latHist(), latHist(), latHist()
	fstS, ptcaS, asmS := latHist(), latHist(), latHist()

	// Actual alone distributions, one alone run per distinct benchmark.
	seen := map[string]bool{}
	for _, m := range mixes {
		for _, spec := range m.Specs() {
			if seen[spec.Name] {
				continue
			}
			seen[spec.Name] = true
			if err := collectAloneLatencies(ctx, sc, spec.Name, actual); err != nil {
				return nil, err
			}
		}
	}

	for i, m := range mixes {
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = 0
		cfg.Seed = sc.Seed + uint64(i)*1000
		cfg.StreamSeed = sc.Seed
		if err := collectEstimates(ctx, sc, cfg, m, fstU, ptcaU, asmU, false); err != nil {
			return nil, err
		}
		cfg.ATSSampledSets = 64
		if err := collectEstimates(ctx, sc, cfg, m, fstS, ptcaS, asmS, true); err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID:    "fig6",
		Title: "Alone miss service time distributions (Figure 6a/6b)",
		Header: []string{"latency (cyc)", "actual",
			"FST", "PTCA", "ASM", "FST-smp", "PTCA-smp", "ASM-smp"},
	}
	hs := []*stats.Histogram{actual, fstU, ptcaU, asmU, fstS, ptcaS, asmS}
	for b := 0; b < len(actual.Counts); b++ {
		row := []string{actual.BucketLabel(b)}
		for _, h := range hs {
			row = append(row, pct(100*h.Fractions()[b]))
		}
		t.AddRow(row...)
	}
	tv := func(h *stats.Histogram) string {
		return f3(stats.TotalVariation(actual.Fractions(), h.Fractions()))
	}
	t.AddRow("TV dist vs actual", "0", tv(fstU), tv(ptcaU), tv(asmU), tv(fstS), tv(ptcaS), tv(asmS))
	t.AddNote("paper Figure 6: FST/PTCA estimated distributions deviate from actual even unsampled; sampling makes them (PTCA especially) far worse while ASM's stays put")
	return t, nil
}

// collectAloneLatencies runs the named app alone and records its
// post-warmup miss service times.
func collectAloneLatencies(ctx context.Context, sc Scale, name string, h *stats.Histogram) error {
	cfg := sc.BaseConfig()
	cfg.EpochPriority = false
	cfg.Epoch = 0
	warmCycles := uint64(sc.WarmupQuanta) * cfg.Quantum
	_, err := MixRun{Config: cfg, Mix: workload.Mix{Names: []string{name}}, Measured: sc.TotalQuanta(),
		Attach: func(sys *sim.System) {
			sys.SetMissListener(func(ev sim.MissEvent) {
				if sys.Cycle() >= warmCycles {
					h.Add(float64(ev.Latency))
				}
			})
		},
	}.Run(ctx)
	return err
}

// collectEstimates runs a shared mix and records each model's estimated
// alone miss service times. When sampledOnly is set, the per-request
// models only observe requests that map to sampled ATS sets (the hardware
// only has per-request latch state there).
func collectEstimates(ctx context.Context, sc Scale, cfg sim.Config, mix workload.Mix, fst, ptca, asm *stats.Histogram, sampledOnly bool) error {
	warmCycles := uint64(sc.WarmupQuanta) * cfg.Quantum
	var sys *sim.System
	listen := func(ev sim.MissEvent) {
		if sys.Cycle() < warmCycles {
			return
		}
		if sampledOnly && !ev.Sampled {
			return
		}
		alone := float64(ev.Latency) - float64(ev.InterfCycles)
		if alone < 0 {
			alone = 0
		}
		// A contention miss would have been a *hit* alone, so a correct
		// model excludes it from the alone-miss distribution. The two
		// per-request models disagree through their classifiers (FST's
		// approximate pollution filter vs PTCA's auxiliary tag store),
		// and both inherit the per-request interference attribution
		// error in the latency estimate itself.
		if !ev.PFContention {
			fst.Add(alone)
		}
		if !ev.ATSContention {
			ptca.Add(alone)
		}
		// ASM's miss-service estimate comes from the requests served
		// while the app holds highest priority at the memory controller —
		// those latencies approximate the alone service times directly
		// (Section 3.3), without per-request interference attribution.
		if sys.EpochOwner() == ev.App && !ev.ATSContention {
			asm.Add(float64(ev.Latency))
		}
	}
	attach := func(s *sim.System) { sys = s; s.SetMissListener(listen) }
	if _, err := (MixRun{Config: cfg, Mix: mix, Measured: sc.TotalQuanta(), Attach: attach}).Run(ctx); err != nil {
		return err
	}
	if fst.N() == 0 {
		return fmt.Errorf("exp: fig6 mix %s produced no misses", mix)
	}
	return nil
}

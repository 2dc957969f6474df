package exp

import (
	"context"
	"fmt"

	"asmsim/internal/sim"
)

// Experiment is one regenerable paper artifact (table/figure) or ablation.
type Experiment struct {
	// ID is the short handle (fig2, tab3, abl-ats, ...).
	ID string
	// Title describes what it reproduces.
	Title string
	// Paper names the paper artifact, empty for ablations.
	Paper string
	// Run executes the experiment at the given scale and returns the
	// whole table or an error: a failed sweep item, or ctx cancelled
	// (which stops the runs in flight mid-quantum), fails the experiment.
	Run func(ctx context.Context, sc Scale) (*Table, error)
}

// All returns every registered experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Cache access rate as a proxy for performance", Paper: "Figure 1", Run: runFig1},
		{ID: "fig2", Title: "Estimation error, unsampled structures", Paper: "Figure 2", Run: perBenchFigure("fig2",
			"Slowdown estimation error, unsampled ATS (Figure 2)",
			"paper averages: FST 18.5%, PTCA 14.7%, ASM 9.0%", 0)},
		{ID: "fig3", Title: "Estimation error, sampled structures", Paper: "Figure 3", Run: perBenchFigure("fig3",
			"Slowdown estimation error, sampled ATS 64 sets (Figure 3)",
			"paper averages: FST 29.4%, PTCA 40.4%, ASM 9.9%", 64)},
		{ID: "fig4", Title: "Error distribution", Paper: "Figure 4", Run: runFig4},
		{ID: "fig5", Title: "Error with prefetching", Paper: "Figure 5", Run: runFig5},
		{ID: "fig6", Title: "Alone miss service time distributions", Paper: "Figure 6", Run: runFig6},
		{ID: "dbacc", Title: "Accuracy on database workloads", Paper: "Section 6 text", Run: runDBAcc},
		{ID: "fig7", Title: "Error vs core count", Paper: "Figure 7", Run: runFig7},
		{ID: "fig8", Title: "Error vs cache size", Paper: "Figure 8", Run: runFig8},
		{ID: "tab3", Title: "Error vs quantum and epoch lengths", Paper: "Table 3", Run: runTab3},
		{ID: "mise", Title: "Memory-only vs memory+cache aggregation", Paper: "Section 6.4", Run: runMISE},
		{ID: "fig9", Title: "ASM-Cache vs UCP/MCFQ", Paper: "Figure 9", Run: policyByCores("fig9",
			"Slowdown-aware cache partitioning (Figure 9)",
			"paper: ASM-Cache reduces unfairness vs UCP (by 12.5% at 8 cores, 15.8% at 16) with comparable/better performance; MCFQ degrades on memory-intensive workloads",
			schemeNoPart(), schemeUCP(), schemeMCFQ(), schemeASMCache())},
		{ID: "fig10", Title: "ASM-Mem vs FRFCFS/PARBS/TCM", Paper: "Figure 10", Run: policyByCores("fig10",
			"Slowdown-aware memory bandwidth partitioning (Figure 10)",
			"paper: ASM-Mem is fairer than all three (5.5%/12% over PARBS at 8/16 cores) at comparable/better performance",
			schemeSched("FRFCFS", sim.PolicyFRFCFS), schemeSched("PARBS", sim.PolicyPARBS),
			schemeSched("TCM", sim.PolicyTCM), schemeASMMem())},
		{ID: "cachemem", Title: "Coordinated ASM-Cache-Mem vs PARBS+UCP", Paper: "Section 7.2.2", Run: runCacheMem},
		{ID: "fig11", Title: "Soft slowdown guarantees (ASM-QoS)", Paper: "Figure 11", Run: runFig11},
		{ID: "abl-epoch", Title: "Epoch assignment: probabilistic vs round-robin", Run: runAblEpoch},
		{ID: "abl-queueing", Title: "Queueing-delay correction on/off", Run: runAblQueueing},
		{ID: "abl-ats", Title: "ATS sampling budget sweep", Run: runAblATS},
		{ID: "abl-carn", Title: "CAR_n prediction vs enforced allocation", Run: runAblCARn},
		{ID: "abl-models", Title: "Modeling-ingredient comparison incl. STFM", Run: runAblSTFM},
	}
}

// ByID looks an experiment up by id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (use one of %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

package exp

import (
	"context"
	"fmt"

	"asmsim/internal/partition"
	"asmsim/internal/sim"
	"asmsim/internal/stats"
	"asmsim/internal/workload"
)

// policyResult is one scheme's average unfairness (max slowdown) and
// harmonic speedup over a policySweep's mixes.
type policyResult struct {
	MaxSlowdown     float64
	MaxSlowdownStd  float64
	HarmonicSpeedup float64
}

// policySweep runs every scheme over every mix and returns each scheme's
// policyResult, or the sweep's error.
func policySweep(ctx context.Context, cfg sim.Config, mixes []workload.Mix, schemes []Scheme, sc Scale) (map[string]policyResult, error) {
	type cell struct{ ms, hs float64 }
	cells, err := sweepMixes(ctx, cfg, mixes, sc, func(c sim.Config, mix workload.Mix) (map[string]cell, error) {
		got := map[string]cell{}
		for _, scheme := range schemes {
			out, err := RunPolicy(ctx, c, mix, scheme, sc)
			if err != nil {
				return nil, fmt.Errorf("scheme %s: %w", scheme.Name, err)
			}
			got[scheme.Name] = cell{ms: out.MaxSlowdown, hs: out.HarmonicSpeedup}
		}
		return got, nil
	})
	if err != nil {
		return nil, err
	}
	res := map[string]policyResult{}
	for _, scheme := range schemes {
		var ms, hs []float64
		for _, got := range cells {
			c := got[scheme.Name]
			ms = append(ms, c.ms)
			hs = append(hs, c.hs)
		}
		res[scheme.Name] = policyResult{
			MaxSlowdown:     stats.Mean(ms),
			MaxSlowdownStd:  stats.Std(ms),
			HarmonicSpeedup: stats.Mean(hs),
		}
	}
	return res, nil
}

// Cache partitioning schemes of Section 7.1.2.

func schemeNoPart() Scheme {
	return Scheme{
		Name: "NoPart",
		Configure: func(c *sim.Config) {
			c.EpochPriority = false
			c.Epoch = 0
		},
	}
}

func schemeUCP() Scheme {
	return Scheme{
		Name: "UCP",
		Configure: func(c *sim.Config) {
			c.EpochPriority = false
			c.Epoch = 0
			c.ATSSampledSets = 64
		},
		Attach: func(s *sim.System) {
			s.AddQuantumListener(partition.Listener(partition.NewUCP()))
		},
	}
}

func schemeMCFQ() Scheme {
	return Scheme{
		Name: "MCFQ",
		Configure: func(c *sim.Config) {
			c.EpochPriority = false
			c.Epoch = 0
			c.ATSSampledSets = 64
		},
		Attach: func(s *sim.System) {
			s.AddQuantumListener(partition.Listener(partition.NewMCFQ()))
		},
	}
}

func schemeASMCache() Scheme {
	return Scheme{
		Name: "ASM-Cache",
		Configure: func(c *sim.Config) {
			c.ATSSampledSets = 64 // ASM runs sampled, as in the paper
		},
		Attach: func(s *sim.System) {
			s.AddQuantumListener(partition.Listener(partition.NewASMCache(nil)))
		},
	}
}

// Memory scheduling schemes of Section 7.2.2.

func schemeSched(name string, p sim.Policy) Scheme {
	return Scheme{
		Name: name,
		Configure: func(c *sim.Config) {
			c.EpochPriority = false
			c.Epoch = 0
			c.Policy = p
		},
	}
}

func schemeASMMem() Scheme {
	return Scheme{
		Name: "ASM-Mem",
		Configure: func(c *sim.Config) {
			c.ATSSampledSets = 64
		},
		Attach: func(s *sim.System) {
			s.AddQuantumListener(partition.NewASMMem(nil).Listener())
		},
	}
}

func schemeASMCacheMem() Scheme {
	return Scheme{
		Name: "ASM-Cache-Mem",
		Configure: func(c *sim.Config) {
			c.ATSSampledSets = 64
		},
		Attach: func(s *sim.System) {
			s.AddQuantumListener(partition.NewASMCacheMem().Listener())
		},
	}
}

func schemePARBSUCP() Scheme {
	return Scheme{
		Name: "PARBS+UCP",
		Configure: func(c *sim.Config) {
			c.EpochPriority = false
			c.Epoch = 0
			c.Policy = sim.PolicyPARBS
			c.ATSSampledSets = 64
		},
		Attach: func(s *sim.System) {
			s.AddQuantumListener(partition.Listener(partition.NewUCP()))
		},
	}
}

// policyByCores builds a Figure 9/10-style experiment: every scheme over
// random mixes at 4, 8 and 16 cores, on unfairness (max slowdown) and
// performance (harmonic speedup), with the paper's claim as the note.
func policyByCores(id, title, note string, schemes ...Scheme) func(context.Context, Scale) (*Table, error) {
	return func(ctx context.Context, sc Scale) (*Table, error) {
		t := &Table{
			ID:     id,
			Title:  title,
			Header: []string{"cores", "scheme", "max slowdown", "(std)", "harmonic speedup"},
		}
		for _, cores := range []int{4, 8, 16} {
			n := scaledWorkloads(sc, cores)
			mixes := workload.RandomMixes(suitePool(), cores, n, sc.Seed+uint64(cores))
			sc := scaleQuantumForCores(sc, cores)
			res, err := policySweep(ctx, sc.BaseConfig(), mixes, schemes, sc)
			if err != nil {
				return nil, err
			}
			for _, s := range schemes {
				r := res[s.Name]
				t.AddRow(fmt.Sprint(cores), s.Name, f2(r.MaxSlowdown), f2(r.MaxSlowdownStd), f3(r.HarmonicSpeedup))
			}
		}
		t.Notes = append(t.Notes, note)
		return t, nil
	}
}

// runCacheMem reproduces the Section 7.2.2 text result: the coordinated
// ASM-Cache-Mem scheme vs the best prior combination, PARBS+UCP, on a
// 16-core system.
func runCacheMem(ctx context.Context, sc Scale) (*Table, error) {
	cores := 16
	n := scaledWorkloads(sc, cores)
	mixes := workload.RandomMixes(suitePool(), cores, n, sc.Seed+uint64(cores))
	sc = scaleQuantumForCores(sc, cores)
	schemes := []Scheme{schemePARBSUCP(), schemeASMCacheMem()}
	t := &Table{
		ID:     "cachemem",
		Title:  "Coordinated cache + bandwidth partitioning (Section 7.2.2)",
		Header: []string{"channels", "scheme", "max slowdown", "harmonic speedup"},
	}
	// The paper reports both the 1-channel and 2-channel 16-core systems.
	for _, channels := range []int{1, 2} {
		cfg := sc.BaseConfig()
		cfg.Channels = channels
		res, err := policySweep(ctx, cfg, mixes, schemes, sc)
		if err != nil {
			return nil, err
		}
		for _, s := range schemes {
			r := res[s.Name]
			t.AddRow(fmt.Sprint(channels), s.Name, f2(r.MaxSlowdown), f3(r.HarmonicSpeedup))
		}
	}
	t.AddNote("paper: ASM-Cache-Mem improves fairness by 14.6%%/8.9%% over PARBS+UCP on 16-core 1/2-channel systems, within 1%% performance")
	return t, nil
}

// runFig11 reproduces Figure 11: soft slowdown guarantees for h264ref.
// Naive-QoS gives the target the whole cache; ASM-QoS-X gives it just
// enough ways to meet bound X, freeing capacity for the co-runners.
func runFig11(ctx context.Context, sc Scale) (*Table, error) {
	// Co-runners are cache-hungry but not extreme bandwidth hogs, so the
	// cache allocation is the lever that controls h264ref's slowdown —
	// the Figure 11 setting (the paper's bound examples sit just above
	// the 2.17x h264ref reaches with the whole cache).
	mix := workload.Mix{Names: []string{"h264ref", "soplex", "dealII", "sphinx3"}}
	bounds := []float64{1.7, 2.1, 2.6}

	schemes := []Scheme{
		schemeNoPart(),
		{
			Name: "Naive-QoS",
			Configure: func(c *sim.Config) {
				c.EpochPriority = false
				c.Epoch = 0
				c.ATSSampledSets = 64
			},
			Attach: func(s *sim.System) {
				s.AddQuantumListener(partition.Listener(partition.NewNaiveQoS(0)))
			},
		},
	}
	for _, b := range bounds {
		bound := b
		schemes = append(schemes, Scheme{
			Name: fmt.Sprintf("ASM-QoS-%.1f", bound),
			Configure: func(c *sim.Config) {
				c.ATSSampledSets = 64
			},
			Attach: func(s *sim.System) {
				s.AddQuantumListener(partition.Listener(partition.NewASMQoS(0, bound)))
			},
		})
	}

	t := &Table{
		ID:     "fig11",
		Title:  "Soft slowdown guarantees for h264ref (Figure 11)",
		Header: append(append([]string{"scheme"}, mix.Names...), "harmonic speedup"),
	}
	for _, scheme := range schemes {
		out, err := RunPolicy(ctx, sc.BaseConfig(), mix, scheme, sc)
		if err != nil {
			return nil, err
		}
		row := []string{scheme.Name}
		for _, sd := range out.AppSlowdowns {
			row = append(row, f2(sd))
		}
		row = append(row, f3(out.HarmonicSpeedup))
		t.AddRow(row...)
	}
	t.AddNote("paper Figure 11: Naive-QoS minimizes the target's slowdown but crushes co-runners; ASM-QoS-X meets bound X while the other apps slow down far less")
	return t, nil
}

package sim

import (
	"testing"

	"asmsim/internal/workload"
)

// TestIntegralsMatchPerCycleOracle holds the settled Table-1 integrals to
// their per-cycle definition. The system advances one Tick at a time, no
// run-ahead; after every cycle the test charges that cycle itself,
// from the end-of-Tick outstanding counts and epoch owner — the loop
// System.Tick used to run — and at every quantum boundary the snapshot
// must equal the sums. Unlike TestSkipAheadBitIdentical, whose two runs
// share settle, this sees a cycle charged to the wrong state or owner.
func TestIntegralsMatchPerCycleOracle(t *testing.T) {
	type integrals struct{ qHit, qMiss, mlp, eHit, eMiss uint64 }
	cases := []struct {
		name  string
		apps  []string
		tweak func(*Config)
	}{
		{"random epochs", []string{"mcf", "libquantum", "bzip2", "h264ref"}, func(c *Config) {}},
		{"round-robin epochs, prefetch", []string{"lbm", "gcc", "milc", "povray"}, func(c *Config) {
			c.EpochRoundRobin = true
			c.Prefetch = true
		}},
		{"8-core PARBS, no epochs", []string{"povray", "h264ref", "gcc", "bzip2", "astar", "mcf", "libquantum", "lbm"}, func(c *Config) {
			c.EpochPriority = false
			c.Epoch = 0
			c.Policy = PolicyPARBS
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Cores = len(tc.apps)
		cfg.Quantum = 70_000 // quanta 1 and 2 each hold a forced-wake boundary
		cfg.Epoch = 3_500
		tc.tweak(&cfg)
		specs := make([]workload.Spec, len(tc.apps))
		for i, n := range tc.apps {
			sp, ok := workload.ByName(n)
			if !ok {
				t.Fatalf("unknown benchmark %s", n)
			}
			specs[i] = sp
		}
		sys, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]integrals, cfg.Cores)
		charge := func() {
			for a := range want {
				w := &want[a]
				if sys.outHits[a] > 0 {
					w.qHit++
					if a == sys.epochOwner {
						w.eHit++
					}
				}
				if m := sys.outMiss[a]; m > 0 {
					w.qMiss++
					w.mlp += uint64(m)
					if a == sys.epochOwner {
						w.eMiss++
					}
				}
			}
		}
		boundary, nonzero := false, false
		sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
			// endQuantum runs inside the boundary cycle's Tick, after the
			// cores: the state is that cycle's end-of-Tick state already.
			charge()
			for a := range want {
				aq := &st.Apps[a]
				got := integrals{aq.QuantumHitTime, aq.QuantumMissTime, aq.MLPIntegral, aq.EpochHitTime, aq.EpochMissTime}
				if got != want[a] {
					t.Errorf("%s: quantum %d app %d: integrals %+v, per-cycle oracle %+v", tc.name, st.Quantum, a, got, want[a])
				}
				nonzero = nonzero || got.mlp > 0 && (got.eMiss > 0 || !cfg.EpochPriority)
			}
			clear(want)
			boundary = true
		})
		for sys.Cycle() < 3*cfg.Quantum {
			sys.Tick()
			if boundary {
				boundary = false
				continue
			}
			charge()
		}
		if !nonzero {
			t.Errorf("%s: no integral ever moved", tc.name)
		}
	}
}

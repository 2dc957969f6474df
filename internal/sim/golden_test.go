package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asmsim/internal/partition"
	"asmsim/internal/sim"
	"asmsim/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quantum_golden.json from this build")

// goldenCase is one configuration of the quantum-statistics golden.
type goldenCase struct {
	name   string
	apps   []string
	tweak  func(*sim.Config)
	attach func(*sim.System)
}

var (
	goldenMix4 = []string{"mcf", "libquantum", "bzip2", "h264ref"}
	// 2 low + 3 medium + 3 high intensity, the policy sweeps' 8-core shape.
	goldenMix8 = []string{"povray", "h264ref", "gcc", "bzip2", "astar", "mcf", "libquantum", "lbm"}
)

func noEpochs(p sim.Policy) func(*sim.Config) {
	return func(c *sim.Config) {
		c.EpochPriority = false
		c.Epoch = 0
		c.Policy = p
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "frfcfs4-random-epochs", apps: goldenMix4},
		{name: "frfcfs4-round-robin-epochs", apps: goldenMix4, tweak: func(c *sim.Config) { c.EpochRoundRobin = true }},
		{name: "frfcfs4-prefetch", apps: goldenMix4, tweak: func(c *sim.Config) { c.Prefetch = true }},
		{name: "frfcfs4-2ch", apps: goldenMix4, tweak: func(c *sim.Config) { c.Channels = 2 }},
		{name: "frfcfs4-sampled-backpressure", apps: []string{"lbm", "libquantum", "milc", "soplex"}, tweak: func(c *sim.Config) {
			c.ATSSampledSets = 64
			c.WritebackBackpressure = 4
		}},
		{name: "parbs8", apps: goldenMix8, tweak: noEpochs(sim.PolicyPARBS)},
		{name: "tcm8", apps: goldenMix8, tweak: noEpochs(sim.PolicyTCM)},
		{name: "tcm4-epochs-2ch", apps: goldenMix4, tweak: func(c *sim.Config) {
			c.Policy = sim.PolicyTCM
			c.Channels = 2
		}},
		{name: "parbs8-ucp", apps: goldenMix8, tweak: func(c *sim.Config) {
			noEpochs(sim.PolicyPARBS)(c)
			c.ATSSampledSets = 64
		}, attach: func(s *sim.System) {
			s.AddQuantumListener(partition.Listener(partition.NewUCP()))
		}},
		{name: "asm-cache-mem8", apps: goldenMix8, tweak: func(c *sim.Config) { c.ATSSampledSets = 64 }, attach: func(s *sim.System) {
			s.AddQuantumListener(partition.NewASMCacheMem().Listener())
		}},
		// L1 hits that do not retire on the next cycle. In this core model
		// the extra cycle shows only until a window first fills behind a
		// miss (fetch never outruns retirement after that), so its digest
		// equals frfcfs4-random-epochs'.
		{name: "frfcfs4-l1lat2", apps: goldenMix4, tweak: func(c *sim.Config) { c.L1Latency = 2 }},
		// A narrow core behind a small window: window-full dynamics.
		{name: "frfcfs4-iw2-win32", apps: goldenMix4, tweak: func(c *sim.Config) {
			c.IssueWidth = 2
			c.WindowSize = 32
		}},
	}
}

// quantumDigest runs gc for three quanta and hashes the %+v rendering of
// every AppQuantum the listeners saw, in quantum and core order.
func quantumDigest(t *testing.T, gc goldenCase) string {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = len(gc.apps)
	cfg.Quantum = 100_000
	cfg.Seed = 42
	if gc.tweak != nil {
		gc.tweak(&cfg)
	}
	specs := make([]workload.Spec, len(gc.apps))
	for i, n := range gc.apps {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		specs[i] = sp
	}
	sys, err := sim.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	sys.AddQuantumListener(func(_ *sim.System, st *sim.QuantumStats) {
		for a := range st.Apps {
			fmt.Fprintf(h, "q%d a%d %+v\n", st.Quantum, a, st.Apps[a])
		}
	})
	if gc.attach != nil {
		gc.attach(sys)
	}
	sys.RunQuanta(3)
	return hex.EncodeToString(h.Sum(nil))
}

// TestQuantumStatsGolden pins every per-quantum counter of a spread of
// configurations to digests recorded from the per-cycle accounting that
// preceded interval accounting (PR 14). TestSkipAheadBitIdentical compares
// two runs that share the integrals' settle routine and the cores' sleep
// accounting, so it cannot see an error in either; this golden can.
// Regenerate (after an intended model change only) with
//
//	go test ./internal/sim -run TestQuantumStatsGolden -update-golden
func TestQuantumStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "quantum_golden.json")
	got := map[string]string{}
	for _, gc := range goldenCases() {
		got[gc.name] = quantumDigest(t, gc)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d configurations, the test runs %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: quantum statistics digest %s, golden %s", name, g, w)
		}
	}
}

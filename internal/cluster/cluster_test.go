package cluster

import (
	"strings"
	"testing"

	"asmsim/internal/sim"
)

func testConfig() Config {
	sys := sim.DefaultConfig()
	sys.Quantum = 200_000
	sys.Epoch = 10_000
	sys.ATSSampledSets = 64
	sys.Cores = 2
	return Config{Machines: 2, System: sys, RoundQuanta: 2}
}

func TestClusterValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := New(cfg, Placement{{"mcf", "bzip2"}}); err == nil {
		t.Fatal("placement/machine mismatch accepted")
	}
	if _, err := New(cfg, Placement{{"mcf"}, {"bzip2", "h264ref"}}); err == nil {
		t.Fatal("short machine accepted")
	}
	bad := cfg
	bad.Machines = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero machines accepted")
	}
	noEpoch := cfg
	noEpoch.System.EpochPriority = false
	noEpoch.System.Epoch = 0
	if err := noEpoch.Validate(); err == nil {
		t.Fatal("ASM without epochs accepted")
	}
}

func TestEvaluateRound(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	for i, m := range c.Machines() {
		if len(m.Slowdowns) != 2 {
			t.Fatalf("machine %d: %d slowdowns", i, len(m.Slowdowns))
		}
		for _, sd := range m.Slowdowns {
			if sd < 1 || sd > 50 {
				t.Fatalf("machine %d slowdown %v", i, sd)
			}
		}
	}
	// Two heavy jobs together must contend more than two light ones.
	if c.Machines()[0].MaxSlowdown() <= c.Machines()[1].MaxSlowdown() {
		t.Fatalf("heavy machine %.2f vs light machine %.2f", c.Machines()[0].MaxSlowdown(), c.Machines()[1].MaxSlowdown())
	}
}

func TestRebalanceSwapsJobs(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "libquantum"}, // both heavy: unfair machine
		{"h264ref", "namd"},   // both light
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	before := c.WorstSlowdown()
	moved, err := c.Rebalance(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("imbalanced cluster did not rebalance")
	}
	if len(c.Migrations) != 1 {
		t.Fatalf("%d migrations", len(c.Migrations))
	}
	mv := c.Migrations[0]
	if mv.From != 0 || mv.To != 1 {
		t.Fatalf("migration direction %+v", mv)
	}
	// After re-evaluation, the worst slowdown anywhere must improve:
	// splitting the two heavy jobs relieves the victim.
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	after := c.WorstSlowdown()
	if after >= before {
		t.Fatalf("rebalance did not help the worst case: %.2f -> %.2f", before, after)
	}
}

func TestRebalanceToleranceHolds(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "h264ref"},
		{"libquantum", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Rebalance(100) // huge tolerance: never migrate
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Fatal("migrated despite tolerance")
	}
}

func TestAdmissionControl(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CanAdmit(0, 2); err == nil {
		t.Fatal("admission before evaluation must error")
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	// The light machine admits under a generous bound; the heavy one
	// should refuse under a tight bound.
	okLight, err := c.CanAdmit(1, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !okLight {
		t.Fatalf("light machine refused admission: %v", c.Machines()[1].Slowdowns)
	}
	okHeavy, err := c.CanAdmit(0, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if okHeavy {
		t.Fatalf("heavy machine admitted under tight SLA: %v", c.Machines()[0].Slowdowns)
	}
	if _, err := c.CanAdmit(99, 2); err == nil {
		t.Fatal("bad machine index accepted")
	}
}

// TestUnknownJob: a placement naming an unknown benchmark is refused by
// New, and the error names the job.
func TestUnknownJob(t *testing.T) {
	_, err := New(testConfig(), Placement{
		{"mcf", "nonesuch"},
		{"h264ref", "namd"},
	})
	if err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("err %v, want a refusal naming nonesuch", err)
	}
}

// TestAllMachinesFailedErrors: when every machine's evaluation fails, the
// round still completes, leaves every machine unevaluated and reports the
// first failure, naming its machine and round.
func TestAllMachinesFailedErrors(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.cfg.System.Quantum = 0 // no machine's run can be built
	err = c.EvaluateRound()
	if err == nil || !strings.Contains(err.Error(), "machine 0 round 0") {
		t.Fatalf("err %v, want the first failure naming machine 0 round 0", err)
	}
	for i, m := range c.Machines() {
		if m.Slowdowns != nil {
			t.Fatalf("failed machine %d kept estimates %v", i, m.Slowdowns)
		}
	}
	if c.Round() != 1 {
		t.Fatalf("round %d after one failed round, want 1", c.Round())
	}
}

// TestRebalanceSkipsFailedMachines: one machine's failed evaluation fails
// the round but not the other machines' evaluations, and Rebalance then
// works on the evaluated machines alone.
func TestRebalanceSkipsFailedMachines(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 3
	c, err := New(cfg, Placement{
		{"mcf", "libquantum"},
		{"povray", "calculix"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.machines[1].Jobs = nil // a run with no cores cannot be built
	err = c.EvaluateRound()
	if err == nil || !strings.Contains(err.Error(), "machine 1 round 0") {
		t.Fatalf("err %v, want the failure naming machine 1 round 0", err)
	}
	if c.Machines()[0].Slowdowns == nil || c.Machines()[2].Slowdowns == nil {
		t.Fatal("a failed machine stopped the others' evaluation")
	}
	moved, err := c.Rebalance(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("evaluated machines did not rebalance")
	}
	if mv := c.Migrations[0]; mv.From == 1 || mv.To == 1 {
		t.Fatalf("migration touched the failed machine: %+v", mv)
	}
}

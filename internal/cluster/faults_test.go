package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"asmsim/internal/faults"
)

// lightPlacement puts heavy jobs on machine 0 and light jobs on machine 1
// so drained work fits under the default SLA bound on the survivor.
func lightPlacement() Placement {
	return Placement{
		{"h264ref", "namd"},
		{"povray", "calculix"},
	}
}

func kinds(events []Event) []string {
	var out []string
	for _, e := range events {
		out = append(out, fmt.Sprintf("r%d m%d %s", e.Round, e.Machine, e.Kind))
	}
	return out
}

func hasEvent(events []Event, kind string, machine int) bool {
	for _, e := range events {
		if e.Kind == kind && e.Machine == machine {
			return true
		}
	}
	return false
}

// TestDegradedServesStaleThenRecovers: a machine whose evaluation fails
// for one round serves its previous estimates, marked Degraded, and
// returns to Healthy when the next round evaluates cleanly.
func TestDegradedServesStaleThenRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Config{Seed: 1, EvalFailProb: 1, Machines: []int{0}, Rounds: []int{1}}
	c, err := New(cfg, lightPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil { // round 0: clean
		t.Fatal(err)
	}
	fresh := append([]float64(nil), c.Machines()[0].Slowdowns...)
	if len(fresh) != 2 {
		t.Fatalf("round 0 estimates: %v", fresh)
	}

	if err := c.EvaluateRound(); err != nil { // round 1: machine 0 fails
		t.Fatal(err)
	}
	m := c.Machines()[0]
	if m.Health != Degraded {
		t.Fatalf("health %v after failed round, want Degraded (events: %v)", m.Health, kinds(c.Events))
	}
	if m.StaleRounds != 1 {
		t.Fatalf("stale rounds %d", m.StaleRounds)
	}
	if !errors.Is(m.LastErr, faults.ErrInjected) {
		t.Fatalf("LastErr %v must unwrap to ErrInjected", m.LastErr)
	}
	for i, sd := range m.Slowdowns {
		if sd != fresh[i] {
			t.Fatalf("degraded machine lost its stale estimates: %v vs %v", m.Slowdowns, fresh)
		}
	}
	// A Degraded machine still answers admission control on stale data.
	if _, err := c.CanAdmit(0, 3.0); err != nil {
		t.Fatalf("degraded machine must answer admission control: %v", err)
	}
	if !hasEvent(c.Events, "degraded", 0) {
		t.Fatalf("no degraded event: %v", kinds(c.Events))
	}

	if err := c.EvaluateRound(); err != nil { // round 2: clean again
		t.Fatal(err)
	}
	m = c.Machines()[0]
	if m.Health != Healthy || m.StaleRounds != 0 || m.LastErr != nil {
		t.Fatalf("machine did not re-heal: health %v stale %d err %v", m.Health, m.StaleRounds, m.LastErr)
	}
}

// TestStaleTTLExhaustionDrains: a machine that keeps failing past the
// stale TTL is marked Failed and its jobs drain onto the survivor under
// the SLA bound.
func TestStaleTTLExhaustionDrains(t *testing.T) {
	cfg := testConfig()
	cfg.StaleTTL = 2
	cfg.Faults = faults.Config{Seed: 1, EvalFailProb: 1, Machines: []int{0}, Rounds: []int{1, 2, 3, 4, 5}}
	c, err := New(cfg, lightPlacement())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round <= 3; round++ {
		if err := c.EvaluateRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	m := c.Machines()[0]
	if m.Health != Failed {
		t.Fatalf("health %v after TTL exhaustion, want Failed (events: %v)", m.Health, kinds(c.Events))
	}
	if len(m.Jobs) != 0 {
		t.Fatalf("failed machine still holds jobs %v", m.Jobs)
	}
	if len(c.Drains) != 2 {
		t.Fatalf("%d drains, want 2: %+v", len(c.Drains), c.Drains)
	}
	for _, d := range c.Drains {
		if d.From != 0 || d.To != 1 {
			t.Fatalf("drain %+v, want from 0 to 1", d)
		}
	}
	if got := len(c.Machines()[1].Jobs); got != 4 {
		t.Fatalf("survivor has %d jobs, want 4", got)
	}
	if len(c.Unplaced) != 0 {
		t.Fatalf("unexpected parked jobs %v", c.Unplaced)
	}
	// A failed machine refuses admission without error.
	ok, err := c.CanAdmit(0, 100)
	if err != nil || ok {
		t.Fatalf("failed machine admission: ok=%v err=%v", ok, err)
	}
	// The survivor still evaluates the enlarged mix on the next round.
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Machines()[1].Slowdowns); got != 4 {
		t.Fatalf("survivor evaluated %d slowdowns, want 4", got)
	}
}

// TestTightBoundParksJobs: when no survivor admits the drained jobs under
// the SLA bound they are parked, and re-placed once the failed machine
// recovers (idle machines admit trivially).
func TestTightBoundParksJobs(t *testing.T) {
	cfg := testConfig()
	cfg.DrainSLABound = 1.0000001 // nothing real fits under this
	cfg.Faults = faults.Config{Seed: 1, EvalFailProb: 1, Machines: []int{0}, Rounds: []int{0, 1}}
	c, err := New(cfg, lightPlacement())
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: machine 0 fails with no stale estimates -> Failed + drain;
	// the tight bound parks both jobs.
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	if c.Machines()[0].Health != Failed {
		t.Fatalf("health %v, want Failed", c.Machines()[0].Health)
	}
	if len(c.Unplaced) != 2 {
		t.Fatalf("parked %v, want both jobs", c.Unplaced)
	}
	if !hasEvent(c.Events, "park", 0) {
		t.Fatalf("no park event: %v", kinds(c.Events))
	}
	// Round 1: the recovery probe is still scripted to fail.
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	if c.Machines()[0].Health != Failed {
		t.Fatal("machine recovered while probe was scripted to fail")
	}
	// Round 2: probe succeeds; the recovered idle machine admits parked
	// work again. Only the first job lands this round — after it is
	// placed the machine has jobs but no estimates yet, so admission
	// control holds the second job until the next evaluation.
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	if c.Machines()[0].Health != Healthy {
		t.Fatalf("health %v after probe, want Healthy (events: %v)", c.Machines()[0].Health, kinds(c.Events))
	}
	if len(c.Unplaced) != 1 {
		t.Fatalf("parked %v, want exactly one job still waiting", c.Unplaced)
	}
	if got := len(c.Machines()[0].Jobs); got != 1 {
		t.Fatalf("recovered machine has %d jobs, want 1", got)
	}
	if !hasEvent(c.Events, "recovered", 0) || !hasEvent(c.Events, "replace", 0) {
		t.Fatalf("missing recovery events: %v", kinds(c.Events))
	}
}

// TestDeterministicFailureEvaluatedOnce: an evaluation that fails on its
// own (an unknown job) is run once per round — the machine fails and
// drains in round 0 with no second attempt logged.
func TestDeterministicFailureEvaluatedOnce(t *testing.T) {
	c, err := New(testConfig(), Placement{
		{"h264ref", "no-such-job"},
		{"povray", "calculix"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	m := c.Machines()[0]
	if m.Health != Failed {
		t.Fatalf("health %v, want Failed (events: %v)", m.Health, kinds(c.Events))
	}
	if m.LastErr == nil || !strings.Contains(m.LastErr.Error(), "no-such-job") {
		t.Fatalf("LastErr %v does not name the unknown job", m.LastErr)
	}
	if hasEvent(c.Events, "retry", 0) {
		t.Fatalf("a deterministic failure was retried: %v", kinds(c.Events))
	}
}

// TestOutageDegradesForItsDuration: a scripted 2-round outage degrades
// the machine (stale estimates) and clears on its own.
func TestOutageDegradesForItsDuration(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Config{Seed: 1, OutageProb: 1, OutageRounds: 2, Machines: []int{0}, Rounds: []int{1}}
	c, err := New(cfg, lightPlacement())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round <= 1; round++ {
		if err := c.EvaluateRound(); err != nil {
			t.Fatal(err)
		}
	}
	m := c.Machines()[0]
	if m.Health != Degraded {
		t.Fatalf("round 1 health %v, want Degraded (events: %v)", m.Health, kinds(c.Events))
	}
	var f *faults.Fault
	if !errors.As(m.LastErr, &f) || f.Kind != faults.Outage {
		t.Fatalf("LastErr %v, want an outage fault", m.LastErr)
	}
	if !hasEvent(c.Events, "outage", 0) {
		t.Fatalf("no outage event: %v", kinds(c.Events))
	}
	if err := c.EvaluateRound(); err != nil { // round 2: still out
		t.Fatal(err)
	}
	if c.Machines()[0].Health != Degraded {
		t.Fatalf("round 2 health %v", c.Machines()[0].Health)
	}
	if err := c.EvaluateRound(); err != nil { // round 3: outage over
		t.Fatal(err)
	}
	if c.Machines()[0].Health != Healthy {
		t.Fatalf("round 3 health %v, want Healthy", c.Machines()[0].Health)
	}
}

// TestAllMachinesFailedErrors: total loss is the only condition that
// fails the round.
func TestAllMachinesFailedErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Config{Seed: 1, EvalFailProb: 1}
	c, err := New(cfg, lightPlacement())
	if err != nil {
		t.Fatal(err)
	}
	err = c.EvaluateRound()
	if err == nil {
		t.Fatal("total cluster loss not reported")
	}
	if !strings.Contains(err.Error(), "all 2 machines failed") {
		t.Fatalf("error %v", err)
	}
}

// TestRebalanceSkipsFailedMachines: Rebalance keeps working on the
// survivors while a machine is down.
func TestRebalanceSkipsFailedMachines(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 3
	cfg.Faults = faults.Config{Seed: 1, EvalFailProb: 1, Machines: []int{2}}
	c, err := New(cfg, Placement{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
		{"povray", "calculix"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	if c.Machines()[2].Health != Failed {
		t.Fatalf("machine 2 health %v", c.Machines()[2].Health)
	}
	// The drained jobs changed the survivors' composition mid-round, so
	// their estimates are stale; one more round refreshes them.
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Rebalance(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("survivors did not rebalance")
	}
	mv := c.Migrations[0]
	if mv.From == 2 || mv.To == 2 {
		t.Fatalf("migration touched the failed machine: %+v", mv)
	}
}

// TestChaosDeterminism: the same seed produces the identical event and
// drain history, fault injection included.
func TestChaosDeterminism(t *testing.T) {
	run := func() ([]string, int) {
		cfg := testConfig()
		cfg.Faults = faults.Config{Seed: 99, EvalFailProb: 0.4, CorruptProb: 0.3}
		c, err := New(cfg, lightPlacement())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			if err := c.EvaluateRound(); err != nil {
				break // total loss is a valid deterministic outcome
			}
		}
		return kinds(c.Events), len(c.Drains)
	}
	e1, d1 := run()
	e2, d2 := run()
	if fmt.Sprint(e1) != fmt.Sprint(e2) || d1 != d2 {
		t.Fatalf("chaos not deterministic:\n%v (%d drains)\nvs\n%v (%d drains)", e1, d1, e2, d2)
	}
	if len(e1) == 0 {
		t.Fatal("chaos config produced no events — injection looks inert")
	}
}

// TestCorruptedCountersReachTheEstimator: with every quantum's counters
// corrupted on their way to ASM, each machine's sanitized estimator takes
// its no-signal fallback (exactly 1 for every job) instead of the clean
// round's estimates, and the round itself still succeeds.
func TestCorruptedCountersReachTheEstimator(t *testing.T) {
	round := func(fc faults.Config) []Machine {
		cfg := testConfig()
		cfg.Faults = fc
		c, err := New(cfg, lightPlacement())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EvaluateRound(); err != nil {
			t.Fatal(err)
		}
		return c.Machines()
	}
	clean := round(faults.Config{})
	corrupt := round(faults.Config{Seed: 1, CorruptProb: 1})
	slowed := false
	for i := range clean {
		if corrupt[i].Health != Healthy {
			t.Fatalf("machine %d: corrupted counters failed the evaluation: %+v", i, corrupt[i])
		}
		for j, sd := range corrupt[i].Slowdowns {
			if sd != 1 {
				t.Fatalf("machine %d job %d: estimate %v from corrupted counters, want the fallback 1", i, j, sd)
			}
			slowed = slowed || clean[i].Slowdowns[j] > 1
		}
	}
	if !slowed {
		t.Fatal("clean estimates are all 1; the test cannot tell corruption from a clean run")
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
)

// traceTestConfig is the migration-demo setup scaled down for tests:
// machine 0 gets two memory hogs fighting, machine 1 two light jobs, so
// one Rebalance reliably migrates.
func traceTestConfig(t *testing.T) (Config, Placement) {
	t.Helper()
	sys := sim.DefaultConfig()
	sys.Quantum = 200_000
	sys.ATSSampledSets = 64
	sys.Cores = 2
	return Config{Machines: 2, System: sys, RoundQuanta: 2},
		Placement{{"mcf", "libquantum"}, {"h264ref", "namd"}}
}

// evaluateMigrateEvaluate runs the migration demo's schedule: evaluate,
// rebalance (which must migrate), evaluate.
func evaluateMigrateEvaluate(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Rebalance(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("expected the contended placement to trigger a migration")
	}
	if err := c.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
}

// tracedCluster runs the migration demo with one tracer attached and
// returns the cluster and its parsed trace.
func tracedCluster(t *testing.T) (*Cluster, *evtrace.NodeTrace) {
	t.Helper()
	cfg, placement := traceTestConfig(t)
	c, err := New(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := evtrace.New(&buf, evtrace.Config{SampleEvery: 64})
	c.SetTelemetry(telemetry.Options{Trace: tr})
	evaluateMigrateEvaluate(t, c)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	nt, err := evtrace.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Check(); err != nil {
		t.Fatal(err)
	}
	return c, nt
}

// clusterInstants decodes the args of every cluster instant named name,
// in trace order, with their timestamps in cycles.
func clusterInstants[A any](t *testing.T, nt *evtrace.NodeTrace, name string) ([]A, []uint64) {
	t.Helper()
	var args []A
	var cycles []uint64
	for _, e := range nt.Events {
		if e.Name != name || e.Ph != "i" || e.Cat != "cluster" {
			continue
		}
		var a A
		if err := json.Unmarshal(e.Args, &a); err != nil {
			t.Fatalf("%s instant: %v", name, err)
		}
		args = append(args, a)
		cycles = append(cycles, uint64(*e.Ts*1000))
	}
	return args, cycles
}

// TestClusterTracingMigrationInstants: the one cluster trace carries one
// "round" instant per round, at r × RoundQuanta × Quantum on the cluster
// clock, and each balancer decision exactly once, equal to its
// Migrations entry and stamped where its Round (the rounds completed
// when it was decided) ends on the cluster clock.
func TestClusterTracingMigrationInstants(t *testing.T) {
	c, nt := tracedCluster(t)
	roundCycles := c.cfg.System.Quantum * uint64(c.cfg.RoundQuanta)

	rounds, at := clusterInstants[struct{ Round int }](t, nt, "round")
	if len(rounds) != c.Round() {
		t.Fatalf("%d round instants, want %d", len(rounds), c.Round())
	}
	for r := range rounds {
		if rounds[r].Round != r || at[r] != uint64(r)*roundCycles {
			t.Errorf("round instant %d: round %d at cycle %d, want round %d at %d",
				r, rounds[r].Round, at[r], r, uint64(r)*roundCycles)
		}
	}

	migrations, at := clusterInstants[Migration](t, nt, "migration")
	if len(c.Migrations) == 0 || !reflect.DeepEqual(migrations, c.Migrations) {
		t.Fatalf("migration instants %+v, want the ledger %+v", migrations, c.Migrations)
	}
	for i, mv := range c.Migrations {
		if want := uint64(mv.Round) * roundCycles; at[i] != want {
			t.Errorf("migration %d at cycle %d, want %d", i, at[i], want)
		}
	}
}

// aloneSummary evaluates one machine holding jobs once, traced into a
// private root tracer, and summarizes its attribution series.
func aloneSummary(t *testing.T, jobs []string) evtrace.Summary {
	t.Helper()
	cfg, _ := traceTestConfig(t)
	cfg.Machines = 1
	c, err := New(cfg, Placement{jobs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := evtrace.New(&buf, evtrace.Config{SampleEvery: 64})
	c.nodes[0] = tr
	if _, err := c.evaluate(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	nt, err := evtrace.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return evtrace.Summarize(nt.Quanta)
}

// TestClusterTraceSplitsByAppSet: the one cluster trace holds exactly the
// four app sets the schedule ran (each machine before and after the
// migration, its apps named "n<k>/<app>"), each set's summary is
// bit-identical to the same machine's round traced alone, and no two
// machines share a pid.
func TestClusterTraceSplitsByAppSet(t *testing.T) {
	c, nt := tracedCluster(t)
	cfg, placement := traceTestConfig(t)

	// The app sets the schedule ran: the placement, then the placement
	// with the one migration's jobs swapped.
	after := [][]string{slices.Clone(placement[0]), slices.Clone(placement[1])}
	mv := c.Migrations[0]
	for _, jobs := range after {
		for j, job := range jobs {
			switch job {
			case mv.Job:
				jobs[j] = mv.Swapped
			case mv.Swapped:
				jobs[j] = mv.Job
			}
		}
	}
	want := map[string][]string{} // set key -> unprefixed jobs
	for _, round := range [][][]string{placement, after} {
		for k, jobs := range round {
			names := make([]string, len(jobs))
			for j, job := range jobs {
				names[j] = fmt.Sprintf("n%d/%s", k, job)
			}
			want[strings.Join(names, "+")] = jobs
		}
	}

	sets := evtrace.SplitByApp(nt.Quanta)
	if len(sets) != 4 || len(want) != 4 {
		t.Fatalf("trace holds app sets %v, want the four of %v", keys(sets), want)
	}
	for key, jobs := range want {
		series, ok := sets[key]
		if !ok {
			t.Fatalf("trace lacks app set %s (has %v)", key, keys(sets))
		}
		if len(series) != cfg.RoundQuanta {
			t.Errorf("%s: %d quanta, want %d", key, len(series), cfg.RoundQuanta)
		}
		got, alone := evtrace.Summarize(series), aloneSummary(t, jobs)
		prefix := strings.SplitN(key, "/", 2)[0] + "/"
		for j := range alone.AppStats {
			alone.AppStats[j].Name = prefix + alone.AppStats[j].Name
		}
		if !reflect.DeepEqual(got.Mem, alone.Mem) || !reflect.DeepEqual(got.MemRowTotals, alone.MemRowTotals) ||
			!reflect.DeepEqual(got.AppStats, alone.AppStats) {
			t.Errorf("%s: summary differs from the machine traced alone:\ncluster %+v\nalone   %+v", key, got, alone)
		}
	}

	// Machine k's pids are k*PidStride+j, each named for an app of
	// machine k, every event on an app pid belongs to a named pid, and
	// each pid carries exactly its own slot's interference counters, one
	// per quantum the machine ran.
	named := map[int]bool{}
	for _, e := range nt.Events {
		if e.Name != "process_name" {
			continue
		}
		var args struct{ Name string }
		if err := json.Unmarshal(e.Args, &args); err != nil {
			t.Fatal(err)
		}
		k, j := *e.Pid/evtrace.PidStride, *e.Pid%evtrace.PidStride
		if named[*e.Pid] || k >= cfg.Machines || j >= cfg.System.Cores ||
			!strings.HasPrefix(args.Name, fmt.Sprintf("app%d n%d/", j, k)) {
			t.Errorf("pid %d named %q", *e.Pid, args.Name)
		}
		named[*e.Pid] = true
	}
	if len(named) != cfg.Machines*cfg.System.Cores {
		t.Errorf("named pids %v, want one per machine slot", named)
	}
	counters := map[int]int{}
	for _, e := range nt.Events {
		if (e.Ph == "X" || e.Ph == "C") && !named[*e.Pid] {
			t.Errorf("%s event on unnamed pid %d", e.Name, *e.Pid)
		}
		if e.Ph == "C" {
			counters[*e.Pid]++
		}
	}
	for pid := range named {
		if want := c.Round() * cfg.RoundQuanta; counters[pid] != want {
			t.Errorf("pid %d carries %d interference counters, want %d", pid, counters[pid], want)
		}
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

package asmsim_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"asmsim"
	"asmsim/internal/evtrace"
	"asmsim/internal/serve"
	"asmsim/internal/telemetry"
)

// fleetTestCluster builds the small migration cluster both runs share.
func fleetTestCluster(t *testing.T) *asmsim.Cluster {
	t.Helper()
	sys := asmsim.DefaultConfig()
	sys.Quantum = 200_000
	sys.ATSSampledSets = 64
	sys.Cores = 2
	cl, err := asmsim.NewCluster(asmsim.ClusterConfig{
		Machines:    2,
		System:      sys,
		RoundQuanta: 2,
	}, [][]string{
		{"mcf", "libquantum"},
		{"h264ref", "namd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// fleetRound runs one cluster schedule: evaluate, rebalance, evaluate.
func fleetRound(t *testing.T, cl *asmsim.Cluster) {
	t.Helper()
	if err := cl.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rebalance(0.1); err != nil {
		t.Fatal(err)
	}
	if err := cl.EvaluateRound(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAggregationDoesNotPerturbResults is the fleet layer's core
// guarantee, the cluster analogue of TestObserversDoNotPerturbResults:
// a cluster run with the whole observability stack attached — per-node
// trace capture, telemetry registry, the dashboard's HTTP endpoints
// live, and a FleetPoller scraping /metrics, /debug/asm/hist and
// /debug/asm/attribution throughout — must produce results
// reflect.DeepEqual to a bare run. The simulation is deterministic, so
// any divergence means observation leaked into the simulated machines.
func TestFleetAggregationDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run integration test")
	}

	bare := fleetTestCluster(t)
	fleetRound(t, bare)

	observed := fleetTestCluster(t)
	dir := t.TempDir()
	var nodes []asmsim.TelemetryOptions
	var tracePaths []string
	for k := range observed.Machines() {
		p := filepath.Join(dir, fmt.Sprintf("node%d.trace.json", k))
		tr, err := asmsim.OpenTracer(p, asmsim.TracerConfig{SampleEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, asmsim.TelemetryOptions{Trace: tr})
		tracePaths = append(tracePaths, p)
	}
	reg := asmsim.NewTelemetryRegistry()
	observed.SetTelemetry(asmsim.TelemetryOptions{Metrics: reg}, nodes...)

	srv := asmsim.NewDashServer()
	defer srv.Close()
	srv.SetRegistry(reg)
	mux := http.NewServeMux()
	srv.Mount(mux)
	srv.MountMetrics(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	poller := serve.NewFleetPoller(serve.FleetPollerOptions{
		Targets:  []string{ts.URL},
		Interval: 2 * time.Millisecond,
		Metrics:  telemetry.NewRegistry(), // own registry: the node's stays the cluster's
	})
	srv.SetFleetSource(poller)
	poller.Start()
	fleetRound(t, observed)
	poller.Stop()
	// The background loop's cadence is scheduler-dependent (under a
	// loaded test host it may not have swept since the run ended); one
	// final synchronous sweep pins the post-run state the assertions
	// below read.
	poller.PollOnce(context.Background())
	for _, n := range nodes {
		if err := n.Trace.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(bare.Machines(), observed.Machines()) {
		t.Fatalf("fleet observation perturbed machine results:\nbare:     %+v\nobserved: %+v",
			bare.Machines(), observed.Machines())
	}
	if !reflect.DeepEqual(bare.Migrations, observed.Migrations) {
		t.Fatalf("fleet observation perturbed migrations:\nbare:     %+v\nobserved: %+v",
			bare.Migrations, observed.Migrations)
	}

	// The poller really watched the run: at least one sweep, the node
	// healthy, cluster telemetry in the samples.
	st := poller.Fleet()
	if st.Polls == 0 {
		t.Fatal("poller never swept")
	}
	if len(st.Nodes) != 1 || !st.Nodes[0].Healthy {
		t.Fatalf("node state = %+v", st.Nodes)
	}
	if got := st.Nodes[0].Samples["cluster_rounds_total"]; got != 2 {
		t.Fatalf("cluster_rounds_total = %v (keys = %d), want 2", got, len(st.Nodes[0].Samples))
	}

	// And the per-node traces it rode alongside still merge into one
	// valid cluster trace whose node blocks are bit-identical (Merge
	// validates verbatim-copy invariants; WriteTrace exercised via the
	// tracesum path in make trace-merge-smoke).
	merged, err := evtrace.MergeFiles(nopWriter{}, tracePaths)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(merged.Attribution.Apps); n != 4 {
		t.Fatalf("merged cluster has %d apps, want 4", n)
	}
	off := 0 // node k's first row/column in the cluster matrix
	for k, nt := range merged.Nodes {
		sum := evtrace.Summarize(nt.Quanta)
		nk := len(nt.Names)
		for j := 0; j < nk; j++ {
			for i := 0; i < nk; i++ {
				if merged.Attribution.Mem[off+j][off+i] != sum.Mem[j][i] {
					t.Fatalf("node %d mem block not bit-identical at (%d,%d)", k, j, i)
				}
			}
		}
		off += nk
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

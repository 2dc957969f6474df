package asmsim_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"asmsim"
	"asmsim/internal/evtrace"
	"asmsim/internal/telemetry"
)

// testCluster builds the small migration cluster both runs share.
func testCluster(t *testing.T) *asmsim.Cluster {
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

// clusterRound runs one cluster schedule: evaluate, rebalance, evaluate.
func clusterRound(t *testing.T, cl *asmsim.Cluster) {
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

// httpGet fetches url and returns its body, failing on a non-200 status.
func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// TestClusterObservationDoesNotPerturbResults is the cluster analogue of
// TestObserversDoNotPerturbResults: a cluster run with the observability
// stack attached — one cluster trace, a shared telemetry registry,
// and the dashboard plus /metrics served over HTTP while a client scrapes
// /metrics and /debug/asm/attribution throughout — must produce results
// reflect.DeepEqual to a bare run. The simulation is deterministic, so
// any divergence means observation leaked into the simulated machines.
func TestClusterObservationDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run integration test")
	}

	bare := testCluster(t)
	clusterRound(t, bare)

	observed := testCluster(t)
	tracePath := filepath.Join(t.TempDir(), "cluster.trace.json")
	tr, err := asmsim.OpenTracer(tracePath, asmsim.TracerConfig{SampleEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := asmsim.NewTelemetryRegistry()
	observed.SetTelemetry(asmsim.TelemetryOptions{Metrics: reg, Trace: tr})

	srv := asmsim.NewDashServer()
	defer srv.Close()
	srv.SetRegistry(reg)
	mux := http.NewServeMux()
	srv.Mount(mux)
	srv.MountMetrics(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The scraper sweeps at least once and keeps sweeping until the
	// round ends.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, path := range []string{"/metrics", "/debug/asm/attribution"} {
				if _, err := httpGet(ts.URL + path); err != nil {
					scrapeErr = err
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	clusterRound(t, observed)
	close(done)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bare.Machines(), observed.Machines()) {
		t.Fatalf("observation perturbed machine results:\nbare:     %+v\nobserved: %+v",
			bare.Machines(), observed.Machines())
	}
	if !reflect.DeepEqual(bare.Migrations, observed.Migrations) {
		t.Fatalf("observation perturbed migrations:\nbare:     %+v\nobserved: %+v",
			bare.Migrations, observed.Migrations)
	}

	// The registry really carried the cluster's telemetry: a final
	// scrape parses strictly and counts both rounds.
	body, err := httpGet(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples["cluster_rounds_total"]; got != 2 {
		t.Fatalf("cluster_rounds_total = %v (keys = %d), want 2", got, len(samples))
	}

	// And the trace is one valid cluster trace holding every machine's
	// app set before and after the migration.
	nt, err := evtrace.LoadNodeTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Check(); err != nil {
		t.Fatal(err)
	}
	if sets := evtrace.SplitByApp(nt.Quanta); len(sets) != 4 {
		t.Fatalf("cluster trace holds %d app sets, want 4", len(sets))
	}
}

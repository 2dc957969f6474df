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
// stack attached — per-node trace capture, a shared telemetry registry,
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
	for _, n := range nodes {
		if err := n.Trace.Close(); err != nil {
			t.Fatal(err)
		}
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

	// And the per-node traces still merge into one valid cluster trace
	// whose node blocks are bit-identical (MergeFiles validates
	// verbatim-copy invariants; WriteTrace is exercised through tracesum
	// in make trace-merge-smoke).
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

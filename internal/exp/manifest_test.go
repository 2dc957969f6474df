package exp

import (
	"context"
	"strings"
	"testing"

	"asmsim/internal/workload"
)

// TestManifestNamesEveryLostMixOnce: a sweep with injected per-item
// failures must produce a partial table whose failure list names every
// lost mix exactly once — no duplicates, no silently dropped losses, no
// phantom entries for mixes that completed. The expected loss set is
// computed independently from the loss function, which is deterministic
// in (seed, mix name).
func TestManifestNamesEveryLostMixOnce(t *testing.T) {
	sc := tinyScale()
	sc.failItem = lossy(11, 0.5)
	mixes := workload.RandomMixes(workload.SPEC(), 2, 8, sc.Seed)

	// Replay the loss function to know exactly which mixes the sweep
	// must lose.
	oracle := lossy(11, 0.5)
	wantLost := map[string]bool{}
	for _, mix := range mixes {
		if err := oracle(mix.String()); err != nil {
			wantLost[mix.String()] = true
		}
	}
	if len(wantLost) == 0 || len(wantLost) == len(mixes) {
		t.Fatalf("degenerate loss set %d/%d; pick another seed", len(wantLost), len(mixes))
	}

	samples, m, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != len(mixes) || m.Completed != len(mixes)-len(wantLost) {
		t.Fatalf("manifest %d/%d, want %d/%d", m.Completed, m.Total,
			len(mixes)-len(wantLost), len(mixes))
	}
	gotLost := map[string]int{}
	for _, f := range m.Failures {
		gotLost[f.Name]++
	}
	for name := range wantLost {
		if gotLost[name] != 1 {
			t.Fatalf("lost mix %q appears %d times in the manifest, want exactly once\nfailures: %v",
				name, gotLost[name], m.Failures)
		}
	}
	for name, n := range gotLost {
		if !wantLost[name] {
			t.Fatalf("manifest names %q (%d times) but the loss function does not fail it", name, n)
		}
	}
	if len(samples) == 0 {
		t.Fatal("surviving mixes produced no samples")
	}

	// The attached table must be partial and carry one line per loss.
	tb := &Table{ID: "test"}
	attach(tb, m)
	if !tb.Partial() {
		t.Fatal("table with losses not marked partial")
	}
	if len(tb.Failures) != len(wantLost) {
		t.Fatalf("%d table failure lines for %d lost mixes: %v", len(tb.Failures), len(wantLost), tb.Failures)
	}
	for name := range wantLost {
		found := 0
		for _, line := range tb.Failures {
			if strings.Contains(line, name) {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("lost mix %q named %d times in table failures %v", name, found, tb.Failures)
		}
	}
}

package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// pollBudgetCtx cancels itself after a global budget of Err polls,
// shared across however many goroutines poll it. Because the simulator
// polls the context every few thousand cycles (sim.RunQuantaCtx), the
// budget deterministically expires mid-sweep — and mid-quantum — with
// no timers or sleeps, regardless of machine speed.
type pollBudgetCtx struct {
	context.Context
	polls  atomic.Int64
	budget int64
}

func (c *pollBudgetCtx) Err() error {
	if c.polls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

// TestSweepCancelledMidFlight runs a real parallel sweep and cancels it
// mid-flight: the sweep fails with the context error and returns no
// samples, not those of the mixes that finished before the cancellation,
// and claims no mix after it.
func TestSweepCancelledMidFlight(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // fixed worker count keeps the poll-budget math valid
	defer runtime.GOMAXPROCS(prev)

	sc := tinyScale()
	reg := telemetry.NewRegistry()
	sc.Telemetry.Metrics = reg
	mixes := workload.RandomMixes(workload.SPEC(), 2, 12, sc.Seed)
	// Each item polls ~50 times (2 quanta of 200k cycles / 8192-cycle
	// stride). A 250-poll budget lets the first worker wave complete,
	// kills the second wave mid-quantum, and leaves the rest unclaimed.
	ctx := &pollBudgetCtx{Context: context.Background(), budget: 250}
	samples, err := accuracySweep(ctx, sc.BaseConfig(), mixes, estAll, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if samples != nil {
		t.Fatalf("%d samples from a cancelled sweep", len(samples))
	}
	m := reg.Scope("exp")
	done, failed := m.Counter("items_done").Value(), m.Counter("items_failed").Value()
	if done == 0 || failed == 0 {
		t.Fatalf("%d items done, %d failed: the budget did not expire mid-sweep", done, failed)
	}
	if done+failed >= uint64(len(mixes)) {
		t.Fatalf("every mix ran (%d done, %d failed): the sweep kept claiming after the cancellation", done, failed)
	}
}

// TestSweepFailsOnLowestPoisonMix: a 12-mix sweep on parallel workers
// with poison mixes at indexes 3 and 7 fails, every time, with the
// index-3 mix's error and no samples.
func TestSweepFailsOnLowestPoisonMix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sc := tinyScale()
	mixes := workload.RandomMixes(workload.SPEC(), 2, 12, sc.Seed)
	mixes[3] = workload.Mix{Names: []string{"poison3", "namd"}}
	mixes[7] = workload.Mix{Names: []string{"poison7", "namd"}}
	for run := 0; run < 5; run++ {
		samples, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
		if err == nil || !strings.Contains(err.Error(), "poison3") || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("run %d: err %v, want the index-3 mix's panic", run, err)
		}
		if samples != nil {
			t.Fatalf("run %d: %d samples from a failed sweep", run, len(samples))
		}
	}
}

// TestForEachConcurrentPanicCancelStorm stress-mixes panics, failures
// and cancellation on parallel workers; under the race detector this
// locks the claim and error bookkeeping's thread safety. Item 1, the
// lowest failing item, is always claimed and run, so its panic is the
// sweep's error.
func TestForEachConcurrentPanicCancelStorm(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	err := forEach(ctx, 64,
		func(i int) string { return fmt.Sprintf("item-%d", i) },
		telemetry.Options{},
		func(i int) error {
			if started.Add(1) == 20 {
				cancel() // cancellation races in-flight panics and failures
			}
			switch i % 4 {
			case 1:
				panic(fmt.Sprintf("boom-%d", i))
			case 2:
				return errors.New("plain failure")
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "item 1 (item-1) panicked: boom-1") {
		t.Fatalf("err %v, want item 1's panic", err)
	}
	if n := started.Load(); n == 64 {
		t.Fatal("every item ran after an early failure")
	}
}

// TestForEachCompleteWhenLastItemCancels: ctx ends inside the last item,
// after every other item has been claimed. Every item ran, so the sweep
// is complete, not cancelled, whatever the worker count. Item 0 returns
// only once item 1 has cancelled, so its worker reaches its next claim
// with ctx already done.
func TestForEachCompleteWhenLastItemCancels(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lastDone := make(chan struct{})
	var ran atomic.Int64
	err := forEach(ctx, 2, nil, telemetry.Options{}, func(i int) error {
		ran.Add(1)
		if i == 1 {
			cancel()
			close(lastDone)
		} else {
			<-lastDone
		}
		return nil
	})
	if err != nil || ran.Load() != 2 {
		t.Fatalf("err=%v ran=%d, want a complete sweep of 2", err, ran.Load())
	}
}

// TestSweepSeriesBounded runs sweeps over disjoint mixes into one
// registry: the set of exp.* series the first sweep creates is the set
// every later sweep ends with, so a long-lived process that runs sweep
// after sweep over new mixes (asmserve's cold jobs) holds a bounded
// number of series and exports a bounded /metrics.
func TestSweepSeriesBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := Scale{Telemetry: telemetry.Options{Metrics: reg}}
	names := func() []string {
		var out []string
		for _, m := range reg.Snapshot() {
			if strings.HasPrefix(m.Name, "exp.") {
				out = append(out, m.Name)
			}
		}
		return out
	}
	var first []string
	for s, apps := range [][]string{{"mcf", "lbm"}, {"astar", "milc"}, {"namd", "gcc"}} {
		mixes := []workload.Mix{{Names: apps}, {Names: []string{apps[1], apps[0]}}}
		_, err := sweepMixes(context.Background(), sim.Config{}, mixes, sc, func(sim.Config, workload.Mix) (int, error) {
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = names()
			continue
		}
		if got := names(); !slices.Equal(got, first) {
			t.Fatalf("sweep %d ends with exp.* series %v, the first sweep with %v", s, got, first)
		}
	}
	if !slices.Contains(first, "exp.item") {
		t.Fatalf("exp.* series %v lack the item wall-time histogram", first)
	}
}

package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

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

// TestManifestUnderConcurrentCancellation runs a real parallel sweep
// and cancels it mid-flight: the manifest must classify every mix into
// exactly one of completed / failed-with-the-context-error / never
// started, with samples only from completed mixes. The sequential
// cancellation tests cannot see the races this exercises (concurrent
// failure appends, workers observing cancellation while items die).
func TestManifestUnderConcurrentCancellation(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // fixed worker count keeps the poll-budget math valid
	defer runtime.GOMAXPROCS(prev)

	sc := tinyScale()
	sc.WarmupQuanta, sc.MeasuredQuanta = 1, 1
	pool := workload.SPEC()
	mixes := workload.RandomMixes(pool, 2, 12, sc.Seed)
	// Each item polls ~50 times (2 quanta of 200k cycles / 8192-cycle
	// stride). A 250-poll budget lets the first worker wave complete,
	// kills the second wave mid-quantum, and leaves the rest unclaimed.
	ctx := &pollBudgetCtx{Context: context.Background(), budget: 250}
	samples, m, err := accuracySweep(ctx, sc.BaseConfig(), mixes, estAll, sc)
	if err != nil {
		t.Fatalf("sweep with completed items must not error: %v", err)
	}
	if !m.Cancelled {
		t.Fatal("manifest does not record the cancellation")
	}
	if m.Ok() {
		t.Fatal("cancelled manifest reports Ok")
	}
	if m.Completed == 0 {
		t.Fatal("no mix completed before the budget expired")
	}
	if len(m.Failures) == 0 {
		t.Fatal("no in-flight mix was cancelled mid-run")
	}
	if m.Completed+len(m.Failures) >= m.Total {
		t.Fatalf("every mix started (completed %d + failed %d of %d); cancellation admitted no shedding",
			m.Completed, len(m.Failures), m.Total)
	}
	seen := map[int]bool{}
	for _, f := range m.Failures {
		if seen[f.Index] {
			t.Fatalf("mix %d failed twice: %v", f.Index, m.Failures)
		}
		seen[f.Index] = true
		if !errors.Is(f.Err, context.Canceled) {
			t.Fatalf("failure %v is not the context error", f)
		}
	}
	// Samples must come only from mixes the manifest counts as complete:
	// a cancelled mix's partial samples leaking into the pool would bias
	// every downstream average. Sample totals prove it — every completed
	// 2-app mix contributes exactly MeasuredQuanta*2 samples, so any
	// partial leak breaks the count.
	perMix := sc.MeasuredQuanta * 2
	if len(samples) != m.Completed*perMix {
		t.Fatalf("%d samples from %d completed mixes (want %d): cancelled mixes leaked partial samples",
			len(samples), m.Completed, m.Completed*perMix)
	}
}

// TestManifestUnderConcurrentPanic: poison mixes panic inside their
// sweep items while healthy mixes run on parallel workers; every panic
// lands in the manifest exactly once, ordered, without poisoning any
// healthy mix's samples.
func TestManifestUnderConcurrentPanic(t *testing.T) {
	sc := tinyScale()
	healthy := workload.RandomMixes(workload.SPEC(), 2, 9, sc.Seed)
	var mixes []workload.Mix
	poison := map[int]bool{}
	for i, mx := range healthy {
		if i%3 == 1 { // interleave poison between healthy items
			mixes = append(mixes, workload.Mix{Names: []string{"nonesuch", "namd"}})
			poison[len(mixes)-1] = true
		}
		mixes = append(mixes, mx)
	}
	samples, m, err := accuracySweep(context.Background(), sc.BaseConfig(), mixes, estAll, sc)
	if err != nil {
		t.Fatalf("sweep with survivors must not error: %v", err)
	}
	if m.Cancelled {
		t.Fatal("spurious cancellation")
	}
	if m.Completed != len(mixes)-len(poison) || len(m.Failures) != len(poison) {
		t.Fatalf("manifest %+v, want %d completed / %d failed", m, len(mixes)-len(poison), len(poison))
	}
	for i, f := range m.Failures {
		if !poison[f.Index] {
			t.Fatalf("failure at non-poison index %d: %v", f.Index, f)
		}
		if !strings.Contains(f.Err.Error(), "panicked") {
			t.Fatalf("failure %v does not record the panic", f)
		}
		if i > 0 && m.Failures[i-1].Index >= f.Index {
			t.Fatalf("failures not sorted: %v", m.Failures)
		}
	}
	for _, s := range samples {
		if s.Bench == "nonesuch" {
			t.Fatal("sample from a panicked mix")
		}
	}
}

// TestForEachConcurrentPanicCancelStorm stress-mixes panics, failures
// and cancellation on parallel workers; under the race detector this
// locks the manifest bookkeeping's thread safety.
func TestForEachConcurrentPanicCancelStorm(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	fails, cancelled := forEach(ctx, 64,
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
	n := int(started.Load())
	if !cancelled && n < 64 {
		t.Fatalf("stopped at %d items without recording cancellation", n)
	}
	seen := map[int]bool{}
	for k, f := range fails {
		if seen[f.Index] {
			t.Fatalf("item %d recorded twice", f.Index)
		}
		seen[f.Index] = true
		if k > 0 && fails[k-1].Index >= f.Index {
			t.Fatalf("failures not sorted: %v", fails)
		}
		switch f.Index % 4 {
		case 1:
			if !strings.Contains(f.Err.Error(), "panic") {
				t.Fatalf("panic item %d recorded as %v", f.Index, f.Err)
			}
		case 2:
			if !strings.Contains(f.Err.Error(), "plain failure") {
				t.Fatalf("failing item %d recorded as %v", f.Index, f.Err)
			}
		default:
			t.Fatalf("healthy item %d recorded as failed: %v", f.Index, f.Err)
		}
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
	fails, cancelled := forEach(ctx, 2, nil, telemetry.Options{}, func(i int) error {
		ran.Add(1)
		if i == 1 {
			cancel()
			close(lastDone)
		} else {
			<-lastDone
		}
		return nil
	})
	if cancelled || len(fails) != 0 || ran.Load() != 2 {
		t.Fatalf("cancelled=%v fails=%v ran=%d, want a complete sweep of 2", cancelled, fails, ran.Load())
	}
}

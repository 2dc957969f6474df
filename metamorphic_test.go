package asmsim

import (
	"sync"
	"testing"
)

// actualRecorder collects every record's actual slowdown by quantum.
type actualRecorder struct {
	mu     sync.Mutex
	actual map[int][]float64
}

func (r *actualRecorder) Record(rec *QuantumRecord) {
	r.mu.Lock()
	r.actual[rec.Quantum] = append(r.actual[rec.Quantum], rec.Actual)
	r.mu.Unlock()
}

func (r *actualRecorder) Close() error { return nil }

// TestIdleCoRunnersLeaveActualSlowdownAtOne is a metamorphic oracle that
// shares no code with the estimators: four compute-bound apps whose
// working sets fit the shared cache do not slow each other down, so once
// the warm-up quantum has paid the cold misses, every measured quantum's
// ground-truth slowdown is exactly 1. The mix runs at the asmsim CLI's
// defaults (1 M-cycle quanta, 1 warm-up, 4 measured).
func TestIdleCoRunnersLeaveActualSlowdownAtOne(t *testing.T) {
	rec := &actualRecorder{actual: map[int][]float64{}}
	apps := []string{"povray", "calculix", "ep", "tonto"}
	cfg := DefaultConfig()
	cfg.Quantum = 1_000_000
	cfg.ATSSampledSets = 64
	_, err := Run(cfg, apps, RunOptions{
		WarmupQuanta: 1,
		Quanta:       4,
		GroundTruth:  true,
		Telemetry:    TelemetryOptions{Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.actual) != 5 {
		t.Fatalf("recorded %d quanta, want 1 warm-up + 4 measured", len(rec.actual))
	}
	for q := 1; q <= 4; q++ {
		if len(rec.actual[q]) != len(apps) {
			t.Fatalf("quantum %d: %d records, want %d", q, len(rec.actual[q]), len(apps))
		}
		for a, v := range rec.actual[q] {
			if v != 1 {
				t.Errorf("quantum %d app %d: actual slowdown %v, want exactly 1", q, a, v)
			}
		}
	}
}

package main

import (
	"io"
	"testing"
)

func report(entries ...Benchmark) *Report { return &Report{Benchmarks: entries} }

func bench(name string, ns, bytes, allocs float64) Benchmark {
	return Benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns, "B/op": bytes, "allocs/op": allocs}}
}

// TestCompareGatesHardOnDeterministicMetrics: ns/op beyond tolerance only
// warns; B/op and allocs/op beyond tolerance fail; improvements, changes
// within tolerance and unmatched benchmarks do neither. Names pair up
// across GOMAXPROCS suffixes, and -count duplicates collapse to the
// fastest sample.
func TestCompareGatesHardOnDeterministicMetrics(t *testing.T) {
	base := report(
		bench("BenchmarkSteady", 100, 1000, 10),
		bench("BenchmarkSlower", 100, 1000, 10),
		bench("BenchmarkFatter", 100, 1000, 10),
		bench("BenchmarkMoreAllocs", 100, 1000, 0),
		bench("BenchmarkSub/povray", 100, 1000, 10),
		bench("BenchmarkGone", 100, 1000, 10),
	)
	fresh := report(
		bench("BenchmarkSteady-2", 900, 1100, 11), // noisy sample, within tolerance in B/op and allocs/op
		bench("BenchmarkSteady-2", 105, 1100, 11),
		bench("BenchmarkSlower-2", 150, 500, 5),
		bench("BenchmarkFatter-2", 80, 1200, 10),
		bench("BenchmarkMoreAllocs-2", 100, 1000, 1),
		bench("BenchmarkSub/povray-2", 100, 1000, 10),
		bench("BenchmarkNew-2", 1, 1, 1),
	)
	matched, slower, failed := compare(io.Discard, base, fresh, 0.15)
	if matched != 5 || slower != 1 || failed != 2 {
		t.Fatalf("matched=%d slower=%d failed=%d, want 5, 1 (Slower) and 2 (Fatter's B/op, MoreAllocs' allocs/op)",
			matched, slower, failed)
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkRunQuanta":                   "BenchmarkRunQuanta",
		"BenchmarkRunQuanta-8":                 "BenchmarkRunQuanta",
		"BenchmarkAloneCurveExtend/povray-16":  "BenchmarkAloneCurveExtend/povray",
		"BenchmarkAloneCurveExtend/two-part":   "BenchmarkAloneCurveExtend/two-part",
		"BenchmarkAloneCurveExtend/two-part-2": "BenchmarkAloneCurveExtend/two-part",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

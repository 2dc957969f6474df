package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 5, 9.99, 10, 49.9, 25} {
		h.Add(x)
	}
	want := []uint64{3, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 3)
	h.Add(-5)
	h.Add(1000)
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Counts[0] != 1 || h.Counts[2] != 1 {
		t.Fatal("clamped samples must land in edge buckets")
	}
	if h.N() != 2 {
		t.Fatalf("n=%d", h.N())
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		h := NewHistogram(-100, 7, 30)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			h.Add(x)
		}
		if len(xs) == 0 {
			return true
		}
		sum := 0.0
		for _, f := range h.Fractions() {
			sum += f
		}
		return almostEqual(sum, 1, 1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(2)
	h.Add(4)
	if !almostEqual(h.Mean(), 3, 1e-9) {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	med := h.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Fatalf("median %v", med)
	}
	if h.Quantile(1.0) < 90 {
		t.Fatalf("p100 %v", h.Quantile(1.0))
	}
}

func TestHistogramPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero width")
		}
	}()
	NewHistogram(0, 0, 5)
}

func TestBasicAggregates(t *testing.T) {
	xs := []float64{2, 4, 8}
	if Mean(xs) != 14.0/3 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Max(xs) != 8 {
		t.Fatal("max")
	}
	hm := HarmonicMean(xs)
	if !almostEqual(hm, 3/(0.5+0.25+0.125), 1e-9) {
		t.Fatalf("harmonic %v", hm)
	}
}

func TestAggregatesEmpty(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Max(nil) != 0 || HarmonicMean(nil) != 0 {
		t.Fatal("empty-slice aggregates should be 0")
	}
}

func TestHarmonicMeanIgnoresNonPositive(t *testing.T) {
	if HarmonicMean([]float64{-1, 0, 2}) != 2 {
		t.Fatalf("got %v", HarmonicMean([]float64{-1, 0, 2}))
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	if !almostEqual(Pearson(xs, ys), 1, 1e-9) {
		t.Fatalf("got %v", Pearson(xs, ys))
	}
	neg := []float64{40, 30, 20, 10}
	if !almostEqual(Pearson(xs, neg), -1, 1e-9) {
		t.Fatalf("got %v", Pearson(xs, neg))
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("short slices")
	}
	if Pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Fatal("zero variance")
	}
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("length mismatch")
	}
}

func TestPearsonRange(t *testing.T) {
	err := quick.Check(func(xs, ys []float64) bool {
		for _, x := range append(append([]float64{}, xs...), ys...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	if !almostEqual(TotalVariation(p, q), 0.5, 1e-9) {
		t.Fatalf("got %v", TotalVariation(p, q))
	}
	if TotalVariation(p, p) != 0 {
		t.Fatal("identical distributions must have distance 0")
	}
}

func TestTotalVariationSymmetric(t *testing.T) {
	err := quick.Check(func(p, q []float64) bool {
		for _, x := range append(append([]float64{}, p...), q...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		return almostEqual(TotalVariation(p, q), TotalVariation(q, p), 1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

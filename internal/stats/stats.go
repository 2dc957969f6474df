// Package stats provides the small statistical building blocks used across
// the simulator: means and standard deviations, fixed-bucket
// histograms for latency and error distributions, and simple aggregation
// helpers for experiment tables.
package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width-bucket histogram over [Min, Min+Width*len(buckets)).
// Samples outside the range are clamped into the first or last bucket, and
// counted in Under/Over so clamping is visible.
type Histogram struct {
	Min     float64
	Width   float64
	Counts  []uint64
	Under   uint64
	Over    uint64
	samples uint64
	sum     float64
}

// NewHistogram returns a histogram with n buckets of the given width
// starting at min. It panics on a non-positive width or bucket count.
func NewHistogram(min, width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("stats: histogram needs positive width and bucket count")
	}
	return &Histogram{Min: min, Width: width, Counts: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.samples++
	h.sum += x
	i := int(math.Floor((x - h.Min) / h.Width))
	switch {
	case i < 0:
		h.Under++
		i = 0
	case i >= len(h.Counts):
		h.Over++
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// N returns the total number of samples.
func (h *Histogram) N() uint64 { return h.samples }

// Mean returns the mean of all samples (including clamped ones, at their
// true values).
func (h *Histogram) Mean() float64 {
	if h.samples == 0 {
		return 0
	}
	return h.sum / float64(h.samples)
}

// Fractions returns the fraction of samples in each bucket.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.samples == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.samples)
	}
	return out
}

// BucketLabel renders a human-readable range label for bucket i.
func (h *Histogram) BucketLabel(i int) string {
	lo := h.Min + float64(i)*h.Width
	return fmt.Sprintf("[%g,%g)", lo, lo+h.Width)
}

// Quantile returns the approximate q-quantile (0 <= q <= 1) using bucket
// midpoints.
func (h *Histogram) Quantile(q float64) float64 {
	if h.samples == 0 {
		return 0
	}
	target := q * float64(h.samples)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= target {
			return h.Min + (float64(i)+0.5)*h.Width
		}
	}
	return h.Min + (float64(len(h.Counts))-0.5)*h.Width
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when the slices differ in length, are shorter than 2, or
// either has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TotalVariation returns the total variation distance between two
// discrete distributions given as fraction slices (0.5 * L1 distance).
// Slices of different lengths compare up to the shorter length with the
// remainder counted fully.
func TotalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	d := 0.0
	for i := 0; i < n; i++ {
		d += math.Abs(p[i] - q[i])
	}
	for i := n; i < len(p); i++ {
		d += p[i]
	}
	for i := n; i < len(q); i++ {
		d += q[i]
	}
	return d / 2
}

// HarmonicMean returns the harmonic mean of xs, ignoring non-positive
// entries; it returns 0 when no positive entries exist.
func HarmonicMean(xs []float64) float64 {
	s := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += 1 / x
			n++
		}
	}
	if n == 0 || s == 0 {
		return 0
	}
	return float64(n) / s
}

package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed histogram geometry. Values below histSub land in exact
// unit buckets; above it each power-of-two range is split into histSub
// linear sub-buckets, so the relative width of any bucket is at most
// 1/histSub (6.25%) and a bucket-midpoint quantile estimate is within
// ~3.2% of the true value regardless of magnitude. 16 + 60*16 buckets
// cover the full uint64 range in 7.6 KiB per histogram.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = histSub + (64-histSubBits)*histSub
)

// Histogram is a lock-free log-bucketed value distribution: the record
// path is a handful of atomic adds (no locks, no allocation), quantiles
// are estimated from the bucket counts at snapshot time. Values are
// unitless uint64s; the service layer records nanoseconds. The zero
// value is ready; a nil *Histogram is a no-op, like every other metric
// handle in this package.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	p := uint(bits.Len64(v)) - 1 // >= histSubBits
	sub := (v >> (p - histSubBits)) & (histSub - 1)
	return histSub + int(p-histSubBits)*histSub + int(sub)
}

// histBucketBounds returns a bucket's value range [low, low+width).
func histBucketBounds(i int) (low, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	g := uint(i-histSub) / histSub
	sub := uint64(i-histSub) % histSub
	p := g + histSubBits
	width = 1 << (p - histSubBits)
	return (1 << p) + sub*width, width
}

// Record adds one observation. Zero-allocation and lock-free: one
// bucket add, a count add, a sum add, and a bounded max CAS.
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records a duration in nanoseconds (negative durations clamp
// to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Start returns a stop function that observes the elapsed time when
// called. A nil histogram returns a no-op stop.
func (h *Histogram) Start() func() {
	if h == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { h.Observe(time.Since(begin)) }
}

// Count returns the number of recorded observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest recorded value (0 on nil).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-quantile (q in [0, 1]) from the live bucket
// counts; see HistogramSnapshot.Quantile for the estimation rule.
func (h *Histogram) Quantile(q float64) uint64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Snapshot copies the histogram's current state into an immutable,
// mergeable value. Concurrent Records during the copy may land in
// either the snapshot or the next one; each bucket read is atomic, so
// the snapshot never contains torn counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, suitable
// for quantile estimation.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// Quantile estimates the q-quantile (q in [0, 1]): the value at rank
// ceil(q*Count), interpolated linearly within its bucket and clamped to
// the observed Max. Returns 0 for an empty snapshot.
func (s *HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if rank < cum+n {
			low, width := histBucketBounds(i)
			// Linear interpolation at the rank's position within the bucket.
			v := low + (width*(rank-cum)+width/2)/n
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += n
	}
	return s.Max
}

// Mean returns the average recorded value (0 when empty).
func (s *HistogramSnapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

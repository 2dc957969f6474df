package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none); xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder are the tail percentiles the harness is willing to report,
// each with the share of samples that lies beyond it.
var tailLadder = []struct{ p, beyond float64 }{
	{99.9, 0.001}, {99, 0.01}, {95, 0.05}, {90, 0.10}, {75, 0.25},
}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten of the n samples beyond it, or 50 when none has. A
// percentile with fewer samples above it is one or two slow runs, not a
// property of the system.
func tailPercentile(n int) float64 {
	for _, t := range tailLadder {
		if float64(n)*t.beyond >= 10-1e-9 {
			return t.p
		}
	}
	return 50
}

// splitmix is the harness's seeded generator: small, and the same on
// every Go release, so a seed names the same inputs for good.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](rnd *splitmix, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rnd.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// digest accumulates a workload's simulated results into one sha256, so
// two runs (or two commits) compare their outputs exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// Package rng provides small deterministic pseudo-random number generators.
//
// Every stochastic decision in the simulator (workload address streams,
// epoch assignment, workload-mix construction) draws from a seeded Stream,
// so that a run is a pure function of its configuration. The generator is
// SplitMix64, which is fast, has full 64-bit state, and passes BigCrush for
// the purposes of workload synthesis.
package rng

// Stream is a deterministic SplitMix64 random number stream.
//
// The zero value is a valid stream seeded with 0; prefer New to derive
// decorrelated streams from a name and seed.
type Stream struct {
	state uint64
}

// New returns a stream seeded from the given seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// NewNamed derives a stream from a seed and a name, so that independent
// subsystems can obtain decorrelated streams from one master seed.
func NewNamed(seed uint64, name string) *Stream {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return New(seed ^ h)
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// BoolThreshold precomputes the integer acceptance threshold for
// BoolFast. BoolFast(BoolThreshold(p)) consumes one Uint64 draw and
// answers exactly like Bool(p), without the per-call float division —
// for hot paths that test the same probability millions of times.
func BoolThreshold(p float64) uint64 {
	t := p * (1 << 53) // exact: scaling by a power of two
	if t <= 0 {
		return 0
	}
	th := uint64(t)
	if float64(th) < t {
		// Non-integer threshold: for integer x, x < t ⟺ x < ceil(t).
		th++
	}
	return th
}

// BoolFast returns true with the probability encoded by threshold
// (obtained from BoolThreshold), advancing the stream exactly like Bool.
func (s *Stream) BoolFast(threshold uint64) bool {
	return s.Uint64()>>11 < threshold
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (s *Stream) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. All-zero or negative weights fall back to
// uniform choice. It panics on an empty slice.
func (s *Stream) Pick(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Pick with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

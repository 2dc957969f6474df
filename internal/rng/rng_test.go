package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestNamedStreamsDecorrelated(t *testing.T) {
	a := NewNamed(7, "alpha")
	b := NewNamed(7, "beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("named streams collided %d times", same)
	}
}

func TestNamedDeterminism(t *testing.T) {
	if NewNamed(3, "x").Uint64() != NewNamed(3, "x").Uint64() {
		t.Fatal("NewNamed is not deterministic")
	}
}

func TestIntnBounds(t *testing.T) {
	err := quick.Check(func(seed uint64, n int) bool {
		if n <= 0 {
			n = 1 - n%1000
			if n <= 0 {
				n = 1
			}
		}
		v := New(seed).Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) fraction %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	for _, n := range []int{1, 2, 5, 64} {
		p := make([]int, n)
		s.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm produced invalid permutation %v", p)
			}
			seen[v] = true
		}
	}
}

func TestPermShuffles(t *testing.T) {
	s := New(19)
	p := make([]int, 32)
	identity := 0
	for trial := 0; trial < 100; trial++ {
		s.Perm(p)
		fixed := 0
		for i, v := range p {
			if i == v {
				fixed++
			}
		}
		if fixed == len(p) {
			identity++
		}
	}
	if identity > 0 {
		t.Fatalf("Perm returned the identity %d/100 times", identity)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	s := New(23)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Pick(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("Pick chose zero-weight index %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("Pick ratio %v, want ~3", ratio)
	}
}

func TestPickUniformFallback(t *testing.T) {
	s := New(29)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.Pick([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("uniform fallback skewed: index %d got %d/40000", i, c)
		}
	}
}

func TestPickPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick(nil) did not panic")
		}
	}()
	New(1).Pick(nil)
}

func TestUint64nBounds(t *testing.T) {
	err := quick.Check(func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		return New(seed).Uint64n(n) < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoolFastMatchesBool(t *testing.T) {
	ps := []float64{0, 0.001, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.3, 0.5, 0.7, 0.85, 0.999, 1, 1.5, -0.1}
	for _, p := range ps {
		th := BoolThreshold(p)
		a := New(12345)
		b := New(12345)
		for i := 0; i < 100_000; i++ {
			want := a.Bool(p)
			got := b.BoolFast(th)
			if got != want {
				t.Fatalf("p=%v draw %d: BoolFast=%v Bool=%v", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: streams diverged", p)
		}
	}
}

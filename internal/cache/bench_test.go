package cache

import (
	"testing"

	"asmsim/internal/rng"
)

func BenchmarkCacheLookupHit(b *testing.B) {
	c := New(2048, 16, 4)
	for line := uint64(0); line < 1024; line++ {
		c.Insert(0, line, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(0, uint64(i)&1023, false)
	}
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := New(2048, 16, 4)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(int(uint(i)%4), r.Uint64n(1<<22), false)
	}
}

func BenchmarkCacheInsertPartitioned(b *testing.B) {
	c := New(2048, 16, 4)
	c.SetPartition([]int{4, 4, 4, 4})
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(int(uint(i)%4), r.Uint64n(1<<22), false)
	}
}

func BenchmarkATSAccessFull(b *testing.B) {
	a := NewAuxTagStore(2048, 16, 0)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(r.Uint64n(1 << 22))
	}
}

func BenchmarkATSAccessSampled(b *testing.B) {
	a := NewAuxTagStore(2048, 16, 64)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(r.Uint64n(1 << 22))
	}
}

func BenchmarkPollutionFilter(b *testing.B) {
	f := NewPollutionFilter(32768, 4)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := r.Uint64()
		f.Add(x)
		f.Test(x ^ 1)
	}
}

func BenchmarkMSHR(b *testing.B) {
	m := NewMSHR(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i) & 15
		if !m.Allocate(line, uint64(i), false) {
			m.Complete(line)
		}
	}
}

// BenchmarkCacheNew measures building the paper's shared L2 tag array
// (2 MB, 16-way): every simulated system, alone replica included, pays it.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(2048, 16, 4)
	}
}

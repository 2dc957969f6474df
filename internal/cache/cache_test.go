package cache

import (
	"testing"
	"testing/quick"

	"asmsim/internal/rng"
)

func TestLookupMissThenHit(t *testing.T) {
	c := New(16, 4, 2)
	if c.Lookup(0, 0x100, false) {
		t.Fatal("cold cache must miss")
	}
	c.Insert(0, 0x100, false)
	if !c.Lookup(0, 0x100, false) {
		t.Fatal("inserted line must hit")
	}
	if c.Hits(0) != 1 || c.Misses(0) != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(0), c.Misses(0))
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(1, 2, 1) // one set, two ways
	c.Insert(0, 0, false)
	c.Insert(0, 1, false)
	c.Lookup(0, 0, false) // 0 becomes MRU, 1 is LRU
	v := c.Insert(0, 2, false)
	if !v.Valid || v.LineAddr != 1 {
		t.Fatalf("expected LRU victim line 1, got %+v", v)
	}
	if !c.Peek(0) || c.Peek(1) || !c.Peek(2) {
		t.Fatal("wrong post-eviction contents")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New(1, 2, 1)
	c.Insert(0, 0, false)
	c.Insert(0, 1, false)
	v := c.Insert(0, 0, true) // refresh, mark dirty, no eviction
	if v.Valid {
		t.Fatalf("re-insert must not evict, got %+v", v)
	}
	v = c.Insert(0, 2, false) // LRU is now line 1
	if v.LineAddr != 1 {
		t.Fatalf("victim %d, want 1", v.LineAddr)
	}
	if !v.Valid {
		t.Fatal("line 1 was valid")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := New(1, 1, 1)
	c.Insert(0, 7, true)
	v := c.Insert(0, 8, false)
	if !v.Valid || !v.Dirty || v.LineAddr != 7 {
		t.Fatalf("dirty victim not reported: %+v", v)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New(1, 1, 1)
	c.Insert(0, 7, false)
	c.Lookup(0, 7, true) // write hit dirties the line
	v := c.Insert(0, 8, false)
	if !v.Dirty {
		t.Fatal("write hit must dirty the line")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := New(1, 2, 1)
	c.Insert(0, 0, false)
	c.Insert(0, 1, false) // LRU: 0
	c.Peek(0)             // must NOT promote 0
	v := c.Insert(0, 2, false)
	if v.LineAddr != 0 {
		t.Fatalf("Peek changed LRU state: victim %d", v.LineAddr)
	}
}

func TestSetIndexing(t *testing.T) {
	c := New(16, 1, 1)
	// Lines 0 and 16 map to set 0; they must evict each other.
	c.Insert(0, 0, false)
	v := c.Insert(0, 16, false)
	if !v.Valid || v.LineAddr != 0 {
		t.Fatalf("conflict miss expected, got %+v", v)
	}
	// Line 1 maps to set 1 and must not conflict.
	if v := c.Insert(0, 1, false); v.Valid {
		t.Fatalf("no conflict expected, got %+v", v)
	}
}

func TestOccupancyTracking(t *testing.T) {
	c := New(4, 2, 2)
	c.Insert(0, 0, false)
	c.Insert(0, 1, false)
	c.Insert(1, 2, false)
	if c.Occupancy(0) != 2 || c.Occupancy(1) != 1 {
		t.Fatalf("occupancy %d/%d", c.Occupancy(0), c.Occupancy(1))
	}
}

func TestPartitionConvergesToQuota(t *testing.T) {
	c := New(8, 4, 2) // 32 lines total
	// Fill the cache with app 0.
	for line := uint64(0); line < 64; line++ {
		if !c.Lookup(0, line, false) {
			c.Insert(0, line, false)
		}
	}
	// Partition: app 0 gets 1 way, app 1 gets 3 ways; app 1 streams.
	c.SetPartition([]int{1, 3})
	for line := uint64(1000); line < 1200; line++ {
		if !c.Lookup(1, line, false) {
			c.Insert(1, line, false)
		}
	}
	// App 0 should have been whittled down to ~1 way per set (8 lines).
	if c.Occupancy(0) > 8 {
		t.Fatalf("app 0 occupies %d lines, quota allows 8", c.Occupancy(0))
	}
	if c.Occupancy(1) < 20 {
		t.Fatalf("app 1 occupies only %d lines", c.Occupancy(1))
	}
}

func TestPartitionOwnLRUWhenAtQuota(t *testing.T) {
	c := New(1, 4, 2)
	c.SetPartition([]int{2, 2})
	c.Insert(0, 0, false)
	c.Insert(0, 1, false)
	c.Insert(1, 2, false)
	c.Insert(1, 3, false)
	// App 0 at quota: inserting evicts its own LRU (line 0), not app 1's.
	v := c.Insert(0, 4, false)
	if v.App != 0 || v.LineAddr != 0 {
		t.Fatalf("expected app 0's own LRU line 0 evicted, got %+v", v)
	}
}

func TestPartitionValidation(t *testing.T) {
	c := New(8, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation must panic")
		}
	}()
	c.SetPartition([]int{3, 2})
}

func TestPartitionRemoval(t *testing.T) {
	c := New(8, 4, 2)
	c.SetPartition([]int{2, 2})
	c.SetPartition(nil)
	if c.Partition() != nil {
		t.Fatal("partition not removed")
	}
}

func TestResetStats(t *testing.T) {
	c := New(4, 2, 1)
	c.Lookup(0, 0, false)
	c.Insert(0, 0, false)
	c.ResetStats()
	if c.Hits(0) != 0 || c.Misses(0) != 0 {
		t.Fatal("stats not reset")
	}
	if c.Occupancy(0) != 1 {
		t.Fatal("occupancy must survive ResetStats")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count must panic")
		}
	}()
	New(12, 4, 1)
}

// TestCacheDeterministic checks that the tag array is a pure function of
// its access sequence.
func TestCacheDeterministic(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		run := func() ([]bool, uint64) {
			c := New(8, 2, 1)
			r := rng.New(seed)
			var hits []bool
			for i := 0; i < 200; i++ {
				line := r.Uint64n(64)
				h := c.Lookup(0, line, false)
				if !h {
					c.Insert(0, line, false)
				}
				hits = append(hits, h)
			}
			return hits, c.Hits(0)
		}
		h1, n1 := run()
		h2, n2 := run()
		if n1 != n2 {
			return false
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewInitialState pins what construction promises every set: invalid
// lines (zero words) under the identity LRU stack.
func TestNewInitialState(t *testing.T) {
	const sets, ways = 8, 6
	c := New(sets, ways, 2)
	for i, word := range c.lines {
		if word != 0 {
			t.Fatalf("line %d starts as %#x", i, word)
		}
		if got, want := c.lru[i], uint8(i%ways); got != want {
			t.Fatalf("set %d stack position %d holds way %d, want %d", i/ways, i%ways, got, want)
		}
	}
}

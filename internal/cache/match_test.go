package cache

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// opSource draws the geometry and operations of one reference comparison:
// a seeded *rand.Rand for the table tests, fuzz bytes for the fuzz target.
type opSource interface {
	Intn(n int) int
}

// byteSource reads draws from fuzz input, answering 0 once it runs dry.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	if n > 256 && len(s.b) > 1 {
		v = v<<8 | int(s.b[1])
		s.b = s.b[1:]
	}
	s.b = s.b[1:]
	return v % n
}

// linePool draws the line addresses one comparison touches: a handful of
// sets (always set 0 and the last set) crossed with tags that sit next to
// every field boundary of the tag word — small tags, 2^k−1 and 2^k for a
// random k, and the largest tags a line address below 2^58 can carry —
// so a trial sees hits, conflicts and evictions of every kind. The pool
// always holds 2^58−1, the largest line address of all.
func linePool(src opSource, numSets, n int) []uint64 {
	setBits := bits.TrailingZeros(uint(numSets))
	tagBits := lineAddrBits - setBits
	maxTag := uint64(1)<<tagBits - 1
	pool := []uint64{1<<lineAddrBits - 1}
	for len(pool) < n {
		set := uint64(0)
		switch src.Intn(3) {
		case 0:
			set = uint64(numSets - 1)
		case 1:
			set = uint64(src.Intn(numSets))
		}
		var tag uint64
		switch k := uint(src.Intn(tagBits)); src.Intn(5) {
		case 0, 1:
			tag = uint64(src.Intn(8))
		case 2:
			tag = 1<<k - 1
		case 3:
			tag = 1 << k
		default:
			tag = maxTag - uint64(src.Intn(2))
		}
		pool = append(pool, tag<<setBits|set)
	}
	return pool
}

// checkCacheAgainstReference builds a Cache and the struct-per-line
// reference with one drawn geometry (≤ 64 owners, the reference's limit),
// runs ops drawn operations on both, and fails on the first difference in
// a return value, a victim, a partition or a counter.
func checkCacheAgainstReference(t testing.TB, src opSource, ops int) {
	numSets := 1 << src.Intn(12)
	ways := 1 + src.Intn(16)
	numApps := 1 + src.Intn(64)
	for CheckGeometry(numSets, ways, numApps) != nil {
		numApps /= 2
	}
	c, ref := New(numSets, ways, numApps), newRefCache(numSets, ways, numApps)
	pool := linePool(src, numSets, 2*ways+src.Intn(4*ways))
	for op := 0; op < ops; op++ {
		app, line, flag := src.Intn(numApps), pool[src.Intn(len(pool))], src.Intn(3) == 0
		switch k := src.Intn(100); {
		case k < 35:
			if got, want := c.Lookup(app, line, flag), ref.Lookup(app, line, flag); got != want {
				t.Fatalf("%d×%d/%d op %d: Lookup(%d, %#x, %v) = %v, reference %v", numSets, ways, numApps, op, app, line, flag, got, want)
			}
		case k < 80:
			if got, want := c.Insert(app, line, flag), ref.Insert(app, line, flag); got != want {
				t.Fatalf("%d×%d/%d op %d: Insert(%d, %#x, %v) = %+v, reference %+v", numSets, ways, numApps, op, app, line, flag, got, want)
			}
		case k < 90:
			if got, want := c.Peek(line), ref.Peek(line); got != want {
				t.Fatalf("%d×%d/%d op %d: Peek(%#x) = %v, reference %v", numSets, ways, numApps, op, line, got, want)
			}
		case k < 97:
			var alloc []int
			if src.Intn(4) != 0 {
				alloc = make([]int, numApps)
				for left := ways; left > 0 && src.Intn(4) != 0; left-- {
					alloc[src.Intn(numApps)]++
				}
			}
			c.SetPartition(alloc)
			ref.SetPartition(alloc)
			if !slices.Equal(c.Partition(), ref.Partition()) {
				t.Fatalf("op %d: partition %v, reference %v", op, c.Partition(), ref.Partition())
			}
		default:
			c.ResetStats()
			ref.ResetStats()
		}
		for a := 0; a < numApps; a++ {
			if c.Occupancy(a) != ref.Occupancy(a) || c.Hits(a) != ref.Hits(a) || c.Misses(a) != ref.Misses(a) {
				t.Fatalf("%d×%d/%d op %d: app %d occupancy/hits/misses %d/%d/%d, reference %d/%d/%d", numSets, ways, numApps, op, a,
					c.Occupancy(a), c.Hits(a), c.Misses(a), ref.Occupancy(a), ref.Hits(a), ref.Misses(a))
			}
		}
	}
}

// TestCacheMatchesReference holds the packed tag array to the
// struct-per-line cache it replaced over seeded random geometries,
// owners, dirty flags, partitions and line addresses up to 2^58−1.
func TestCacheMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		checkCacheAgainstReference(t, rand.New(rand.NewSource(int64(trial)+1)), 3000)
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference driven by fuzz
// bytes: the input picks the geometry, the line pool and every operation.
func FuzzCacheMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCacheAgainstReference(t, &byteSource{b: data}, len(data)/4)
	})
}

// TestATSMatchesReference holds the packed auxiliary tag store to the
// reference with its separate valid slab, full and set-sampled, over
// seeded random Access/Install/ResetStats sequences.
func TestATSMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1))
		numSets := 1 << r.Intn(12)
		ways := 1 + r.Intn(16)
		sampledSets := 0
		if r.Intn(2) == 0 {
			sampledSets = numSets >> r.Intn(bits.TrailingZeros(uint(numSets))+1)
		}
		a, ref := NewAuxTagStore(numSets, ways, sampledSets), newRefAuxTagStore(numSets, ways, sampledSets)
		if a.Sampled() != ref.Sampled() || a.SampledSets() != ref.SampledSets() {
			t.Fatalf("%d×%d sampling %d: sampled %v/%d sets, reference %v/%d", numSets, ways, sampledSets,
				a.Sampled(), a.SampledSets(), ref.Sampled(), ref.SampledSets())
		}
		pool := linePool(r, numSets, 2*ways+r.Intn(4*ways))
		for op := 0; op < 3000; op++ {
			line := pool[r.Intn(len(pool))]
			switch k := r.Intn(100); {
			case k < 75:
				s, h, p := a.Access(line)
				rs, rh, rp := ref.Access(line)
				if s != rs || h != rh || p != rp {
					t.Fatalf("trial %d op %d: Access(%#x) = %v %v %d, reference %v %v %d", trial, op, line, s, h, p, rs, rh, rp)
				}
			case k < 97:
				a.Install(line)
				ref.Install(line)
			default:
				a.ResetStats()
				ref.ResetStats()
			}
			if a.Probes() != ref.Probes() || a.Hits() != ref.Hits() || !slices.Equal(a.PositionHits(), ref.PositionHits()) {
				t.Fatalf("trial %d op %d: probes/hits %d/%d positions %v, reference %d/%d %v", trial, op,
					a.Probes(), a.Hits(), a.PositionHits(), ref.Probes(), ref.Hits(), ref.PositionHits())
			}
		}
	}
}

// TestPartitionPast64Owners: partitioned victim selection counts a set's
// owners for every application the cache was built for, not just the
// first 64. Seventy apps stream one line each into set 0 under a
// partition that gives the last app the whole set: each insertion evicts
// the set's LRU line, whose owner is over its zero quota.
func TestPartitionPast64Owners(t *testing.T) {
	const sets, ways, apps = 64, 4, 70
	c := New(sets, ways, apps)
	alloc := make([]int, apps)
	alloc[apps-1] = ways
	c.SetPartition(alloc)
	var v Victim
	for app := 0; app < apps; app++ {
		v = c.Insert(app, uint64(app)*sets, false)
	}
	if !v.Valid || v.App != apps-ways-1 || v.LineAddr != (apps-ways-1)*sets {
		t.Fatalf("last insertion evicted %+v, want app %d's line", v, apps-ways-1)
	}
	for app := 0; app < apps; app++ {
		want := uint64(0)
		if app >= apps-ways {
			want = 1
		}
		if got := c.Occupancy(app); got != want {
			t.Fatalf("app %d occupies %d lines, want %d", app, got, want)
		}
	}
}

// TestCheckGeometry pins the tag-word rule: the owner field may be at most
// 4 bits wider than the set index, so a line address below 2^58 always
// fits beside it.
func TestCheckGeometry(t *testing.T) {
	for _, g := range []struct {
		sets, ways, apps int
		ok               bool
	}{
		{2048, 16, 16, true},
		{1, 4, 16, true},
		{1, 4, 17, false},
		{64, 4, 70, true},
		{64, 4, 1 << 10, true},
		{64, 4, 1<<10 + 1, false},
		{0, 4, 1, false},
		{12, 4, 1, false},
		{16, 0, 1, false},
	} {
		if err := CheckGeometry(g.sets, g.ways, g.apps); (err == nil) != g.ok {
			t.Errorf("CheckGeometry(%d, %d, %d) = %v, want ok=%v", g.sets, g.ways, g.apps, err, g.ok)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on a geometry CheckGeometry rejects")
		}
	}()
	New(1, 4, 70)
}

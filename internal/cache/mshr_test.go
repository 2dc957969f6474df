package cache

import (
	"math/rand"
	"slices"
	"testing"
)

func TestMSHRAllocateAndComplete(t *testing.T) {
	m := NewMSHR(2)
	if !m.Allocate(0x10, 1, false) {
		t.Fatal("allocate failed on empty file")
	}
	if m.Lookup(0x10) == nil {
		t.Fatal("entry not found")
	}
	e := m.Complete(0x10)
	if e == nil || len(e.Waiters) != 1 || e.Waiters[0] != 1 {
		t.Fatalf("bad completion %+v", e)
	}
	if m.Lookup(0x10) != nil {
		t.Fatal("entry not removed")
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x10, 1, false)
	if !m.Merge(0x10, 2, true) {
		t.Fatal("merge failed")
	}
	if m.Merge(0x99, 3, false) {
		t.Fatal("merge to absent line must fail")
	}
	e := m.Complete(0x10)
	if len(e.Waiters) != 2 || !e.Dirty {
		t.Fatalf("merge lost state: %+v", e)
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, 0, false)
	m.Allocate(2, 0, false)
	if !m.Full() {
		t.Fatal("file should be full")
	}
	if m.Allocate(3, 0, false) {
		t.Fatal("allocate beyond capacity must fail")
	}
	m.Complete(1)
	if m.Full() || m.Outstanding() != 1 {
		t.Fatal("completion must free a slot")
	}
}

func TestMSHRDuplicateAllocate(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1, 0, false)
	if m.Allocate(1, 1, false) {
		t.Fatal("second allocate for same line must fail (use Merge)")
	}
}

func TestMSHRCompleteAbsent(t *testing.T) {
	m := NewMSHR(4)
	if m.Complete(123) != nil {
		t.Fatal("completing absent line must return nil")
	}
}

func TestMSHRReset(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1, 0, false)
	m.Reset()
	if m.Outstanding() != 0 || m.Lookup(1) != nil {
		t.Fatal("reset failed")
	}
}

func TestMSHRPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewMSHR(0)
}

// mshrOracle is the map-and-fresh-slices MSHR file the fixed array
// replaced, kept as the reference the array is checked against.
type mshrOracle struct {
	entries map[uint64]*MSHREntry
	cap     int
}

func (o *mshrOracle) allocate(line, waiter uint64, dirty bool) bool {
	if len(o.entries) >= o.cap || o.entries[line] != nil {
		return false
	}
	o.entries[line] = &MSHREntry{LineAddr: line, Waiters: []uint64{waiter}, Dirty: dirty}
	return true
}

func (o *mshrOracle) merge(line, waiter uint64, dirty bool) bool {
	e := o.entries[line]
	if e == nil {
		return false
	}
	e.Waiters = append(e.Waiters, waiter)
	e.Dirty = e.Dirty || dirty
	return true
}

func (o *mshrOracle) complete(line uint64) *MSHREntry {
	e := o.entries[line]
	delete(o.entries, line)
	return e
}

// TestMSHRMatchesMapOracle drives the array-backed file and the map-based
// reference with the same random allocate/merge/complete/reset sequences
// over a small line space (so merges, duplicates, full files and absent
// completions all occur) and requires identical answers, waiter order
// included. A completed entry must also survive the allocations and
// merges that follow it, up to the next Complete.
func TestMSHRMatchesMapOracle(t *testing.T) {
	sameEntry := func(got, want *MSHREntry) bool {
		if got == nil || want == nil {
			return got == nil && want == nil
		}
		return got.LineAddr == want.LineAddr && got.Dirty == want.Dirty && slices.Equal(got.Waiters, want.Waiters)
	}
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1))
		capacity := 1 + r.Intn(16)
		m := NewMSHR(capacity)
		o := &mshrOracle{entries: map[uint64]*MSHREntry{}, cap: capacity}
		var held, heldWant *MSHREntry // the last completed entry
		for op := 0; op < 4000; op++ {
			line := uint64(r.Intn(2 * capacity))
			waiter, dirty := uint64(op), r.Intn(3) == 0
			switch k := r.Intn(100); {
			case k < 40:
				if got, want := m.Allocate(line, waiter, dirty), o.allocate(line, waiter, dirty); got != want {
					t.Fatalf("trial %d op %d: Allocate(%d) = %v, oracle %v", trial, op, line, got, want)
				}
			case k < 70:
				if got, want := m.Merge(line, waiter, dirty), o.merge(line, waiter, dirty); got != want {
					t.Fatalf("trial %d op %d: Merge(%d) = %v, oracle %v", trial, op, line, got, want)
				}
			case k < 99:
				held, heldWant = m.Complete(line), o.complete(line)
			default:
				m.Reset()
				clear(o.entries)
				held, heldWant = nil, nil
			}
			if !sameEntry(held, heldWant) {
				t.Fatalf("trial %d op %d: last completed entry is %+v, oracle %+v", trial, op, held, heldWant)
			}
			if m.Outstanding() != len(o.entries) || m.Full() != (len(o.entries) >= capacity) {
				t.Fatalf("trial %d op %d: outstanding %d full %v, oracle holds %d of %d",
					trial, op, m.Outstanding(), m.Full(), len(o.entries), capacity)
			}
			for l := uint64(0); l < uint64(2*capacity); l++ {
				if !sameEntry(m.Lookup(l), o.entries[l]) {
					t.Fatalf("trial %d op %d: Lookup(%d) = %+v, oracle %+v", trial, op, l, m.Lookup(l), o.entries[l])
				}
			}
		}
	}
}

// TestMSHRSteadyStateAllocatesNothing: once every slot has held its
// deepest waiter list, allocate/merge/complete cycles reuse the slots'
// backing arrays.
func TestMSHRSteadyStateAllocatesNothing(t *testing.T) {
	const capacity = 16
	m := NewMSHR(capacity)
	cycle := func() {
		for l := uint64(0); l < capacity; l++ {
			m.Allocate(l, l, false)
			m.Merge(l, l+100, true)
			m.Merge(l, l+200, false)
		}
		for l := uint64(0); l < capacity; l++ {
			if e := m.Complete(l); e == nil || len(e.Waiters) != 3 {
				t.Fatalf("line %d completed as %+v", l, e)
			}
		}
	}
	cycle() // grows every slot's waiter list; the spare slot rotates in too
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("steady-state MSHR cycle allocates %v objects, want 0", a)
	}
}

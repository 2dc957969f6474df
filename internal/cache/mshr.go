package cache

// MSHR is a miss-status holding register file: it tracks outstanding line
// fills and merges secondary misses to the same line into the primary
// miss, bounding each requester's memory-level parallelism by its entry
// count. Waiters are opaque tokens owned by the caller (the sim package
// uses instruction-window slot ids).
//
// The file is a fixed array searched linearly, like the small CAM it
// models (16 entries by default): the live entries are packed at the
// front, and a slot's Waiters backing array is reused by its next
// occupant, so steady-state operation allocates nothing.
type MSHR struct {
	slots []MSHREntry // slots[:live] are the outstanding misses
	live  int
}

// MSHREntry is one outstanding miss.
type MSHREntry struct {
	LineAddr uint64
	Waiters  []uint64
	Dirty    bool // a merged write wants the line dirty on fill
}

// NewMSHR returns an MSHR file with the given number of entries.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR needs positive capacity")
	}
	// One slot beyond capacity: Complete parks the entry it returns just
	// past the live ones, which must not collide with a full file.
	return &MSHR{slots: make([]MSHREntry, capacity+1)}
}

// Full reports whether a new primary miss can NOT be allocated.
func (m *MSHR) Full() bool { return m.live >= len(m.slots)-1 }

// Outstanding returns the number of in-flight primary misses.
func (m *MSHR) Outstanding() int { return m.live }

// find returns the live slot index holding lineAddr, or -1.
func (m *MSHR) find(lineAddr uint64) int {
	for i := range m.slots[:m.live] {
		if m.slots[i].LineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// Lookup returns the entry for lineAddr, or nil. The pointer is valid
// until the next Complete or Reset.
func (m *MSHR) Lookup(lineAddr uint64) *MSHREntry {
	if i := m.find(lineAddr); i >= 0 {
		return &m.slots[i]
	}
	return nil
}

// Allocate creates an entry for a primary miss. It returns false when the
// file is full or the line already has an entry (use Merge for that).
func (m *MSHR) Allocate(lineAddr uint64, waiter uint64, dirty bool) bool {
	if m.Full() || m.find(lineAddr) >= 0 {
		return false
	}
	e := &m.slots[m.live]
	m.live++
	e.LineAddr, e.Dirty = lineAddr, dirty
	e.Waiters = append(e.Waiters[:0], waiter)
	return true
}

// Merge attaches a secondary miss to an existing entry. It returns false
// when no entry exists for the line.
func (m *MSHR) Merge(lineAddr uint64, waiter uint64, dirty bool) bool {
	i := m.find(lineAddr)
	if i < 0 {
		return false
	}
	e := &m.slots[i]
	e.Waiters = append(e.Waiters, waiter)
	e.Dirty = e.Dirty || dirty
	return true
}

// Complete removes and returns the entry for a filled line, or nil if the
// line had no entry. The returned entry (and its Waiters) stays valid
// until the next Complete or Reset: Allocate and Merge in between — a
// woken core re-issuing from inside the caller's waiter loop — never
// touch it.
func (m *MSHR) Complete(lineAddr uint64) *MSHREntry {
	i := m.find(lineAddr)
	if i < 0 {
		return nil
	}
	// Rotate: the last live entry fills the hole, the spare slot's stale
	// entry (whose Waiters array the next Allocate reuses) takes its place,
	// and the completed entry parks in the spare slot, where no Allocate can
	// reach it: capacity live entries use slots[:capacity] at most.
	m.live--
	spare := len(m.slots) - 1
	m.slots[i], m.slots[m.live], m.slots[spare] = m.slots[m.live], m.slots[spare], m.slots[i]
	return &m.slots[spare]
}

// Reset drops all entries.
func (m *MSHR) Reset() { m.live = 0 }

package sim

// event is a scheduled L2-hit completion.
type event struct {
	cycle uint64
	app   int32
	line  uint64
}

// eventHeap is a small binary min-heap ordered by cycle. It avoids
// container/heap's interface boxing in the simulator's hot path.
type eventHeap struct {
	items []event
}

// push inserts an event.
func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].cycle <= h.items[i].cycle {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

// popDue removes and returns the earliest event if it is due at now.
func (h *eventHeap) popDue(now uint64) (event, bool) {
	if len(h.items) == 0 || h.items[0].cycle > now {
		return event{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top, true
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].cycle < h.items[smallest].cycle {
			smallest = l
		}
		if r < n && h.items[r].cycle < h.items[smallest].cycle {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// peek returns the cycle of the earliest pending event without removing
// it, and false when the heap is empty. The returned cycle is exactly the
// first cycle at which popDue can yield an event — the property the
// advance loop's horizon depends on.
func (h *eventHeap) peek() (uint64, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].cycle, true
}

// len returns the number of pending events.
func (h *eventHeap) len() int { return len(h.items) }

package slo

import (
	"encoding/json"
	"fmt"
)

// State is an alert's position in the deterministic lifecycle
// inactive → pending → firing → resolved. Transitions depend only on
// the evaluated condition stream, never on wall-clock time, so replaying
// the same event stream reproduces the same transition log bit-for-bit.
type State int

const (
	// Inactive: the condition does not hold.
	Inactive State = iota
	// Pending: the condition holds but has not persisted long enough to
	// page. Every alert passes through Pending — there is no
	// inactive→firing edge.
	Pending
	// Firing: the condition persisted for PendingTicks consecutive
	// evaluations beyond entry into Pending.
	Firing
	// Resolved: a firing alert saw ResolveTicks consecutive clear
	// evaluations. Resolved lasts exactly one tick, then decays to
	// Inactive (or re-enters Pending if the condition returns).
	Resolved
)

var stateNames = [...]string{"inactive", "pending", "firing", "resolved"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalJSON renders the state as its lowercase name so wire formats
// (alerts.json, SSE frames) are self-describing.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// machine is the per-SLO alert state machine.
type machine struct {
	state        State
	held         int // consecutive cond ticks while Pending
	clear        int // consecutive !cond ticks while Firing
	pendingTicks int
	resolveTicks int
}

// step advances the machine one evaluation tick and returns the edge it
// took (from == to when nothing changed).
func (m *machine) step(cond bool) (from, to State) {
	from = m.state
	switch m.state {
	case Inactive:
		if cond {
			m.state = Pending
			m.held = 0
		}
	case Pending:
		if !cond {
			m.state = Inactive
		} else {
			m.held++
			if m.held >= m.pendingTicks {
				m.state = Firing
				m.clear = 0
			}
		}
	case Firing:
		if cond {
			m.clear = 0
		} else {
			m.clear++
			if m.clear >= m.resolveTicks {
				m.state = Resolved
			}
		}
	case Resolved:
		if cond {
			m.state = Pending
			m.held = 0
		} else {
			m.state = Inactive
		}
	}
	return from, m.state
}

// eventRing remembers the most recent good/bad outcomes, enough to cover
// the largest configured window. Burn rates recount over the suffix —
// windows are tens of ticks, so a linear pass beats maintaining one
// running counter per window, and the sorted-oracle test pins the
// arithmetic.
type eventRing struct {
	buf  []bool // true = bad event
	next int
	n    int
}

func newEventRing(capacity int) *eventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &eventRing{buf: make([]bool, capacity)}
}

// push appends one outcome, evicting the oldest once full.
func (r *eventRing) push(bad bool) {
	r.buf[r.next] = bad
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// badIn counts bad outcomes among the last min(w, seen) events and
// returns that count with the number of events actually considered.
func (r *eventRing) badIn(w int) (bad, seen int) {
	if w > r.n {
		w = r.n
	}
	start := r.next - w
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < w; i++ {
		if r.buf[(start+i)%len(r.buf)] {
			bad++
		}
	}
	return bad, w
}

// burn returns the burn rate over the trailing w events: the observed
// bad fraction divided by the budgeted bad fraction (1 − objective). A
// burn of 1 spends the budget exactly at the allowed pace; an empty
// window burns 0.
func (r *eventRing) burn(w int, objective float64) float64 {
	bad, seen := r.badIn(w)
	if seen == 0 {
		return 0
	}
	return (float64(bad) / float64(seen)) / (1 - objective)
}

// burnCondition evaluates the multi-window rules: the condition holds
// when any pair sees both its long- and short-window burn at or above
// its threshold. The returned rate is the strongest evidence across
// pairs — max over pairs of min(long burn, short burn) — which is what
// the slo_burn_rate gauge and alert details report.
func (r *eventRing) burnCondition(windows []WindowPair, objective float64) (cond bool, rate float64) {
	for _, w := range windows {
		bl := r.burn(w.Long, objective)
		bs := r.burn(w.Short, objective)
		pair := bl
		if bs < pair {
			pair = bs
		}
		if pair > rate {
			rate = pair
		}
		if bl >= w.Burn && bs >= w.Burn {
			cond = true
		}
	}
	return cond, rate
}

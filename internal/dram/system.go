package dram

// System is the full main-memory subsystem: one controller per channel
// with fine-grained channel interleaving. It fans requests out by address
// and aggregates the per-app accounting across channels.
type System struct {
	timing   Timing
	geom     Geometry
	channels []*Controller
	numApps  int
	served   []uint64 // UpdateTCM's per-channel bandwidth scratch
}

// PolicyFactory builds one scheduler instance per channel (policies such
// as PARBS and TCM keep per-controller state).
type PolicyFactory func(channel int) Scheduler

// NewSystem returns a memory system with geom.Channels controllers.
func NewSystem(t Timing, g Geometry, numApps int, factory PolicyFactory) *System {
	s := &System{timing: t, geom: g, numApps: numApps, served: make([]uint64, numApps)}
	for ch := 0; ch < g.Channels; ch++ {
		s.channels = append(s.channels, NewController(t, g, ch, numApps, factory(ch)))
	}
	return s
}

// Timing returns the DRAM timing parameters.
func (s *System) Timing() Timing { return s.timing }

// Geometry returns the DRAM organization.
func (s *System) Geometry() Geometry { return s.geom }

// Channels returns the per-channel controllers.
func (s *System) Channels() []*Controller { return s.channels }

// ChannelFor returns the controller that owns lineAddr.
func (s *System) ChannelFor(lineAddr uint64) *Controller {
	ch, _, _ := s.geom.Map(lineAddr)
	return s.channels[ch]
}

// Enqueue routes a request to its channel. It returns false when that
// channel's queue is full.
func (s *System) Enqueue(r *Request, now uint64) bool {
	return s.ChannelFor(r.LineAddr).Enqueue(r, now)
}

// CanEnqueue reports whether a request for lineAddr would be accepted.
func (s *System) CanEnqueue(lineAddr uint64, write bool) bool {
	return s.ChannelFor(lineAddr).CanEnqueue(write)
}

// Tick advances every controller by one DRAM cycle. The caller invokes it
// once every Timing.CPUPerDRAM CPU cycles.
func (s *System) Tick(now uint64) {
	for _, c := range s.channels {
		c.Tick(now)
	}
}

// NextEventCycle returns the earliest CPU cycle at which any channel's
// Tick can change observable state, given that every channel's next tick
// is at nextTick (channels tick in lockstep). Ticks strictly before the
// returned cycle are pure countdown ticks on every channel; NoEventCycle
// means the whole memory system is quiescent.
func (s *System) NextEventCycle(nextTick uint64) uint64 {
	next := uint64(NoEventCycle)
	for _, c := range s.channels {
		if t := c.NextEventCycle(nextTick); t < next {
			next = t
		}
	}
	return next
}

// SkipTicks advances every channel over n pure countdown ticks starting
// at nextTick in closed form (see Controller.SkipTicks).
func (s *System) SkipTicks(nextTick uint64, n uint64) {
	for _, c := range s.channels {
		c.SkipTicks(nextTick, n)
	}
}

// SetPriorityApp installs the epoch highest-priority app on every channel.
func (s *System) SetPriorityApp(app int) {
	for _, c := range s.channels {
		c.SetPriorityApp(app)
	}
}

// QueueingCycles sums Section 4.3 queueing cycles for app over channels.
func (s *System) QueueingCycles(app int) uint64 {
	var q uint64
	for _, c := range s.channels {
		q += c.QueueingCycles(app)
	}
	return q
}

// InterferenceCycles sums STFM-style interference cycles for app.
func (s *System) InterferenceCycles(app int) float64 {
	var q float64
	for _, c := range s.channels {
		q += c.InterferenceCycles(app)
	}
	return q
}

// ReadsDone sums completed reads for app.
func (s *System) ReadsDone(app int) uint64 {
	var n uint64
	for _, c := range s.channels {
		n += c.ReadsDone(app)
	}
	return n
}

// OutstandingReads sums queued reads for app across channels.
func (s *System) OutstandingReads(app int) int {
	n := 0
	for _, c := range s.channels {
		n += c.OutstandingReads(app)
	}
	return n
}

// EnableAttribution turns on the per-cause interference ledger on every
// channel (Controller.EnableAttribution).
func (s *System) EnableAttribution() {
	for _, c := range s.channels {
		c.EnableAttribution()
	}
}

// AddAttributionInto adds every channel's attribution ledger into the
// first numApps columns of dst (victim-major; see
// Controller.AddAttributionInto).
func (s *System) AddAttributionInto(dst [][]uint64) {
	for _, c := range s.channels {
		c.AddAttributionInto(dst)
	}
}

// ResetQuantumStats clears per-quantum accounting on every channel.
func (s *System) ResetQuantumStats() {
	for _, c := range s.channels {
		c.ResetQuantumStats()
	}
}

// UpdateTCM pushes fresh clustering inputs to every TCM channel policy
// and clears the policy-window counters. It is a no-op for other policies.
func (s *System) UpdateTCM(mpki []float64) {
	for _, c := range s.channels {
		t, ok := c.Policy().(*TCM)
		if !ok {
			continue
		}
		for a := range s.served {
			s.served[a] = c.ServedReads(a)
		}
		t.UpdateClustering(mpki, s.served)
		c.ResetWindowStats()
	}
}

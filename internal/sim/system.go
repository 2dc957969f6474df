package sim

import (
	"context"
	"fmt"
	"time"

	"asmsim/internal/cache"
	"asmsim/internal/cpu"
	"asmsim/internal/dram"
	"asmsim/internal/evtrace"
	"asmsim/internal/prefetch"
	"asmsim/internal/rng"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// noWaiter marks an MSHR waiter that needs no core callback (store misses
// and merged writes).
const noWaiter = ^uint64(0)

// missTxn tracks one shared-cache miss from detection to fill. Txns are
// recycled through the owning System's free list (newTxn), so the
// steady-state miss path allocates nothing.
type missTxn struct {
	app      int
	line     uint64
	start    uint64 // cycle the miss was detected
	dirty    bool   // fill L1 line dirty (store miss)
	pfCont   bool   // pollution filter classified it a contention miss
	atsCont  bool   // auxiliary tag store classified it a contention miss
	sampled  bool   // mapped to a sampled ATS set
	prefetch bool
	traced   bool // the tracer sampled this miss's lifecycle span
	req      dram.Request
	// done is req.Done, built once per object: it runs missDone and then
	// returns the txn to the free list.
	done func(*dram.Request, uint64)
}

// AppSource names one application and builds its instruction stream.
// New must return a fresh source that replays the identical stream on
// every call (the alone-run ground truth depends on exact replay); slot is
// the core the stream will run on and selects its address-space base.
// SourcesFromSpecs builds every production source from a workload
// generator; tests substitute hand-built streams through newSystem.
type AppSource struct {
	Name string
	New  func(slot int) cpu.InstrSource

	// Key identifies the instruction stream's content: two sources with
	// equal keys must replay identical streams (the (spec, seed) pair —
	// the slot only offsets the address-space base, which a single-core
	// replica never shares with anyone). The alone-run curve cache shares
	// one ground-truth curve per Key across every mix the stream appears
	// in, and rejects a source without one.
	Key string
}

// SourcesFromSpecs adapts workload specs into replayable sources.
func SourcesFromSpecs(specs []workload.Spec, seed uint64) []AppSource {
	apps := make([]AppSource, len(specs))
	for i, sp := range specs {
		sp := sp
		apps[i] = AppSource{
			Name: sp.Name,
			New: func(slot int) cpu.InstrSource {
				return workload.NewGenerator(sp, slot, seed)
			},
			Key: fmt.Sprintf("spec{%+v} seed=%d", sp, seed),
		}
	}
	return apps
}

// QuantumListener is invoked at the end of every quantum with that
// quantum's snapshot.
type QuantumListener func(s *System, st *QuantumStats)

// MissEvent describes one completed demand miss for observers.
type MissEvent struct {
	App           int
	Latency       uint64 // detection-to-fill service time in cycles
	InterfCycles  uint64 // per-request attributed interference cycles
	Sampled       bool   // mapped to a sampled auxiliary-tag-store set
	PFContention  bool   // FST's pollution filter called it a contention miss
	ATSContention bool   // the auxiliary tag store called it a contention miss
}

// MissListener observes every completed demand miss (used by the Figure 6
// latency-distribution experiment).
type MissListener func(ev MissEvent)

// System is one simulated machine running one application per core.
type System struct {
	cfg   Config
	apps  []AppSource
	cycle uint64

	// Invariants and boundary counters of the advance loop.
	ncores     int
	epochOn    bool
	cpuPerDRAM uint64 // CPU cycles per DRAM tick
	nextTick   uint64 // cycle of the next DRAM tick not yet applied
	nextEpoch  uint64 // cycle of the next epoch boundary
	quantumEnd uint64 // last cycle of the current quantum
	wbLimit    int    // writeback backpressure threshold
	end        uint64 // the advance loop's bound: it stops before this cycle
	peers      uint64 // peerBound of the core the loop is advancing
	coreNext   uint64 // the earliest core NextCycle after the last step

	// dramNext caches the memory system's NextEventCycle(nextTick), stale
	// after a tick, an enqueue or a policy update (memDirty).
	dramNext uint64
	memDirty bool

	cores []*cpu.Core

	l1     []*cache.Cache
	l1mshr []*cache.MSHR
	l2     *cache.Cache
	ats    []*cache.AuxTagStore     // nil on a lean system (see newSystem)
	pf     []*cache.PollutionFilter // nil on a lean system
	pref   []*prefetch.Stride

	mem *dram.System

	// Epoch machinery (Section 4.2).
	epochOwner   int
	epochWeights []float64
	epochRnd     *rng.Stream

	// Live per-app outstanding transaction counts, and the cycle up to
	// which each app's Table-1 integrals have been charged for them (see
	// settle).
	outHits []int
	outMiss []int
	settled []uint64
	// hitDue[app] rings the completion cycles of app's outHits[app] L2 hits
	// from hitHead[app], in due order; each holds one of its MSHRs.
	hitDue  [][]uint64
	hitHead []int

	// Quantum accumulators.
	qs           QuantumStats
	prevRetired  []uint64
	prevMemStall []uint64
	quantum      int

	retryQ     []*missTxn
	pendingWB  []*dram.Request // writebacks awaiting queue space
	events     eventHeap
	inFlightPf map[uint64]bool
	pfLines    map[uint64]bool // prefetched, not yet referenced lines

	// Free lists of miss transactions and posted-write requests. They are
	// plain slices owned by this System (no sync.Pool): a run is
	// single-threaded and must not depend on what another run released.
	freeTxns   []*missTxn
	freeWrites []*dram.Request
	writeDone  func(*dram.Request, uint64) // recycles a completed write
	mpki       []float64                   // endQuantum's TCM clustering input

	// Jumps of the advance loop over cycles it did not visit (see advance):
	// how many, and the cycles they crossed.
	skipWindows uint64
	skipCycles  uint64

	listeners    []QuantumListener
	missListener MissListener

	// progress, when set (SlowdownTracker.Follow), is called from
	// RunQuantaCtx's chunk loop every progressStride cycles so alone-run
	// ground truth can be computed alongside the run instead of after it.
	// It observes and never steers: the simulation is the same with or
	// without it.
	progress     func()
	nextProgress uint64

	// Event tracing and attribution (all nil/zero when disabled). The hot
	// per-cycle loop is untouched: they cost one nil check per demand
	// miss, two per L2 insert, and the attribution merge at quantum
	// boundaries. Each quantum's snapshot goes to the tracer and to
	// attribution, whichever are set.
	tracer      *evtrace.Tracer
	attribution func(evtrace.QuantumAttribution)
	tracerNames []string
	memRaw      [][]uint64     // reused quantum merge buffer (victim-major); nil until enabled
	cacheAttrib [][]float64    // cache interference matrix this quantum
	evictors    map[uint64]int // line -> app whose L2 insert evicted it

	totalEpochs uint64

	// Telemetry handles, resolved once by setTelemetry. All nil (no-op)
	// by default; every touch happens at quantum boundaries only, so the
	// disabled path costs a handful of nil checks per quantum.
	telQuanta      *telemetry.Counter
	telCycles      *telemetry.Counter
	telRetired     *telemetry.Counter
	telL2Accesses  *telemetry.Counter
	telL2Misses    *telemetry.Counter
	telEpochs      *telemetry.Counter
	telHeapDepth   *telemetry.Gauge
	telRetryDepth  *telemetry.Gauge
	telPendingWB   *telemetry.Gauge
	telInFlightPf  *telemetry.Gauge
	telQuantumHist *telemetry.Histogram
	quantumStart   time.Time
	prevEpochs     uint64

	telSkipWindows  *telemetry.Counter
	telSkipCycles   *telemetry.Counter
	telForcedWakes  *telemetry.Counter
	prevSkipWindows uint64
	prevSkipCycles  uint64
	prevForcedWakes uint64
}

// New builds a system running the given application specs (one per core).
func New(cfg Config, specs []workload.Spec) (*System, error) {
	if len(specs) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d specs for %d cores", len(specs), cfg.Cores)
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return newSystem(cfg, SourcesFromSpecs(specs, cfg.streamSeed()), false)
}

// newSystem builds a system running apps, one per core. lean is the
// switch the alone-curve cache uses for its solo replicas: a lean system
// carries no estimator state — no auxiliary tag stores and no pollution
// filters (s.ats and s.pf stay nil). Both structures only ever feed estimation counters (ATS*/PF*
// fields of AppQuantum, MissEvent flags), never a hit/miss outcome, a
// latency or a scheduling decision, so a lean system retires every
// instruction on the same cycle as a full one; nobody reads a curve
// replica's estimation counters. Lean is deliberately not a Config knob:
// it is not part of a run's identity (Fingerprint).
func newSystem(cfg Config, apps []AppSource, lean bool) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(apps) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(apps), cfg.Cores)
	}
	n := cfg.Cores
	s := &System{
		cfg:          cfg,
		apps:         append([]AppSource(nil), apps...),
		ncores:       n,
		epochOn:      cfg.EpochPriority,
		cpuPerDRAM:   uint64(dram.DDR31333().CPUPerDRAM),
		quantumEnd:   cfg.Quantum - 1,
		memDirty:     true,
		wbLimit:      cfg.wbBackpressure(),
		epochOwner:   -1,
		epochRnd:     rng.NewNamed(cfg.Seed, "epochs"),
		outHits:      make([]int, n),
		outMiss:      make([]int, n),
		settled:      make([]uint64, n),
		hitDue:       make([][]uint64, n),
		hitHead:      make([]int, n),
		mpki:         make([]float64, n),
		prevRetired:  make([]uint64, n),
		prevMemStall: make([]uint64, n),
		inFlightPf:   make(map[uint64]bool),
		pfLines:      make(map[uint64]bool),
	}
	s.writeDone = func(r *dram.Request, _ uint64) { s.freeWrites = append(s.freeWrites, r) }
	s.l2 = cache.New(cfg.L2Sets(), cfg.L2Ways, n)

	sampled := cfg.ATSSampledSets
	if sampled <= 0 {
		sampled = cfg.L2Sets()
	}
	filterBits := sampled * cfg.L2Ways * 32 // 4 bytes per ATS entry, matched budget
	for i := 0; i < n; i++ {
		src := apps[i].New(i)
		s.l1 = append(s.l1, cache.New(cfg.L1Sets(), cfg.L1Ways, n))
		s.l1mshr = append(s.l1mshr, cache.NewMSHR(cfg.MSHRs))
		s.hitDue[i] = make([]uint64, cfg.MSHRs)
		if !lean {
			s.ats = append(s.ats, cache.NewAuxTagStore(cfg.L2Sets(), cfg.L2Ways, sampled))
			s.pf = append(s.pf, cache.NewPollutionFilter(filterBits, 4))
		}
		s.cores = append(s.cores, cpu.New(i, src, s, cfg.WindowSize, cfg.IssueWidth))
		if cfg.Prefetch {
			s.pref = append(s.pref, prefetch.New())
		}
	}

	s.mem = dram.NewSystem(dram.DDR31333(), dram.DefaultGeometry(cfg.Channels), n, s.policyFactory())

	s.epochWeights = make([]float64, n)
	for i := range s.epochWeights {
		s.epochWeights[i] = 1
	}
	s.resetQuantumStats()
	return s, nil
}

// policyFactory builds the configured scheduling policy per channel.
func (s *System) policyFactory() dram.PolicyFactory {
	return func(ch int) dram.Scheduler {
		switch s.cfg.Policy {
		case PolicyPARBS:
			return dram.NewPARBS(s.cfg.Cores)
		case PolicyTCM:
			return dram.NewTCM(s.cfg.Cores, s.cfg.Seed+uint64(ch))
		default:
			return dram.NewFRFCFS()
		}
	}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Names returns the application names, one per core.
func (s *System) Names() []string {
	out := make([]string, len(s.apps))
	for i, a := range s.apps {
		out[i] = a.Name
	}
	return out
}

// Cycle returns the current cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// QuantumIndex returns the number of completed quanta.
func (s *System) QuantumIndex() int { return s.quantum }

// EpochOwner returns the app currently holding highest priority at the
// memory controller, or -1 when epoch priority is off.
func (s *System) EpochOwner() int { return s.epochOwner }

// Retired returns app's cumulative retired instruction count.
func (s *System) Retired(app int) uint64 { return s.cores[app].Retired() }

// ForcedWakes sums the cores' sleep-failsafe counters; a healthy run
// reports (near) zero.
func (s *System) ForcedWakes() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.ForcedWakes()
	}
	return n
}

// Mem returns the memory system (read-only use by experiments).
func (s *System) Mem() *dram.System { return s.mem }

// L2 returns the shared cache (read-only use by experiments and tests).
func (s *System) L2() *cache.Cache { return s.l2 }

// ATS returns app's auxiliary tag store.
func (s *System) ATS(app int) *cache.AuxTagStore { return s.ats[app] }

// setTelemetry wires the system's quantum-boundary instrumentation into
// the registry under the "sim" scope: quanta/cycles/instruction/L2
// traffic counters, event-heap and retry-queue depth gauges, and a
// per-quantum wall-time histogram. Handles are resolved here once, so the
// per-quantum cost is a few atomic updates and the simulator's per-cycle
// hot path is untouched. A nil registry (the default) disables
// everything.
func (s *System) setTelemetry(r *telemetry.Registry) {
	sc := r.Scope("sim")
	s.telQuanta = sc.Counter("quanta")
	s.telCycles = sc.Counter("cycles")
	s.telRetired = sc.Counter("retired")
	s.telL2Accesses = sc.Counter("l2_accesses")
	s.telL2Misses = sc.Counter("l2_misses")
	s.telEpochs = sc.Counter("epochs")
	s.telHeapDepth = sc.Gauge("event_heap_depth")
	s.telRetryDepth = sc.Gauge("retry_queue_depth")
	s.telPendingWB = sc.Gauge("pending_writebacks")
	s.telInFlightPf = sc.Gauge("inflight_prefetches")
	s.telQuantumHist = sc.Histogram("quantum_wall_ns")
	s.telSkipWindows = sc.Counter("skip.windows")
	s.telSkipCycles = sc.Counter("skip.cycles")
	s.telForcedWakes = sc.Counter("core.forced_wakes")
	if s.telQuantumHist != nil {
		s.quantumStart = time.Now()
	}
}

// SetTracer wires the event-tracing subsystem in: the attribution
// ledgers (enableAttribution), sampled miss-lifecycle spans, and the
// per-quantum attribution matrix written to t. A nil tracer (the
// default) leaves every path untouched and allocation-free. Call before
// Run.
func (s *System) SetTracer(t *evtrace.Tracer) {
	s.tracer = t
	if t == nil {
		return
	}
	t.BeginRun(s.Names())
	s.enableAttribution()
}

// enableAttribution turns on the per-channel interference attribution
// ledgers at the memory controllers and the cache-side evictor ledger,
// from which emitQuantumTrace builds every quantum's snapshot.
func (s *System) enableAttribution() {
	s.tracerNames = s.Names()
	if s.memRaw == nil {
		s.mem.EnableAttribution()
		n := s.ncores
		s.memRaw = make([][]uint64, n)
		s.cacheAttrib = make([][]float64, n)
		for j := 0; j < n; j++ {
			s.memRaw[j] = make([]uint64, n+1)
			s.cacheAttrib[j] = make([]float64, n+1)
		}
		s.evictors = make(map[uint64]int)
	}
}

// Observe attaches a run's observers: o.Metrics to the system's
// counters, then o.Trace and o.Attribution. Either turns the attribution
// ledgers on; the system hands every quantum's snapshot to both, the
// tracer first. Call before Run.
func (s *System) Observe(o telemetry.Options) {
	s.setTelemetry(o.Metrics)
	if o.Trace != nil {
		s.SetTracer(o.Trace)
	}
	if o.Attribution != nil {
		s.attribution = o.Attribution
		s.enableAttribution()
	}
}

// EventQueueDepth returns the number of pending L2-hit completion
// events (the event heap's current size).
func (s *System) EventQueueDepth() int { return s.events.len() }

// AddQuantumListener registers fn to run at every quantum boundary.
func (s *System) AddQuantumListener(fn QuantumListener) {
	s.listeners = append(s.listeners, fn)
}

// SetMissListener registers the per-miss observer (nil disables).
func (s *System) SetMissListener(fn MissListener) { s.missListener = fn }

// SetEpochWeights installs the epoch assignment probabilities (ASM-Mem's
// bandwidth partitioning knob, Section 7.2). The slice is copied.
func (s *System) SetEpochWeights(w []float64) {
	if len(w) != s.cfg.Cores {
		panic("sim: epoch weight count mismatch")
	}
	copy(s.epochWeights, w)
}

// SetL2Partition installs a way partition on the shared cache (nil removes
// it).
func (s *System) SetL2Partition(alloc []int) { s.l2.SetPartition(alloc) }

// L2Partition returns the current shared-cache way partition, or nil.
func (s *System) L2Partition() []int { return s.l2.Partition() }

// Run advances the system by the given number of cycles, bit-identical to
// calling Tick once per cycle and never past the bound (see advance).
func (s *System) Run(cycles uint64) { s.advance(s.cycle + cycles) }

// RunQuanta advances the system by n quanta.
func (s *System) RunQuanta(n int) {
	s.Run(uint64(n) * s.cfg.Quantum)
}

// cancelCheckStride is how many cycles RunQuantaCtx advances between
// context checks. At 8192 cycles the check costs one context poll per
// ~2.5µs of simulated work — invisible next to the Tick loop — while
// bounding cancellation latency to a tiny fraction of any quantum
// (the paper's Q is 5M cycles).
const cancelCheckStride = 8192

// progressStride is how many cycles RunQuantaCtx advances between calls
// of the progress hook. Each call may wake an idle processor to extend an
// alone curve, and a processor woken thousands of times a second spends
// its time looking for work: hinting every cancelCheckStride cycles cost
// the acc_mem benchmark 4–9 % more CPU than every 2^18 for the same wall
// time. The stretch after a quantum's last hint is extended synchronously
// by the boundary query. At the paper's 5 M-cycle quantum that stretch is
// 5 % of the quantum at most; a quantum shorter than 2^18 cycles gets no
// hint of its own, so its alone curves are extended entirely at the
// boundary. The benchmark's serve_jobs fig3 jobs (Q = 100 000, two quanta)
// are that case: back-to-back runs of such a job spent 34 % of their CPU
// in AloneCursor.CyclesAt under endQuantum in a 10 s CPU profile (2 vCPU
// Xeon). Hinting short quanta anyway, every min(2^18, Q/4) cycles, does
// not pay: it won 5 of 10 alternating 25 s serve_jobs pairs, with wall
// medians 2.36 -> 2.28 s and CPU medians 4.51 -> 4.37 s, and identical
// digests. That is within the noise, so the stride stays fixed.
const progressStride = 1 << 18

// RunQuantaCtx advances the system by n quanta, polling ctx every
// cancelCheckStride cycles so a cancelled or expired context stops the
// simulation mid-quantum rather than at item or quantum granularity.
// It returns ctx.Err() when stopped early, nil on completion. The tick
// sequence is identical to RunQuanta's — chunked advancement does not
// change behavior — so uncancelled runs stay bit-identical. A nil ctx
// runs to completion.
func (s *System) RunQuantaCtx(ctx context.Context, n int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	end := s.cycle + uint64(n)*s.cfg.Quantum
	for s.cycle < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.progress != nil && s.cycle >= s.nextProgress {
			s.nextProgress = s.cycle + progressStride
			s.progress()
		}
		step := uint64(cancelCheckStride)
		if rem := end - s.cycle; rem < step {
			step = rem
		}
		s.Run(step)
	}
	return ctx.Err()
}

// Tick advances the system by one CPU cycle: one step of the advance loop
// in which no core runs past the cycle.
func (s *System) Tick() {
	s.end = s.cycle + 1
	s.step(s.cycle)
}

// advance runs the system up to cycle end — or an earlier s.end set on the
// way (aloneCurve.retired) — jumping from one cycle with work to the next.
// The loop visits no cycle in between: no event is due, its DRAM ticks are
// frozen (skipTicks applies them), and the cores run their own cycles
// ahead of the loop up to their bounds (cpu.Core.Advance). Every core
// stands at end when it returns. Each jump counts as a skip window.
func (s *System) advance(end uint64) {
	s.end = end
	for s.cycle < s.end {
		now := s.horizon()
		if now > s.cycle {
			s.skipWindows++
			s.skipCycles += now - s.cycle
			s.cycle = now
			if now == s.end {
				break
			}
		}
		s.step(now)
	}
	s.skipTicks(s.cycle)
}

// horizon returns the first cycle from s.cycle on, up to s.end, with work:
// an epoch or quantum boundary, a due L2 hit, a DRAM event, or a core's
// NextCycle.
func (s *System) horizon() uint64 {
	h := min(s.end, s.quantumEnd)
	if s.epochOn && s.nextEpoch < h {
		h = s.nextEpoch
	}
	if due, ok := s.events.peek(); ok && due < h {
		h = due
	}
	h = min(h, s.coreNext)
	if h > s.nextTick { // no DRAM event precedes the next tick
		h = min(h, s.dramEvent(true))
	}
	return max(h, s.cycle)
}

// dramEvent returns the first DRAM tick that may not be frozen: the next
// one while misses or writebacks are parked (they need every tick), else
// the memory system's NextEventCycle — asked again, when ask is set, if a
// tick, an enqueue or a policy update made its last answer stale.
func (s *System) dramEvent(ask bool) uint64 {
	switch {
	case len(s.retryQ) > 0 || len(s.pendingWB) > 0, s.memDirty && !ask:
		return s.nextTick
	case s.memDirty:
		s.dramNext, s.memDirty = s.mem.NextEventCycle(s.nextTick), false
	}
	return s.dramNext
}

// skipTicks applies the frozen DRAM ticks before cycle upTo not yet run.
func (s *System) skipTicks(upTo uint64) {
	if s.nextTick >= upTo {
		return
	}
	k := (upTo - s.nextTick + s.cpuPerDRAM - 1) / s.cpuPerDRAM
	s.mem.SkipTicks(s.nextTick, k)
	s.nextTick += k * s.cpuPerDRAM
}

// step processes cycle now in phase order: epoch boundary, due L2 hits,
// the DRAM tick with writeback and miss retries, the cores due at now in
// id order, the quantum boundary.
func (s *System) step(now uint64) {
	s.skipTicks(now)

	// Epoch boundary: pick the next owner and prioritize it at memory.
	if s.epochOn && now == s.nextEpoch {
		s.nextEpoch += s.cfg.Epoch
		var next int
		if s.cfg.EpochRoundRobin {
			next = int(s.totalEpochs % uint64(s.ncores))
		} else {
			next = s.epochRnd.Pick(s.epochWeights)
		}
		// Both owners' epoch integrals change rate here: charge the
		// cycles before now under the old ownership first.
		if s.epochOwner >= 0 {
			s.settle(s.epochOwner, now)
		}
		s.settle(next, now)
		s.epochOwner = next
		s.mem.SetPriorityApp(s.epochOwner)
		s.qs.Apps[s.epochOwner].EpochCount++
		s.totalEpochs++
	}

	for {
		e, ok := s.events.popDue(now)
		if !ok {
			break
		}
		s.completeL2Hit(e.app, e.line, now)
	}

	if now == s.nextTick {
		// A tick already known to be frozen is applied as such; any other
		// runs (a frozen one that runs is bit-identical to a skipped one).
		if now < s.dramEvent(false) {
			s.mem.SkipTicks(now, 1)
		} else {
			s.mem.Tick(now)
			s.flushWritebacks(now)
			s.retryMisses(now)
			s.memDirty = true
		}
		s.nextTick += s.cpuPerDRAM
	}

	// The quantum's snapshot sees every core at its end. A core's NextCycle
	// moves only when it advances (here) or a fill wakes it (above), so the
	// earliest one is known here until the next step.
	limit := min(s.end, s.quantumEnd+1)
	s.coreNext = ^uint64(0)
	for i, c := range s.cores {
		n := c.NextCycle()
		if n == now {
			s.peers = s.peerBound(i)
			c.Advance(now, limit)
			n = c.NextCycle()
		}
		s.coreNext = min(s.coreNext, n)
	}

	if now == s.quantumEnd {
		s.endQuantum(now)
		s.quantumEnd += s.cfg.Quantum
		s.memDirty = true // TCM re-clusters
	}
	s.cycle = now + 1
}

// settle charges app's outstanding-transaction integrals (Table 1 and the
// quantum-wide variants ASM-Cache uses) for the cycles [settled, upTo) at
// its current outstanding counts and epoch ownership: per cycle, one unit
// of hit time while an L2 hit is outstanding, one unit of miss time plus
// the outstanding miss count (the MLP integral) while a miss is, and the
// epoch variants while the app owns the epoch. It is the only writer of
// those fields. Everything that changes an input — outHits, outMiss,
// epochOwner — calls settle(app, now) first, so the cycles before now are
// charged at the old state and cycle now at whatever state its Tick ends
// in, which is what a charge at the end of every Tick would see;
// endQuantum closes the quantum with settle(app, now+1).
func (s *System) settle(app int, upTo uint64) {
	w := upTo - s.settled[app]
	if w == 0 {
		return
	}
	s.settled[app] = upTo
	aq := &s.qs.Apps[app]
	if s.outHits[app] > 0 {
		aq.QuantumHitTime += w
		if app == s.epochOwner {
			aq.EpochHitTime += w
		}
	}
	if m := s.outMiss[app]; m > 0 {
		aq.QuantumMissTime += w
		aq.MLPIntegral += w * uint64(m)
		if app == s.epochOwner {
			aq.EpochMissTime += w
		}
	}
}

// SkipWindows returns how many jumps the advance loop has taken over
// cycles it did not visit.
func (s *System) SkipWindows() uint64 { return s.skipWindows }

// SkipCycles returns how many cycles the advance loop's jumps have crossed.
func (s *System) SkipCycles() uint64 { return s.skipCycles }

// ProbeL1 implements cpu.PrivateL1: a hit touches only app's own L1.
func (s *System) ProbeL1(app int, addr uint64, write bool) (uint64, bool) {
	return uint64(s.cfg.L1Latency), s.l1[app].Lookup(app, addr/workload.LineSize, write)
}

// Read and Write implement cpu.PrivateL1's contacts for an access that
// missed app's L1: a load, and a store (posted, write-allocate).
func (s *System) Read(app int, addr uint64, token uint64, now uint64) (bool, uint64, bool) {
	return false, 0, s.miss(app, addr, token, false, now)
}

func (s *System) Write(app int, addr uint64, now uint64) bool {
	return s.miss(app, addr, noWaiter, true, now)
}

// miss sends an L1 miss to the L1 MSHRs and the shared cache, merging it
// into an outstanding miss of its line if there is one, and reports
// whether they took it. A core may make it ahead of the loop's cycle
// (Bounds): the frozen DRAM ticks up to it are applied first.
func (s *System) miss(app int, addr, waiter uint64, write bool, now uint64) bool {
	s.skipTicks(now + 1)
	line := addr / workload.LineSize
	m := s.l1mshr[app]
	switch {
	case len(s.pendingWB) > s.wbLimit:
		return false // backpressure: memory system saturated
	case m.Lookup(line) != nil:
		return m.Merge(line, waiter, write)
	case m.Full():
		return false
	}
	m.Allocate(line, waiter, write)
	s.accessL2(app, line, write, now)
	return true
}

// Bounds implements cpu.PrivateL1; asked after every contact, it does not
// ask the memory system again. Only app's own misses fill its L1: its
// earliest L2 hit, or a DRAM read at a tick that is not frozen. Its
// contacts wait for the next epoch, L2 hit and DRAM event, and for the
// next cycle another core needs the loop — a lower-numbered core's
// contacts of a cycle come first.
func (s *System) Bounds(app int) (fill, contact uint64) {
	fill, contact = ^uint64(0), s.dramEvent(false)
	if s.outMiss[app] > 0 {
		fill = contact
	}
	if s.outHits[app] > 0 {
		fill = min(fill, s.hitDue[app][s.hitHead[app]])
	}
	if due, ok := s.events.peek(); ok {
		contact = min(contact, due)
	}
	return fill, min(contact, s.peers)
}

// peerBound returns what no contact of app's may pass while it runs: the
// next epoch boundary and the next cycle another core needs the loop.
func (s *System) peerBound(app int) uint64 {
	h := ^uint64(0)
	if s.epochOn {
		h = s.nextEpoch
	}
	for i, c := range s.cores {
		switch n := c.NextCycle(); {
		case i < app:
			h = min(h, n)
		case i > app:
			h = min(h, n+1)
		}
	}
	return h
}

// accessL2 performs a demand shared-cache access for an L1 miss.
func (s *System) accessL2(app int, line uint64, storeMiss bool, now uint64) {
	aq := &s.qs.Apps[app]
	aq.L2Accesses++
	inEpoch := s.epochOwner == app
	if inEpoch {
		aq.EpochAccesses++
	}

	// Auxiliary tag store probe (demand accesses only; lean systems have
	// none).
	var sampled, atsHit bool
	if s.ats != nil {
		sampled, atsHit, _ = s.ats[app].Access(line)
	}
	if sampled {
		aq.ATSProbes++
		if atsHit {
			aq.ATSHits++
		}
		if inEpoch {
			aq.EpochATSProbes++
			if atsHit {
				aq.EpochATSHits++
			}
		}
	}

	// Stride prefetcher observes the demand miss stream into L2.
	if s.pref != nil {
		for _, target := range s.pref[app].Observe(line) {
			s.issuePrefetch(app, target, now)
		}
	}

	if s.l2.Lookup(app, line, false) {
		aq.L2Hits++
		if inEpoch {
			aq.EpochHits++
		}
		if s.pfLines[line] {
			delete(s.pfLines, line)
			aq.PrefetchUseful++
		}
		s.settle(app, now)
		due := now + uint64(s.cfg.L2Latency)
		q := s.hitDue[app]
		q[(s.hitHead[app]+s.outHits[app])%len(q)] = due
		s.outHits[app]++
		s.events.push(event{cycle: due, app: int32(app), line: line})
		return
	}

	aq.L2Misses++
	if inEpoch {
		aq.EpochMisses++
	}
	pfCont := s.pf != nil && s.pf[app].Test(line)
	if pfCont {
		s.pf[app].Remove(line) // the line is being refetched
	}
	txn := s.newTxn()
	txn.app, txn.line, txn.start = app, line, now
	txn.dirty = storeMiss
	txn.pfCont = pfCont
	txn.atsCont = sampled && atsHit
	txn.sampled = sampled
	txn.traced = s.tracer != nil && s.tracer.SampleMiss()
	if sampled {
		aq.SampledDemandMisses++
	}
	s.settle(app, now)
	s.outMiss[app]++
	s.sendMiss(txn, now)
}

// newTxn returns a zeroed miss transaction from the free list.
func (s *System) newTxn() *missTxn {
	if n := len(s.freeTxns); n > 0 {
		txn := s.freeTxns[n-1]
		s.freeTxns = s.freeTxns[:n-1]
		*txn = missTxn{done: txn.done}
		return txn
	}
	txn := &missTxn{}
	txn.done = func(_ *dram.Request, now uint64) {
		s.missDone(txn, now)
		// The controller is finished with txn.req once Done returns.
		s.freeTxns = append(s.freeTxns, txn)
	}
	return txn
}

// sendMiss enqueues the miss at the memory controller, or parks it for
// retry when the read queue is full.
func (s *System) sendMiss(txn *missTxn, now uint64) {
	txn.req = dram.Request{
		App:      txn.app,
		LineAddr: txn.line,
		Prefetch: txn.prefetch,
		Done:     txn.done,
	}
	if txn.traced {
		// Per-cause interference breakdown, only for sampled spans so the
		// common path stays allocation-free.
		txn.req.Causes = make([]uint64, s.ncores)
	}
	if !s.enqueue(&txn.req, now) {
		s.retryQ = append(s.retryQ, txn)
	}
}

// enqueue offers r to the memory system; what it takes can end a frozen
// window, so the cached next DRAM event goes stale.
func (s *System) enqueue(r *dram.Request, now uint64) bool {
	s.memDirty = true
	return s.mem.Enqueue(r, now)
}

// retryMisses re-attempts parked misses in arrival order.
func (s *System) retryMisses(now uint64) {
	if len(s.retryQ) == 0 {
		return
	}
	kept := s.retryQ[:0]
	for _, txn := range s.retryQ {
		if !s.enqueue(&txn.req, now) {
			kept = append(kept, txn)
		}
	}
	s.retryQ = kept
}

// missDone handles a completed demand miss: fill L2 and L1, wake waiters,
// and feed the per-request accounting the baselines rely on.
func (s *System) missDone(txn *missTxn, now uint64) {
	app := txn.app
	aq := &s.qs.Apps[app]

	if txn.prefetch {
		delete(s.inFlightPf, txn.line)
		s.insertL2(app, txn.line, false, now)
		// Mirror the fill into the alone-state directory: the prefetcher
		// is trained on this app's own stream and would have issued the
		// same prefetch in the alone run.
		if s.ats != nil {
			s.ats[app].Install(txn.line)
		}
		s.pfLines[txn.line] = true
		return
	}

	latency := now - txn.start
	aq.MissCount++
	aq.MissLatencySum += latency
	aq.PerReqInterfSum += txn.req.InterfCycles
	if txn.sampled {
		aq.SampledPerReqInterf += txn.req.InterfCycles
	}
	// The cache-contention charge is the miss's estimated alone service
	// cost minus the hit cost: its memory-interference wait is accounted
	// separately by the per-request memory interference counters, so
	// charging raw latency here would double-count.
	aloneLat := float64(latency) - float64(txn.req.InterfCycles)
	cacheExtra := 0.0
	if extra := aloneLat - float64(s.cfg.L2Latency); extra > 0 {
		if txn.pfCont {
			aq.PFContentionMisses++
			aq.PFContentionExtra += extra
		}
		if txn.atsCont {
			aq.ATSContentionMisses++
			aq.ATSContentionExtra += extra
			cacheExtra = extra
		}
	}
	if s.evictors != nil {
		s.traceMiss(txn, now, cacheExtra)
	}
	if s.missListener != nil {
		s.missListener(MissEvent{
			App:           app,
			Latency:       latency,
			InterfCycles:  txn.req.InterfCycles,
			Sampled:       txn.sampled,
			PFContention:  txn.pfCont,
			ATSContention: txn.atsCont,
		})
	}

	s.insertL2(app, txn.line, false, now)
	s.settle(app, now)
	s.outMiss[app]--
	s.fillL1(app, txn.line, now)
}

// traceMiss feeds one completed demand miss to the attribution ledgers:
// charges its shared-cache interference (if any) to the app that evicted
// the line, and emits the lifecycle span when the tracer sampled the
// miss.
func (s *System) traceMiss(txn *missTxn, now uint64, cacheExtra float64) {
	cause := -1
	if c, ok := s.evictors[txn.line]; ok {
		cause = c
	}
	if cacheExtra > 0 {
		ci := cause
		if ci < 0 || ci >= s.ncores {
			ci = s.ncores // unknown evictor: system column
		}
		s.cacheAttrib[txn.app][ci] += cacheExtra
	}
	if !txn.traced {
		return
	}
	ch, bank, _ := s.mem.Geometry().Map(txn.line)
	s.tracer.MissSpan(evtrace.MissSpan{
		App:          txn.app,
		Line:         txn.line,
		Detect:       txn.start,
		Enqueue:      txn.req.Enqueue,
		Start:        txn.req.Start,
		Complete:     txn.req.Complete,
		Done:         now,
		Channel:      ch,
		Bank:         bank,
		RowHit:       txn.req.RowHit,
		InterfCycles: txn.req.InterfCycles,
		Causes:       txn.req.Causes,
		CacheCause:   cause,
	})
}

// emitQuantumTrace merges the per-channel attribution ledgers into the
// quantum's interference matrices and hands the snapshot to the tracer
// and to the attribution observer.
// The integer ledgers merge exactly; each victim's row total is its
// quantum's MemInterfCycles, the controller-side accounting the models
// consume, and ScaleRows apportions the row to it.
func (s *System) emitQuantumTrace(now uint64) {
	n := s.ncores
	for j := range s.memRaw {
		clear(s.memRaw[j])
	}
	s.mem.AddAttributionInto(s.memRaw)
	rowTotals := make([]float64, n)
	for j := range rowTotals {
		rowTotals[j] = s.qs.Apps[j].MemInterfCycles
	}
	mem := evtrace.ScaleRows(s.memRaw, rowTotals)
	cache := make([][]float64, n)
	stats := make([]evtrace.AppQuantumStats, n)
	for j := 0; j < n; j++ {
		cache[j] = append([]float64(nil), s.cacheAttrib[j]...)
		var cacheTot float64
		for _, v := range cache[j] {
			cacheTot += v
		}
		aq := &s.qs.Apps[j]
		stats[j] = evtrace.AppQuantumStats{
			Name:            s.tracerNames[j],
			Retired:         aq.Retired,
			MemStallCycles:  aq.MemStallCycles,
			QuantumHitTime:  aq.QuantumHitTime,
			QuantumMissTime: aq.QuantumMissTime,
			QueueingCycles:  aq.QueueingCycles,
			MemInterf:       rowTotals[j],
			CacheInterf:     cacheTot,
		}
		clear(s.cacheAttrib[j])
	}
	q := evtrace.QuantumAttribution{
		Quantum:      s.quantum,
		EndCycle:     now + 1,
		Cycles:       s.cfg.Quantum,
		Apps:         s.tracerNames,
		Mem:          mem,
		MemRowTotals: rowTotals,
		Cache:        cache,
		AppStats:     stats,
	}
	s.tracer.Quantum(q)
	if s.attribution != nil {
		s.attribution(q)
	}
}

// completeL2Hit finishes an L2 hit transaction.
func (s *System) completeL2Hit(app int32, line uint64, now uint64) {
	s.settle(int(app), now)
	s.outHits[app]--
	if s.hitHead[app]++; s.hitHead[app] == len(s.hitDue[app]) {
		s.hitHead[app] = 0
	}
	s.fillL1(int(app), line, now)
}

// fillL1 installs the line in the requester's L1, handles the dirty
// victim, and wakes all MSHR waiters.
func (s *System) fillL1(app int, line uint64, now uint64) {
	e := s.l1mshr[app].Complete(line)
	dirty := false
	if e != nil {
		dirty = e.Dirty
	}
	v := s.l1[app].Insert(app, line, dirty)
	if v.Valid && v.Dirty {
		s.writebackToL2(app, v.LineAddr, now)
	}
	if e != nil {
		for _, w := range e.Waiters {
			if w != noWaiter {
				s.cores[app].Complete(w, now)
			}
		}
	}
	// Any fill frees an MSHR and may unblock dependent fetch.
	s.cores[app].Wake(now)
}

// insertL2 installs a line in the shared cache, updating pollution filters
// for cross-app evictions and writing back dirty victims.
func (s *System) insertL2(app int, line uint64, dirty bool, now uint64) {
	if s.evictors != nil {
		delete(s.evictors, line) // the line is resident again
	}
	v := s.l2.Insert(app, line, dirty)
	if !v.Valid {
		return
	}
	if int(v.App) != app {
		// FST's pollution filter: the victim's owner lost this line to
		// another application.
		if s.pf != nil {
			s.pf[v.App].Add(v.LineAddr)
		}
		if s.evictors != nil {
			// Cache-side attribution: remember who displaced the line so a
			// later contention miss on it can name its cause app.
			s.evictors[v.LineAddr] = app
		}
	}
	delete(s.pfLines, v.LineAddr)
	if v.Dirty {
		s.enqueueWriteback(int(v.App), v.LineAddr, now)
	}
}

// writebackToL2 handles a dirty L1 eviction: update the L2 copy if
// present, else write through to memory (non-inclusive hierarchy).
func (s *System) writebackToL2(app int, line uint64, now uint64) {
	s.qs.Apps[app].Writebacks++
	if s.l2.Lookup(app, line, true) {
		return
	}
	s.enqueueWriteback(app, line, now)
}

// enqueueWriteback posts a write to memory, parking the request when the
// write queue is full. The request comes from the free list and returns to
// it when the controller completes it (writeDone).
func (s *System) enqueueWriteback(app int, line uint64, now uint64) {
	var r *dram.Request
	if n := len(s.freeWrites); n > 0 {
		r = s.freeWrites[n-1]
		s.freeWrites = s.freeWrites[:n-1]
	} else {
		r = new(dram.Request)
	}
	*r = dram.Request{App: app, LineAddr: line, Write: true, Done: s.writeDone}
	if !s.enqueue(r, now) {
		s.pendingWB = append(s.pendingWB, r)
	}
}

// flushWritebacks retries parked writebacks. When the backlog drains below
// the backpressure threshold, cores that went to sleep on a rejected
// access are woken (their wake-up is not tied to a fill).
func (s *System) flushWritebacks(now uint64) {
	if len(s.pendingWB) == 0 {
		return
	}
	wasBackpressured := len(s.pendingWB) > s.wbLimit
	kept := s.pendingWB[:0]
	for _, r := range s.pendingWB {
		if !s.enqueue(r, now) {
			kept = append(kept, r)
		}
	}
	s.pendingWB = kept
	if wasBackpressured && len(s.pendingWB) <= s.wbLimit {
		for _, c := range s.cores {
			c.Wake(now)
		}
	}
}

// issuePrefetch sends a prefetch for a line into the shared cache. A
// target the stride ran past the last line address names no memory and is
// dropped.
func (s *System) issuePrefetch(app int, line uint64, now uint64) {
	if line >= cache.LineAddrLimit || s.l2.Peek(line) || s.inFlightPf[line] {
		return
	}
	if !s.mem.CanEnqueue(line, false) {
		return // prefetches are droppable
	}
	txn := s.newTxn()
	txn.app, txn.line, txn.start, txn.prefetch = app, line, now, true
	s.inFlightPf[line] = true
	s.qs.Apps[app].PrefetchIssued++
	s.sendMiss(txn, now)
}

// endQuantum snapshots the quantum, notifies listeners, and resets the
// per-quantum state.
func (s *System) endQuantum(now uint64) {
	for a := 0; a < s.cfg.Cores; a++ {
		// The quantum ends with cycle now: charge it too.
		s.settle(a, now+1)
		aq := &s.qs.Apps[a]
		aq.Retired = s.cores[a].Retired() - s.prevRetired[a]
		s.prevRetired[a] = s.cores[a].Retired()
		stall := s.cores[a].MemStallCycles(now + 1)
		aq.MemStallCycles = stall - s.prevMemStall[a]
		s.prevMemStall[a] = stall
		aq.QueueingCycles = s.mem.QueueingCycles(a)
		aq.MemInterfCycles = s.mem.InterferenceCycles(a)
		if s.ats != nil {
			aq.ATSHitsAtWay = s.ats[a].PositionHits()
		}
	}
	s.qs.Quantum = s.quantum

	// Attribution: merge the ledgers before anything resets them
	// (listeners run after, so tests can compare the emitted matrix
	// against the live controller counters).
	if s.memRaw != nil {
		s.emitQuantumTrace(now)
	}

	// Telemetry: quantum-boundary counters and structure-depth gauges
	// (no-ops until setTelemetry wires a registry).
	s.telQuanta.Inc()
	s.telCycles.Add(s.cfg.Quantum)
	s.telEpochs.Add(s.totalEpochs - s.prevEpochs)
	s.prevEpochs = s.totalEpochs
	for a := 0; a < s.cfg.Cores; a++ {
		aq := &s.qs.Apps[a]
		s.telRetired.Add(aq.Retired)
		s.telL2Accesses.Add(aq.L2Accesses)
		s.telL2Misses.Add(aq.L2Misses)
	}
	s.telSkipWindows.Add(s.skipWindows - s.prevSkipWindows)
	s.telSkipCycles.Add(s.skipCycles - s.prevSkipCycles)
	s.prevSkipWindows, s.prevSkipCycles = s.skipWindows, s.skipCycles
	if fw := s.ForcedWakes(); fw != s.prevForcedWakes {
		s.telForcedWakes.Add(fw - s.prevForcedWakes)
		s.prevForcedWakes = fw
	}
	s.telHeapDepth.Set(int64(s.events.len()))
	s.telRetryDepth.Set(int64(len(s.retryQ)))
	s.telPendingWB.Set(int64(len(s.pendingWB)))
	s.telInFlightPf.Set(int64(len(s.inFlightPf)))
	if s.telQuantumHist != nil {
		now := time.Now()
		s.telQuantumHist.Observe(now.Sub(s.quantumStart))
		s.quantumStart = now
	}

	// Clone only when someone is listening: listeners may retain the
	// snapshot, but without listeners the deep copy is pure churn (alone
	// replicas cross thousands of quantum boundaries with no listeners).
	if len(s.listeners) > 0 {
		snapshot := s.qs.clone()
		for _, fn := range s.listeners {
			fn(s, snapshot)
		}
	}

	// TCM re-clusters at quantum boundaries using fresh intensity data.
	if s.cfg.Policy == PolicyTCM {
		for a := range s.mpki {
			s.mpki[a] = s.qs.MPKI(a)
		}
		s.mem.UpdateTCM(s.mpki)
	}

	s.quantum++
	s.resetQuantumStats()
}

// resetQuantumStats clears all per-quantum accumulators. The Apps slice
// is reused across quanta (listeners only ever see deep-copied clones),
// so steady-state quanta allocate nothing here.
func (s *System) resetQuantumStats() {
	n := s.cfg.Cores
	sampledSets := s.cfg.ATSSampledSets
	if sampledSets <= 0 {
		sampledSets = s.cfg.L2Sets()
	}
	apps := s.qs.Apps
	if len(apps) == n {
		clear(apps)
	} else {
		apps = make([]AppQuantum, n)
	}
	s.qs = QuantumStats{
		Quantum:      s.quantum,
		Cycles:       s.cfg.Quantum,
		EpochLen:     s.cfg.Epoch,
		L2HitLatency: uint64(s.cfg.L2Latency),
		ATSScale:     float64(s.cfg.L2Sets()) / float64(sampledSets),
		L2Ways:       s.cfg.L2Ways,
		Apps:         apps,
	}
	for _, ats := range s.ats {
		ats.ResetStats()
		// The pollution filter is NOT cleared: FST's design only removes
		// entries when a line is refetched, so an under-provisioned
		// filter saturates over time — the source of FST's accuracy loss
		// under the sampled hardware budget (Figure 3).
	}
	s.mem.ResetQuantumStats()
	clear(s.pfLines)
}

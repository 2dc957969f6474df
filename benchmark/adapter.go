package main

// adapter.go is the only file of the harness that imports asmsim's
// internal packages. Everything else sees plain numbers, strings and the
// small structs declared here, so a refactor of the program has to repair
// this one file and nothing else. The exact surface it compiles against
// is listed in README.md ("Internal API surface"); keep the two in step.
//
// Every function here drives the program from outside, through public
// constructors and methods, and adds nothing to it: no timer, counter,
// flag or environment switch.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"asmsim/internal/cache"
	"asmsim/internal/core"
	"asmsim/internal/cpu"
	"asmsim/internal/dram"
	"asmsim/internal/evtrace"
	"asmsim/internal/exp"
	"asmsim/internal/model"
	"asmsim/internal/partition"
	"asmsim/internal/serve"
	"asmsim/internal/sim"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// ---------------------------------------------------------------------
// Inputs

// Memory-intensity classes, mirroring workload.IntensityClass.
const (
	classLow = iota
	classMedium
	classHigh
)

// app names one benchmark of the SPEC+NAS pool the paper draws mixes from.
type app struct {
	Name  string
	Class int
}

// suitePool returns the SPEC+NAS pool in suite order.
func suitePool() []app {
	specs := append(workload.SPEC(), workload.NAS()...)
	out := make([]app, len(specs))
	for i, s := range specs {
		out[i] = app{Name: s.Name, Class: int(s.Class)}
	}
	return out
}

// simScale is the size of one simulated run.
type simScale struct {
	Quantum uint64
	Epoch   uint64
	Warmup  int
	Measure int
	// Seed drives the instruction streams (StreamSeed) and, offset per
	// item, the epoch lottery and scheduler randomness.
	Seed uint64
}

func (s simScale) quanta() int { return s.Warmup + s.Measure }

// expScale resolves a simScale into the program's own Scale. The
// collector is the run's output channel (samples and retired
// instructions); reg may be nil.
func (s simScale) expScale(ac *aloneCache, rec telemetry.Recorder, reg *registry) exp.Scale {
	sc := exp.Scale{
		WarmupQuanta:   s.Warmup,
		MeasuredQuanta: s.Measure,
		Quantum:        s.Quantum,
		Epoch:          s.Epoch,
		Seed:           s.Seed,
		AloneCache:     ac.c,
	}
	sc.Telemetry.Recorder = rec
	sc.Telemetry.Metrics = reg.raw()
	return sc
}

// itemConfig is the per-item configuration every sweep of the program
// uses (exp.accuracySweep / policySweep): a per-item Seed decorrelates
// the epoch lotteries, one StreamSeed per sweep lets alone curves be
// shared across mixes.
func itemConfig(sc exp.Scale, idx int) sim.Config {
	cfg := sc.BaseConfig()
	cfg.Seed = sc.Seed + uint64(idx)*1000
	cfg.StreamSeed = sc.Seed
	return cfg
}

// aloneCache wraps the program's alone-run curve cache.
type aloneCache struct{ c *sim.AloneCurveCache }

func newAloneCache() *aloneCache { return &aloneCache{c: sim.NewAloneCurveCache()} }

// registry wraps a telemetry registry; a nil *registry observes nothing.
type registry struct{ r *telemetry.Registry }

func newRegistry() *registry { return &registry{r: telemetry.NewRegistry()} }

func (r *registry) raw() *telemetry.Registry {
	if r == nil {
		return nil
	}
	return r.r
}

// regMetric is one registry entry, times in nanoseconds.
type regMetric struct {
	Value   int64
	TotalNs int64
	MaxNs   int64
}

func (r *registry) values() map[string]regMetric {
	out := map[string]regMetric{}
	for _, m := range r.raw().Snapshot() {
		out[m.Name] = regMetric{Value: m.Value, TotalNs: m.TotalNs, MaxNs: m.MaxNs}
	}
	return out
}

// histQuantile returns quantile q of the named histogram (0 when absent).
func (r *registry) histQuantile(name string, q float64) float64 {
	h, ok := r.raw().SnapshotHistograms()[name]
	if !ok {
		return 0
	}
	return float64(h.Quantile(q))
}

// collector is the Recorder every harness run attaches: it is how a run's
// retired-instruction count leaves the program.
type collector struct{ instr uint64 }

func (c *collector) Record(rec *telemetry.QuantumRecord) { c.instr += rec.Counters.Retired }
func (c *collector) Close() error                        { return nil }

// ---------------------------------------------------------------------
// Sweep items

// sample is one (application, quantum) accuracy observation.
type sample struct {
	Bench   string
	App     int
	Quantum int
	Actual  float64
	Est     map[string]float64
}

// estimatorNames lists the estimators of an accuracy run, in table order.
var estimatorNames = []string{"ASM", "FST", "PTCA", "MISE"}

func allEstimators() []core.Estimator {
	return core.SanitizeAll([]core.Estimator{
		core.NewASM(), model.NewFST(), model.NewPTCA(), model.NewMISE(),
	})
}

// atsSampledSets is the paper's sampled auxiliary-tag-store size (fig3).
const atsSampledSets = 64

// accuracyRun runs one mix through exp.RunAccuracy with the four
// estimators and a 64-set sampled ATS, as fig3 does, and returns its
// samples and the instructions retired by the shared run.
func accuracyRun(ctx context.Context, s simScale, mix []string, idx int, ac *aloneCache, reg *registry) ([]sample, uint64, error) {
	col := &collector{}
	sc := s.expScale(ac, col, reg)
	cfg := itemConfig(sc, idx)
	cfg.ATSSampledSets = atsSampledSets
	got, err := exp.RunAccuracy(ctx, cfg, workload.Mix{Names: mix}, allEstimators, sc)
	if err != nil {
		return nil, col.instr, err
	}
	out := make([]sample, len(got))
	for i, g := range got {
		out[i] = sample{Bench: g.Bench, App: g.App, Quantum: g.Quantum, Actual: g.Actual, Est: g.Est}
	}
	return out, col.instr, nil
}

// policySchemes are the resource-management schemes of policy_sched, the
// public-API mirror of exp's fig10 and cachemem scheme sets.
var policySchemes = []string{"FRFCFS", "PARBS", "TCM", "PARBS+UCP", "ASM-Cache-Mem"}

func buildScheme(name string) (exp.Scheme, error) {
	noEpochs := func(p sim.Policy, ats int) func(*sim.Config) {
		return func(c *sim.Config) {
			c.EpochPriority = false
			c.Epoch = 0
			c.Policy = p
			c.ATSSampledSets = ats
		}
	}
	switch name {
	case "FRFCFS":
		return exp.Scheme{Name: name, Configure: noEpochs(sim.PolicyFRFCFS, 0)}, nil
	case "PARBS":
		return exp.Scheme{Name: name, Configure: noEpochs(sim.PolicyPARBS, 0)}, nil
	case "TCM":
		return exp.Scheme{Name: name, Configure: noEpochs(sim.PolicyTCM, 0)}, nil
	case "PARBS+UCP":
		return exp.Scheme{
			Name:      name,
			Configure: noEpochs(sim.PolicyPARBS, atsSampledSets),
			Attach: func(s *sim.System) {
				s.AddQuantumListener(partition.Listener(partition.NewUCP()))
			},
		}, nil
	case "ASM-Cache-Mem":
		return exp.Scheme{
			Name:      name,
			Configure: func(c *sim.Config) { c.ATSSampledSets = atsSampledSets },
			Attach: func(s *sim.System) {
				s.AddQuantumListener(partition.NewASMCacheMem().Listener())
			},
		}, nil
	}
	return exp.Scheme{}, fmt.Errorf("unknown scheme %q", name)
}

// policyRun runs one mix under one scheme through exp.RunPolicy and
// returns each app's actual slowdown and the instructions retired.
func policyRun(ctx context.Context, s simScale, mix []string, idx int, scheme string, ac *aloneCache, reg *registry) ([]float64, uint64, error) {
	sch, err := buildScheme(scheme)
	if err != nil {
		return nil, 0, err
	}
	col := &collector{}
	sc := s.expScale(ac, col, reg)
	out, err := exp.RunPolicy(ctx, itemConfig(sc, idx), workload.Mix{Names: mix}, sch, sc)
	if err != nil {
		return nil, col.instr, err
	}
	return out.AppSlowdowns, col.instr, nil
}

// constructSweep builds, without running them, every modelled system a
// sweep over mixes needs: one shared system and one ground-truth tracker
// (alone replicas on a fresh curve cache) per mix. It is the set-up cost
// of a sweep, which the program otherwise pays inside RunAccuracy and
// RunPolicy where it cannot be told apart from simulation.
func constructSweep(s simScale, mixes [][]string) error {
	ac := newAloneCache()
	sc := s.expScale(ac, nil, nil)
	for i, names := range mixes {
		specs, err := resolve(names)
		if err != nil {
			return err
		}
		cfg := itemConfig(sc, i)
		cfg.Cores = len(specs)
		cfg.ATSSampledSets = atsSampledSets
		if _, err := sim.New(cfg, specs); err != nil {
			return err
		}
		if _, err := sim.NewSlowdownTrackerShared(cfg, specs, ac.c); err != nil {
			return err
		}
	}
	return nil
}

// resolve looks mix names up without panicking on an unknown one.
func resolve(names []string) ([]workload.Spec, error) {
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		specs[i] = s
	}
	return specs, nil
}

// ---------------------------------------------------------------------
// Jobs and the job service

// jobDoc is the wire form of a job as a client writes it (the JSON of
// exp.JobSpec); the harness only ever sends these documents.
type jobDoc struct {
	Experiment     string `json:"experiment"`
	Workloads      int    `json:"workloads,omitempty"`
	MeasuredQuanta int    `json:"measured_quanta,omitempty"`
	Quantum        uint64 `json:"quantum,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
}

// table is the wire form of a result table (the JSON of exp.Table).
type table struct {
	ID       string
	Title    string
	Header   []string
	Rows     [][]string
	Notes    []string
	Failures []string
}

// runJobDirect runs a job document in this process through
// exp.JobSpec.Run, bypassing the service. reg may be nil.
func runJobDirect(ctx context.Context, doc jobDoc, reg *registry) (table, error) {
	var spec exp.JobSpec
	if err := recode(doc, &spec); err != nil {
		return table{}, err
	}
	if err := spec.Validate(); err != nil {
		return table{}, err
	}
	t, err := spec.Run(ctx, func(sc *exp.Scale) { sc.Telemetry.Metrics = reg.raw() })
	if err != nil {
		return table{}, err
	}
	var out table
	err = recode(t, &out)
	return out, err
}

func recode(from, to any) error {
	b, err := json.Marshal(from)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, to)
}

// service is an in-process asmserve: serve.New over a state directory,
// mounted on a loopback HTTP server.
type service struct {
	URL string
	Reg *registry
	srv *serve.Server
	ts  *httptest.Server
}

// startService starts the job service with its default options (two
// workers, queue depth 8) and a metrics registry, as cmd/asmserve does.
func startService(stateDir string) (*service, error) {
	reg := newRegistry()
	srv, err := serve.New(serve.Options{StateDir: stateDir, Metrics: reg.r})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	srv.Mount(mux)
	ts := httptest.NewServer(mux)
	return &service{URL: ts.URL, Reg: reg, srv: srv, ts: ts}, nil
}

// jobsListed is the number of jobs the service still holds in memory.
func (s *service) jobsListed() int { return len(s.srv.Jobs()) }

// stop closes the listener and drains the worker pool.
func (s *service) stop(ctx context.Context) error {
	s.ts.Close()
	return s.srv.Shutdown(ctx)
}

// journalAppendUs times n durable appends (write + fsync) to a fresh
// journal under dir and returns the mean in microseconds.
func journalAppendUs(dir string, n int) (float64, error) {
	j, _, err := serve.OpenJournal(dir, nil)
	if err != nil {
		return 0, err
	}
	spec := exp.JobSpec{Experiment: "fig3", Workloads: 2, Seed: 1}
	start := time.Now()
	for i := 0; i < n; i++ {
		e := serve.Entry{Event: "submitted", ID: fmt.Sprintf("job-%d", i+1), Fingerprint: "bench", Spec: &spec}
		if err := j.Append(e); err != nil {
			j.Close()
			return 0, err
		}
	}
	d := time.Since(start)
	if err := j.Close(); err != nil {
		return 0, err
	}
	return float64(d.Microseconds()) / float64(n), nil
}

// ---------------------------------------------------------------------
// Layer micro-drivers. Each does a fixed amount of work on one layer and
// returns cost per unit; counts are returned beside times so the ratio is
// taken where the work happens.

// genCost times Generator.Next over the named benchmarks, n instructions
// each, and returns mean ns per instruction and the instruction count.
func genCost(names []string, seed uint64, n int) (nsPerInstr float64, instr uint64, err error) {
	specs, err := resolve(names)
	if err != nil {
		return 0, 0, err
	}
	var in workload.Instr
	var sink uint64
	start := time.Now()
	for _, sp := range specs {
		g := workload.NewGenerator(sp, 0, seed)
		for i := 0; i < n; i++ {
			g.Next(&in)
			sink += in.Addr
		}
		instr += g.Generated()
	}
	d := time.Since(start)
	runtime.KeepAlive(sink)
	return float64(d.Nanoseconds()) / float64(instr), instr, nil
}

// cannedStream replays a pre-generated instruction slice in a loop, so the
// core is timed without the generator.
type cannedStream struct {
	instrs []workload.Instr
	pos    int
}

func (c *cannedStream) Next(out *workload.Instr) {
	*out = c.instrs[c.pos]
	c.pos++
	if c.pos == len(c.instrs) {
		c.pos = 0
	}
}

func newCannedStream(bench string, seed uint64, n int) (*cannedStream, error) {
	specs, err := resolve([]string{bench})
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(specs[0], 0, seed)
	s := &cannedStream{instrs: make([]workload.Instr, n)}
	for i := range s.instrs {
		g.Next(&s.instrs[i])
	}
	return s, nil
}

// stubPort is a fixed-latency memory hierarchy. With missEvery == 0 every
// load completes synchronously after hitLat cycles; otherwise every
// missEvery-th load is asynchronous and completes missLat cycles later.
type stubPort struct {
	core      *cpu.Core
	hitLat    uint64
	missLat   uint64
	missEvery uint64
	loads     uint64
	pending   []stubFill // FIFO: fixed latency keeps it sorted by due
}

type stubFill struct{ token, due uint64 }

func (p *stubPort) Read(_ int, _ uint64, token, now uint64) (bool, uint64, bool) {
	p.loads++
	if p.missEvery > 0 && p.loads%p.missEvery == 0 {
		p.pending = append(p.pending, stubFill{token, now + p.missLat})
		return false, 0, true
	}
	return true, p.hitLat, true
}

func (p *stubPort) Write(int, uint64, uint64) bool { return true }

func (p *stubPort) deliver(now uint64) {
	for len(p.pending) > 0 && p.pending[0].due <= now {
		p.core.Complete(p.pending[0].token, now)
		p.pending = p.pending[1:]
	}
}

// coreCost ticks one cpu.Core over a canned stream for the given cycles
// against the stub port. blocked selects the variant whose loads miss
// every 8th time with a 400-cycle latency, so the core sleeps on the
// window head most of the time.
func coreCost(seed uint64, cycles uint64, blocked bool) (nsPerCycle, ipc float64, err error) {
	bench, port := "povray", &stubPort{hitLat: 1}
	if blocked {
		bench, port = "mcf", &stubPort{hitLat: 1, missLat: 400, missEvery: 8}
	}
	stream, err := newCannedStream(bench, seed, 1<<16)
	if err != nil {
		return 0, 0, err
	}
	cfg := sim.DefaultConfig()
	c := cpu.New(0, stream, port, cfg.WindowSize, cfg.IssueWidth)
	port.core = c
	start := time.Now()
	for now := uint64(1); now <= cycles; now++ {
		port.deliver(now)
		c.Tick(now)
	}
	d := time.Since(start)
	return float64(d.Nanoseconds()) / float64(cycles), float64(c.Retired()) / float64(cycles), nil
}

// cacheCosts are the per-operation costs of the cache layer.
type cacheCosts struct {
	LookupNs, InsertNs, ATSAccessNs, MSHRCycleNs, MSHRAllocsPerOp float64
	Ops                                                           int
}

// cacheCost times the shared-cache geometry of the paper's system (2 MB,
// 16-way): lookups over a resident set, inserts of fresh lines, sampled
// auxiliary-tag-store accesses, and MSHR allocate/merge/complete cycles.
func cacheCost(seed uint64, n int) cacheCosts {
	cfg := sim.DefaultConfig()
	sets, ways := cfg.L2Sets(), cfg.L2Ways
	c := cache.New(sets, ways, 4)
	resident := uint64(sets * ways / 2)
	for a := uint64(0); a < resident; a++ {
		c.Insert(int(a%4), a, false)
	}
	out := cacheCosts{Ops: n}
	rnd := splitmix(seed)
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		a := rnd.next() % resident
		if c.Lookup(int(a%4), a, false) {
			hits++
		}
	}
	out.LookupNs = perOp(start, n)
	runtime.KeepAlive(hits)

	start = time.Now()
	for i := 0; i < n; i++ {
		a := resident + uint64(i)
		c.Insert(int(a%4), a, i%4 == 0)
	}
	out.InsertNs = perOp(start, n)

	ats := cache.NewAuxTagStore(sets, ways, atsSampledSets)
	start = time.Now()
	for i := 0; i < n; i++ {
		a := rnd.next() % (4 * resident)
		if sampled, hit, _ := ats.Access(a); sampled && !hit {
			ats.Install(a)
		}
	}
	out.ATSAccessNs = perOp(start, n)

	m := cache.NewMSHR(cfg.MSHRs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for i := 0; i < n; i++ {
		line := uint64(i)
		m.Allocate(line, 1, false)
		m.Merge(line, 2, false)
		m.Complete(line)
	}
	out.MSHRCycleNs = perOp(start, n)
	runtime.ReadMemStats(&after)
	out.MSHRAllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
	return out
}

func perOp(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func newScheduler(policy string, apps int, seed uint64) (dram.Scheduler, error) {
	switch policy {
	case "FRFCFS":
		return dram.NewFRFCFS(), nil
	case "PARBS":
		return dram.NewPARBS(apps), nil
	case "TCM":
		return dram.NewTCM(apps, seed), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q", policy)
}

// dramStreamCost drives one memory controller with a canned request
// stream from four apps (two streaming with row locality, two random),
// keeping 24 reads outstanding, until n reads completed: Enqueue -> Tick
// -> completion callback. It returns host ns per completed request.
func dramStreamCost(policy string, seed uint64, n int) (float64, error) {
	const apps, window = 4, 24
	sched, err := newScheduler(policy, apps, seed)
	if err != nil {
		return 0, err
	}
	t := dram.DDR31333()
	c := dram.NewController(t, dram.DefaultGeometry(1), 0, apps, sched)
	rnd := splitmix(seed)
	stream := [apps]uint64{1 << 20, 2 << 20}
	outstanding, done, issued := 0, 0, 0
	onDone := func(*dram.Request, uint64) { outstanding--; done++ }
	ratio := uint64(t.CPUPerDRAM)
	start := time.Now()
	for now := uint64(0); done < n; now += ratio {
		for outstanding < window && issued < n && c.CanEnqueue(false) {
			a := issued % apps
			var line uint64
			if a < 2 {
				stream[a]++
				line = stream[a]
			} else {
				line = uint64(a)<<30 + rnd.next()%(1<<22)
			}
			c.Enqueue(&dram.Request{App: a, LineAddr: line, Done: onDone}, now)
			outstanding++
			issued++
		}
		c.Tick(now)
	}
	return perOp(start, n), nil
}

// dramIdleTickCost is the cost of Tick on an empty controller.
func dramIdleTickCost(n int) float64 {
	t := dram.DDR31333()
	c := dram.NewController(t, dram.DefaultGeometry(1), 0, 4, dram.NewFRFCFS())
	ratio := uint64(t.CPUPerDRAM)
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Tick(uint64(i) * ratio)
	}
	return perOp(start, n)
}

// dramSkipTicksCost is the cost of one SkipTicks(·, 1) replay on a frozen
// window: four apps, sixteen reads queued behind one busy bank. The call
// is repeated on the same window; only its accumulators move.
func dramSkipTicksCost(n int) float64 {
	t := dram.DDR31333()
	g := dram.DefaultGeometry(1)
	c := dram.NewController(t, g, 0, 4, dram.NewFRFCFS())
	ratio := uint64(t.CPUPerDRAM)
	rowStride := uint64(g.LinesPerRow * g.BanksPerChan)
	for i := 0; i < 16; i++ {
		// Same bank, a different row each: every read conflicts.
		c.Enqueue(&dram.Request{App: i % 4, LineAddr: uint64(i) * rowStride, Done: func(*dram.Request, uint64) {}}, 0)
	}
	now := uint64(0)
	for ; c.QueuedReads() == 16; now += ratio {
		c.Tick(now)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c.SkipTicks(now, 1)
	}
	return perOp(start, n)
}

// ---------------------------------------------------------------------
// Whole-simulator probe

// simProbe is what one direct sim.New + Run over a few mixes shows:
// host cost per simulated unit, and the modelled machine's own
// statistics, which a simulator-only change must leave untouched.
type simProbe struct {
	Cycles, Instr uint64
	HostNs        int64

	SkipCycles, SkipWindows, ForcedWakes uint64
	Mallocs, Bytes                       uint64
	QueueDepthSum, QueueDepthSamples     uint64

	L2Accesses, L2Hits, L2Misses uint64
	MissCount, MissLatencySum    uint64
	MemStallCycles, CoreCycles   uint64
	DRAMReads, DRAMRowHits       float64
	BusUtilSum                   float64
	BusUtilSamples               int
	AloneCurves                  int
	AlonePoints                  int64
	AloneSaved, AloneExtended    uint64
	stats                        []*sim.QuantumStats // last quantum of each mix
	firstMix                     []string
	firstCfg                     sim.Config
	quanta                       int
}

// probeSim runs each mix directly on sim.System (64-set sampled ATS, the
// sweep's per-item configuration), sampling the event-queue depth every
// 8192 cycles, then feeds the retired counts to a ground-truth tracker on
// one shared alone cache so the cache's reuse shows.
func probeSim(s simScale, mixes [][]string) (*simProbe, error) {
	p := &simProbe{quanta: s.quanta()}
	ac := newAloneCache()
	reg := newRegistry()
	ac.c.SetTelemetry(reg.r.Scope("sim"))
	sc := s.expScale(ac, nil, nil)
	for i, names := range mixes {
		specs, err := resolve(names)
		if err != nil {
			return nil, err
		}
		cfg := itemConfig(sc, i)
		cfg.Cores = len(specs)
		cfg.ATSSampledSets = atsSampledSets
		if i == 0 {
			p.firstMix, p.firstCfg = names, cfg
		}
		sys, err := sim.New(cfg, specs)
		if err != nil {
			return nil, err
		}
		var quanta []*sim.QuantumStats
		sys.AddQuantumListener(func(sy *sim.System, st *sim.QuantumStats) {
			quanta = append(quanta, st)
			for a := range st.Apps {
				aq := &st.Apps[a]
				p.Instr += aq.Retired
				p.L2Accesses += aq.L2Accesses
				p.L2Hits += aq.L2Hits
				p.L2Misses += aq.L2Misses
				p.MissCount += aq.MissCount
				p.MissLatencySum += aq.MissLatencySum
				p.MemStallCycles += aq.MemStallCycles
				p.CoreCycles += st.Cycles
			}
			for _, ch := range sy.Mem().Channels() {
				for a := range st.Apps {
					reads := float64(ch.ReadsDone(a))
					p.DRAMReads += reads
					p.DRAMRowHits += reads * ch.RowHitRate(a)
				}
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		end := uint64(s.quanta()) * s.Quantum
		for sys.Cycle() < end {
			step := uint64(8192)
			if rem := end - sys.Cycle(); rem < step {
				step = rem
			}
			sys.Run(step)
			p.QueueDepthSum += uint64(sys.EventQueueDepth())
			p.QueueDepthSamples++
		}
		p.HostNs += time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		p.Mallocs += after.Mallocs - before.Mallocs
		p.Bytes += after.TotalAlloc - before.TotalAlloc
		p.Cycles += sys.Cycle()
		p.SkipCycles += sys.SkipCycles()
		p.SkipWindows += sys.SkipWindows()
		p.ForcedWakes += sys.ForcedWakes()
		for _, ch := range sys.Mem().Channels() {
			p.BusUtilSum += ch.BusUtilization()
			p.BusUtilSamples++
		}
		tracker, err := sim.NewSlowdownTrackerShared(cfg, specs, ac.c)
		if err != nil {
			return nil, err
		}
		for _, st := range quanta {
			tracker.ActualSlowdowns(st)
		}
		p.stats = append(p.stats, quanta[len(quanta)-1])
	}
	p.AloneCurves, p.AlonePoints, p.AloneSaved = ac.c.Len(), ac.c.Points(), ac.c.SavedCycles()
	p.AloneExtended = uint64(reg.values()["sim.alone_cache.extended_cycles"].Value)
	return p, nil
}

// modelCosts times the quantum-boundary work of the model layers on the
// probe's captured counters: each estimator's Estimate and each
// partitioning policy's decision, in microseconds per call.
func (p *simProbe) modelCosts(n int) map[string]float64 {
	out := map[string]float64{}
	time1 := func(name string, fn func(st *sim.QuantumStats)) {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(p.stats[i%len(p.stats)])
		}
		out[name] = perOp(start, n) / 1e3
	}
	asm, fst, ptca, mise := core.NewASM(), model.NewFST(), model.NewPTCA(), model.NewMISE()
	time1("core.asm_estimate_us", func(st *sim.QuantumStats) { asm.Estimate(st) })
	time1("model.fst_estimate_us", func(st *sim.QuantumStats) { fst.Estimate(st) })
	time1("model.ptca_estimate_us", func(st *sim.QuantumStats) { ptca.Estimate(st) })
	time1("model.mise_estimate_us", func(st *sim.QuantumStats) { mise.Estimate(st) })
	ucp, ac, am := partition.NewUCP(), partition.NewASMCache(nil), partition.NewASMMem(nil)
	time1("partition.ucp_alloc_us", func(st *sim.QuantumStats) { ucp.Allocate(st) })
	time1("partition.asmcache_alloc_us", func(st *sim.QuantumStats) { ac.Allocate(st) })
	time1("partition.asmmem_weights_us", func(st *sim.QuantumStats) { am.Weights(st) })
	return out
}

// evtraceOverheadPct re-runs the probe's first mix bare and with a
// 1-in-256 sampling tracer writing to io.Discard, alternating three times,
// and returns the traced run's extra host time in percent of the bare one.
func (p *simProbe) evtraceOverheadPct() (float64, error) {
	specs, err := resolve(p.firstMix)
	if err != nil {
		return 0, err
	}
	run := func(traced bool) (float64, error) {
		sys, err := sim.New(p.firstCfg, specs)
		if err != nil {
			return 0, err
		}
		var tr *evtrace.Tracer
		if traced {
			tr = evtrace.New(io.Discard, evtrace.Config{SampleEvery: 256})
			sys.SetTracer(tr)
		}
		start := time.Now()
		sys.RunQuanta(p.quanta)
		d := time.Since(start).Seconds()
		if tr != nil {
			if err := tr.Close(); err != nil {
				return 0, err
			}
		}
		return d, nil
	}
	var bare, traced []float64
	for i := 0; i < 3; i++ {
		b, err := run(false)
		if err != nil {
			return 0, err
		}
		t, err := run(true)
		if err != nil {
			return 0, err
		}
		bare, traced = append(bare, b), append(traced, t)
	}
	sort.Float64s(bare)
	sort.Float64s(traced)
	return 100 * (traced[1] - bare[1]) / bare[1], nil
}

// ---------------------------------------------------------------------
// Sinks

// sinkCosts are the per-record costs of the default observers.
type sinkCosts struct {
	JSONLRecordNs, HistRecordNs, SLORecordNs float64
}

// sinkCost feeds n canned quantum records to a JSONL recorder writing to
// io.Discard and to an SLO engine with one qos and one accuracy objective,
// and records n values into a registry histogram.
func sinkCost(n int) (sinkCosts, error) {
	recs := make([]telemetry.QuantumRecord, 16)
	for i := range recs {
		recs[i] = telemetry.QuantumRecord{
			Mix: "mcf+lbm+gcc+povray", App: i % 4, Bench: "mcf", Quantum: i / 4,
			Actual:    1.5 + 0.1*float64(i%4),
			Estimates: map[string]float64{"ASM": 1.6, "FST": 1.9, "PTCA": 2.2, "MISE": 1.4},
			Counters:  telemetry.AppCounters{Retired: 1_000_000, L2Accesses: 40_000, L2Misses: 9_000},
		}
	}
	var out sinkCosts
	jr := telemetry.NewJSONLRecorder(io.Discard)
	start := time.Now()
	for i := 0; i < n; i++ {
		jr.Record(&recs[i%len(recs)])
	}
	out.JSONLRecordNs = perOp(start, n)
	if err := jr.Close(); err != nil {
		return out, err
	}

	h := telemetry.NewRegistry().Histogram("bench_ns")
	rnd := splitmix(1)
	start = time.Now()
	for i := 0; i < n; i++ {
		h.Record(rnd.next() % 1_000_000)
	}
	out.HistRecordNs = perOp(start, n)

	spec, err := slo.Parse([]byte(`{"slos":[
		{"name":"qos","signal":"qos","bound":3},
		{"name":"drift","signal":"accuracy"}]}`))
	if err != nil {
		return out, err
	}
	eng := slo.New(spec, slo.Sinks{})
	start = time.Now()
	for i := 0; i < n; i++ {
		r := recs[i%len(recs)]
		r.Quantum = i/len(recs)*4 + r.Quantum
		eng.Record(&r)
	}
	out.SLORecordNs = perOp(start, n)
	return out, eng.Close()
}

package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// roundResult is one execution of a workload's fixed work.
type roundResult struct {
	Setup time.Duration // inputs resolved and systems constructed
	Wall  time.Duration // the load phase only
	CPU   time.Duration // process user+sys over the load phase
	Instr uint64        // instructions retired by shared runs
	// ItemMS is the latency of each cold work item: one mix, one
	// mix-under-a-scheme, or one cold job from submit to verified table.
	ItemMS    []float64
	Attempted int
	Failures  []string
	Digest    string
	// Extra holds the results only this kind of workload has
	// (asm_err_pct, unfairness_ratio, jobs_per_s, ...).
	Extra map[string]float64

	Samples []sample   // accuracy workloads
	Load    *loadStats // serve_jobs
	End     endState   // serve_jobs
	Reg     *registry  // the registry this round reported into, if any
}

// runner is one workload. setup and round are timed by the caller;
// teardown is not.
type runner interface {
	// setup derives the inputs from the seed and constructs what a round
	// needs before its first timed operation.
	setup(ctx context.Context) error
	// round does the workload's fixed work once. Spans go under parent
	// when tr is not nil; a nil tr is the untraced run.
	round(ctx context.Context, tr *tracer, parent int) (*roundResult, error)
	teardown(ctx context.Context) error
	// probe names the scale and mixes the simulator probes of the traced
	// run use: the workload's own first mixes.
	probe() (simScale, [][]string)
}

func newRunner(name string, seed uint64, sz sizes, outDir string) (runner, error) {
	switch name {
	case wlAccMixed:
		return &accRunner{seed: seed, sz: sz, scale: sz.MixedScale, mixesOf: mixedMixes, workers: runtime.GOMAXPROCS(0)}, nil
	case wlAccMem:
		return &accRunner{seed: seed, sz: sz, scale: sz.MemScale, mixesOf: memMixes, workers: 1}, nil
	case wlPolicySched:
		return &policyRunner{seed: seed, sz: sz}, nil
	case wlServeJobs:
		return &serveRunner{seed: seed, sz: sz, outDir: outDir, clients: runtime.GOMAXPROCS(0)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// parallelItems calls fn(i) for i in [0,n) from the given number of
// goroutines, handing indices out in order, and waits for all of them.
func parallelItems(workers, n int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// slowdownOK is the output check on every slowdown the program reports:
// finite, and not below what clamping and warm-up artefacts allow.
func slowdownOK(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0.9
}

// ---------------------------------------------------------------------
// acc_mixed and acc_mem

// accRunner sweeps mixes through exp.RunAccuracy on one shared alone
// cache that starts empty every round.
type accRunner struct {
	seed    uint64
	sz      sizes
	scale   simScale
	mixesOf func(uint64, sizes) [][]string
	workers int
	mixes   [][]string
}

func (w *accRunner) setup(context.Context) error {
	w.scale.Seed = simSeed(w.seed)
	w.mixes = w.mixesOf(w.seed, w.sz)
	return constructSweep(w.scale, w.mixes)
}

func (w *accRunner) teardown(context.Context) error { return nil }

func (w *accRunner) probe() (simScale, [][]string) {
	return w.scale, probeMixes(w.mixes, w.sz)
}

// probeMixes picks the mixes the simulator probes run, spread over the
// round's mixes so that, where a round repeats apps, the probes do too
// and the alone cache's reuse shows.
func probeMixes(mixes [][]string, sz sizes) [][]string {
	return spread(mixes, min(sz.ProbeMixes, len(mixes)))
}

func (w *accRunner) round(ctx context.Context, tr *tracer, parent int) (*roundResult, error) {
	res := &roundResult{Attempted: len(w.mixes), Extra: map[string]float64{}}
	if tr != nil {
		res.Reg = newRegistry()
	}
	type item struct {
		samples []sample
		instr   uint64
		ms      float64
		err     error
	}
	items := make([]item, len(w.mixes))
	ac := newAloneCache()
	cycles := float64(w.scale.quanta()) * float64(w.scale.Quantum)

	load := tr.begin(parent, "load")
	cpu0, t0 := cpuNow(), time.Now()
	parallelItems(w.workers, len(w.mixes), func(i int) {
		id := tr.begin(load, "item")
		start := time.Now()
		it := &items[i]
		it.samples, it.instr, it.err = accuracyRun(ctx, w.scale, w.mixes[i], i, ac, res.Reg)
		it.ms = ms(time.Since(start))
		tr.end(id, map[string]float64{"instructions": float64(it.instr), "cycles": cycles})
	})
	res.Wall, res.CPU = time.Since(t0), cpuNow()-cpu0
	tr.end(load, map[string]float64{"items": float64(len(items))})

	verify := tr.begin(parent, "verify")
	d := newDigest()
	for i, it := range items {
		res.Instr += it.instr
		res.ItemMS = append(res.ItemMS, it.ms)
		name := fmt.Sprint(w.mixes[i])
		if it.err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("mix %d %s: %v", i, name, it.err))
			continue
		}
		if want := w.scale.Measure * len(w.mixes[i]); len(it.samples) != want {
			res.Failures = append(res.Failures, fmt.Sprintf("mix %d %s: %d samples, want %d", i, name, len(it.samples), want))
			continue
		}
		d.str(name)
		bad := false
		for _, s := range it.samples {
			d.u64(uint64(s.App))
			d.u64(uint64(s.Quantum))
			d.f64(s.Actual)
			bad = bad || !slowdownOK(s.Actual)
			for _, e := range estimatorNames {
				d.f64(s.Est[e])
				bad = bad || !slowdownOK(s.Est[e])
			}
		}
		if bad {
			res.Failures = append(res.Failures, fmt.Sprintf("mix %d %s: a slowdown is not finite or below 0.9", i, name))
			continue
		}
		res.Samples = append(res.Samples, it.samples...)
	}
	res.Digest = d.sum()
	for name, v := range errorPcts(res.Samples) {
		res.Extra[name] = v
	}
	tr.end(verify, map[string]float64{"samples": float64(len(res.Samples))})
	return res, nil
}

// errPctName is the metric each estimator's error is reported under; the
// layer is the module the estimator lives in.
var errPctName = map[string]string{
	"ASM":  "core.asm_err_pct",
	"FST":  "model.fst_err_pct",
	"PTCA": "model.ptca_err_pct",
	"MISE": "model.mise_err_pct",
}

// errorPcts is the paper's accuracy metric per estimator: the mean of
// |estimated - actual| / actual over the samples, in percent.
func errorPcts(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, e := range estimatorNames {
		sum, n := 0.0, 0
		for _, s := range samples {
			if v, ok := s.Est[e]; ok && s.Actual > 0 {
				sum += math.Abs(v-s.Actual) / s.Actual * 100
				n++
			}
		}
		if n > 0 {
			out[errPctName[e]] = sum / float64(n)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// policy_sched

// policyRunner runs every mix under every scheme through exp.RunPolicy,
// one after the other; the schemes of one round share an alone cache.
type policyRunner struct {
	seed  uint64
	sz    sizes
	scale simScale
	mixes [][]string
}

func (w *policyRunner) setup(context.Context) error {
	w.scale = w.sz.PolicyScale
	w.scale.Seed = simSeed(w.seed)
	w.mixes = policyMixes(w.seed, w.sz)
	return constructSweep(w.scale, w.mixes)
}

func (w *policyRunner) teardown(context.Context) error { return nil }

func (w *policyRunner) probe() (simScale, [][]string) {
	return w.scale, probeMixes(w.mixes, w.sz)
}

func (w *policyRunner) round(ctx context.Context, tr *tracer, parent int) (*roundResult, error) {
	res := &roundResult{Attempted: len(w.mixes) * len(policySchemes), Extra: map[string]float64{}}
	if tr != nil {
		res.Reg = newRegistry()
	}
	ac := newAloneCache()
	cycles := float64(w.scale.quanta()) * float64(w.scale.Quantum)
	d := newDigest()
	maxSum := map[string]float64{}
	complete := 0

	load := tr.begin(parent, "load")
	cpu0, t0 := cpuNow(), time.Now()
	type outcome struct {
		slowdowns []float64
		err       error
	}
	outcomes := make([][]outcome, len(w.mixes))
	for i, mix := range w.mixes {
		outcomes[i] = make([]outcome, len(policySchemes))
		for k, scheme := range policySchemes {
			id := tr.begin(load, "item")
			start := time.Now()
			sd, instr, err := policyRun(ctx, w.scale, mix, i, scheme, ac, res.Reg)
			res.ItemMS = append(res.ItemMS, ms(time.Since(start)))
			res.Instr += instr
			outcomes[i][k] = outcome{sd, err}
			tr.end(id, map[string]float64{"instructions": float64(instr), "cycles": cycles})
		}
	}
	res.Wall, res.CPU = time.Since(t0), cpuNow()-cpu0
	tr.end(load, map[string]float64{"items": float64(res.Attempted)})

	verify := tr.begin(parent, "verify")
	for i, mix := range w.mixes {
		ok := true
		for k, scheme := range policySchemes {
			o := outcomes[i][k]
			label := fmt.Sprintf("mix %d %v under %s", i, mix, scheme)
			if o.err != nil {
				res.Failures = append(res.Failures, label+": "+o.err.Error())
				ok = false
				continue
			}
			d.str(label)
			worst := 0.0
			for _, v := range o.slowdowns {
				d.f64(v)
				if !slowdownOK(v) {
					res.Failures = append(res.Failures, label+": a slowdown is not finite or below 0.9")
					ok = false
					break
				}
				worst = math.Max(worst, v)
			}
			maxSum[scheme] += worst
		}
		if ok {
			complete++
		}
	}
	res.Digest = d.sum()
	if complete == len(w.mixes) && maxSum["FRFCFS"] > 0 {
		// Unfairness is the paper's max slowdown (Section 7.1.2); the
		// ratio says how much of FR-FCFS's the coordinated scheme leaves.
		res.Extra["partition.unfairness_ratio"] = maxSum["ASM-Cache-Mem"] / maxSum["FRFCFS"]
		for _, s := range policySchemes {
			res.Extra["max_slowdown."+s] = maxSum[s] / float64(len(w.mixes))
		}
	}
	tr.end(verify, nil)
	return res, nil
}

// ---------------------------------------------------------------------
// serve_jobs

// serveRunner drives an in-process asmserve over loopback HTTP from
// closed-loop clients. The service, its state directory and its result
// cache are new in every round, because every job a script sends to a
// freshly started asmserve pays for them.
type serveRunner struct {
	seed    uint64
	sz      sizes
	outDir  string
	clients int

	list     []jobEntry
	stateDir string
	svc      *service
}

func (w *serveRunner) setup(ctx context.Context) error {
	w.list = jobList(w.seed, w.sz)
	if err := os.MkdirAll(w.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.outDir, "state-")
	if err != nil {
		return err
	}
	w.stateDir = dir
	if w.svc, err = startService(dir); err != nil {
		return err
	}
	return waitReady(ctx, w.svc.URL)
}

func (w *serveRunner) teardown(ctx context.Context) error {
	var err error
	if w.svc != nil {
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err = w.svc.stop(ctx)
		cancel()
		w.svc = nil
	}
	if w.stateDir != "" {
		if rerr := os.RemoveAll(w.stateDir); err == nil {
			err = rerr
		}
		w.stateDir = ""
	}
	return err
}

// probe gives the simulator probes 4-core mixes at the jobs' quantum: a
// fig3 job draws its own mixes inside the program, so the probes take
// the first deals of acc_mixed's design instead.
func (w *serveRunner) probe() (simScale, [][]string) {
	sc := simScale{Quantum: w.sz.Job.Quantum, Epoch: 10_000, Warmup: 1, Measure: w.sz.Job.MeasuredQuanta, Seed: simSeed(w.seed)}
	return sc, probeMixes(mixedMixes(w.seed, w.sz), w.sz)
}

func (w *serveRunner) round(ctx context.Context, tr *tracer, parent int) (*roundResult, error) {
	res := &roundResult{Attempted: len(w.list), Extra: map[string]float64{}, Reg: w.svc.Reg}

	load := tr.begin(parent, "load")
	cpu0 := cpuNow()
	st := runLoad(ctx, w.svc.URL, w.list, w.clients, w.sz, tr, load)
	res.Wall, res.CPU = st.Wall, cpuNow()-cpu0
	tr.end(load, map[string]float64{"jobs": float64(len(w.list)), "polls": float64(st.Polls)})

	verify := tr.begin(parent, "verify")
	res.Load, res.ItemMS, res.Failures = st, st.ColdMS, st.Failures
	res.Instr = uint64(w.svc.Reg.values()["sim.retired"].Value)
	d := newDigest()
	asmSum, asmN := 0.0, 0
	for _, t := range st.Tables {
		d.str(t.ID)
		for _, row := range t.Rows {
			for _, cell := range row {
				d.str(cell)
			}
		}
		if v, ok := averageCell(t, "ASM"); ok {
			asmSum += v
			asmN++
		}
	}
	res.Digest = d.sum()
	if len(st.Failures) == 0 {
		// The service must answer exactly what a direct run answers.
		direct, err := runJobDirect(ctx, w.list[0].Doc, nil)
		if err != nil {
			res.Failures = append(res.Failures, "direct run of the first job: "+err.Error())
		} else if !reflect.DeepEqual(direct, st.Tables[0]) {
			res.Failures = append(res.Failures, "first job's table differs from a direct JobSpec.Run")
		}
	}
	res.Attempted++ // the direct-run comparison
	res.End = w.svc.endState(w.stateDir)
	if tr != nil {
		id := tr.begin(verify, "scrape")
		v, err := scrapeMS(ctx, w.svc.URL, w.sz.Scrapes)
		tr.end(id, map[string]float64{"scrapes": float64(w.sz.Scrapes)})
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
		res.Extra["telemetry.prom_scrape_ms"] = v
	}
	answered := len(st.ColdMS) + len(st.HitMS)
	res.Extra["jobs_per_s"] = float64(answered) / st.Wall.Seconds()
	if asmN > 0 {
		res.Extra["tables.asm_err_pct"] = asmSum / float64(asmN)
	}
	tr.end(verify, map[string]float64{"tables": float64(len(st.Tables))})
	return res, nil
}

// averageCell reads one estimator's cell of a table's AVERAGE row.
func averageCell(t table, estimator string) (float64, bool) {
	col := -1
	for i, h := range t.Header {
		if h == estimator {
			col = i
		}
	}
	for _, row := range t.Rows {
		if col > 0 && col < len(row) && row[0] == "AVERAGE" {
			v, err := parsePct(row[col])
			return v, err == nil
		}
	}
	return 0, false
}

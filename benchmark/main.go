// Command benchmark is asmsim's performance ledger: four fixed-work
// workloads, end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run, all measured from outside the
// program. See README.md and ../BENCHMARK.json.
//
//	bash benchmark/run.sh                      all four workloads, untraced
//	bash benchmark/run.sh -trace 1             all four, traced (per-layer)
//	bash benchmark/run.sh -selfcheck           two untraced sets, compared
//	bash benchmark/run.sh -workload acc_mem -seed 7 -seconds 20 -trace 0
//
// With -workload the last line of standard output is the one JSON object
// the builder's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all four")
	seed := fs.Uint64("seed", 42, "benchmark seed: derives mixes, job order and every simulator seed")
	seconds := fs.Int("seconds", 25, "how long one run repeats its fixed-work round")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	out := fs.String("out", "", "directory for result, span and scratch files (default benchmark/out)")
	selfcheck := fs.Bool("selfcheck", false, "run two untraced sets and compare them against the metrics' own bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	if *out == "" {
		*out = defaultOutDir()
	}
	// All load comes from this one process, on at most four processors.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(ctx, opts, stdout, stderr)
	case *workload == "":
		_, err = runAll(ctx, opts, stdout, stderr)
	default:
		err = runOne(ctx, *workload, opts, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// defaultOutDir is benchmark/out, seen from the repository root or from
// the benchmark directory itself.
func defaultOutDir() string {
	if fi, err := os.Stat("benchmark"); err == nil && fi.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

type options struct {
	Seed    uint64
	Seconds int
	Trace   bool
	OutDir  string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run of one workload measured; it is written
// to <out>/<workload>[-trace].json.
type report struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Rounds     int       `json:"rounds"`
	RoundWallS []float64 `json:"round_wall_s"`
	Result     result    `json:"result"`
	// Extra are the results only this kind of workload has, and the
	// sample counts behind the percentiles.
	Extra map[string]float64 `json:"extra"`
	// Instr and Digest repeat exactly from run to run at one seed.
	Instr      uint64    `json:"instructions_per_round"`
	Digest     string    `json:"result_digest"`
	FailedFrac float64   `json:"failed_frac"`
	Failures   []string  `json:"failures,omitempty"`
	Self       []selfRow `json:"self_time,omitempty"`
}

func (r *report) path(outDir string) string {
	name := r.Workload
	if r.Trace {
		name += "-trace"
	}
	return filepath.Join(outDir, name+".json")
}

// measure runs one workload: the traced run's layer probes first, then
// identical rounds of the workload's fixed work until the time is used.
func measure(ctx context.Context, name string, o options, sz sizes) (*report, error) {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	r, err := newRunner(name, o.Seed, sz, o.OutDir)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Extra: map[string]float64{}}
	var tr *tracer
	if o.Trace {
		tr = newTracer(name)
	}
	root := tr.begin(0, "run")

	// Set-up is short next to a round, so a run first times it on its own,
	// SetupReps times over, and reports the median of those and the
	// rounds' own set-ups.
	var setups []float64
	for i := 0; i < sz.SetupReps; i++ {
		t0 := time.Now()
		err := r.setup(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		if terr := r.teardown(ctx); err == nil {
			err = terr
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	layer := map[string]float64{}
	if o.Trace {
		id := tr.begin(root, "layers")
		var failures []string
		layer, failures, err = layerProbes(ctx, r, o.Seed, sz, o.OutDir, tr, id)
		tr.end(id, nil)
		if err != nil {
			return nil, err
		}
		rep.Failures = append(rep.Failures, failures...)
	}

	// Rounds. In a traced run every other round is left untraced, so that
	// the two kinds can be compared: that difference is the tracing
	// overhead, measured on this machine at this moment.
	var plain, traced []*roundResult
	budget := time.Duration(o.Seconds) * time.Second
	start := time.Now()
	for i := 0; ; i++ {
		rtr := tr
		if i%2 == 1 {
			rtr = nil
		}
		untraced := 0
		if rtr == nil {
			untraced = tr.begin(root, "workload:untraced")
		}
		res, err := oneRound(ctx, r, rtr, root)
		tr.end(untraced, nil)
		if err != nil {
			return nil, err
		}
		if rtr != nil {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		rep.add(res)
		elapsed := time.Since(start)
		enough := !o.Trace || (len(plain) > 0 && len(traced) > 0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if enough && elapsed+elapsed/time.Duration(2*(i+1)) > budget {
			break
		}
	}
	tr.end(root, nil)

	all := append(append([]*roundResult(nil), plain...), traced...)
	rep.Rounds = len(all)
	first := all[0]
	rep.Instr, rep.Digest = first.Instr, first.Digest
	rep.Result.Attempted++ // identical rounds must simulate identical results
	for _, res := range all {
		rep.RoundWallS = append(rep.RoundWallS, res.Wall.Seconds())
		if res.Digest != first.Digest || res.Instr != first.Instr {
			rep.Failures = append(rep.Failures, "identical rounds produced different simulated results")
			break
		}
	}
	last := all[len(all)-1]
	for k, v := range last.Extra {
		rep.Extra[k] = v
	}

	metrics := map[string]float64{}
	if !o.Trace {
		endToEndMetrics(all, setups, metrics, rep.Extra)
	} else {
		for k, v := range layer {
			metrics[k] = v
		}
		lastTraced := traced[len(traced)-1]
		for k, v := range lastTraced.Extra {
			if _, declared := lookup(perLayer, k); declared {
				metrics[k] = v
			}
		}
		if lastTraced.Load != nil {
			serveMetrics(lastTraced, metrics)
		}
		for _, res := range traced {
			wakes := float64(res.Reg.values()["sim.core.forced_wakes"].Value)
			metrics["sim.forced_wakes"] += wakes
		}
		rep.Result.Attempted++
		if metrics["sim.forced_wakes"] > 0 {
			rep.Failures = append(rep.Failures, fmt.Sprintf("sim.forced_wakes = %v, want 0", metrics["sim.forced_wakes"]))
		}
		metrics["bench.trace_overhead_pct"] = 100 * (medianWall(traced) - medianWall(plain)) / medianWall(plain)
		self, err := tr.write(filepath.Join(o.OutDir, "spans-"+name+".json"))
		if err != nil {
			return nil, err
		}
		rep.Self = self
	}

	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	rep.Result.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			rep.Failures = append(rep.Failures, "metric "+d.Name+" was not measured")
		}
		rep.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rep.Result.Attempted += len(defs)
	rep.Result.Failed = len(rep.Failures)
	rep.Result.Correct = rep.Result.Failed == 0
	rep.FailedFrac = float64(rep.Result.Failed) / float64(rep.Result.Attempted)
	return rep, nil
}

// add counts one round's items and keeps its failures.
func (r *report) add(res *roundResult) {
	r.Result.Attempted += res.Attempted
	r.Failures = append(r.Failures, res.Failures...)
}

// oneRound is set-up, the round itself, and tear-down, under one
// "workload" span.
func oneRound(ctx context.Context, r runner, tr *tracer, root int) (*roundResult, error) {
	w := tr.begin(root, "workload")
	defer tr.end(w, nil)
	s := tr.begin(w, "setup")
	t0 := time.Now()
	err := r.setup(ctx)
	setup := time.Since(t0)
	tr.end(s, nil)
	if err != nil {
		r.teardown(ctx)
		return nil, fmt.Errorf("setup: %w", err)
	}
	res, err := r.round(ctx, tr, w)
	if terr := r.teardown(ctx); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	if err != nil {
		return nil, err
	}
	res.Setup = setup
	return res, nil
}

func medianWall(rs []*roundResult) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Wall.Seconds())
	}
	return median(xs)
}

// endToEndMetrics reduces a run's identical rounds to the end-to-end
// metrics and the latencies of the items, pooled over rounds, which only
// serve_jobs' report names as its own.
func endToEndMetrics(rounds []*roundResult, setup []float64, m, extra map[string]float64) {
	var wall, cpu, items, hits []float64
	for _, r := range rounds {
		setup = append(setup, r.Setup.Seconds())
		wall = append(wall, r.Wall.Seconds())
		cpu = append(cpu, r.CPU.Seconds())
		items = append(items, r.ItemMS...)
		if r.Load != nil {
			hits = append(hits, r.Load.HitMS...)
		}
	}
	// Interference from other tenants of the host only ever adds time, and
	// on the reference sandbox it adds 10-30% in bursts that last from
	// seconds to minutes while reporting no steal time. The fastest of the
	// identical rounds is therefore the steadiest estimate of the
	// program's own cost (half the run-to-run spread of the median), as
	// ROADMAP item 1's min-of-N asks. Set-up is a median, as the builder's
	// contract wants it.
	m["setup_s"] = median(setup)
	m["wall_s"] = slices.Min(wall)
	m["cpu_s"] = slices.Min(cpu)
	m["sim_mips"] = float64(rounds[0].Instr) / 1e6 / m["wall_s"]
	m["peak_rss_mb"] = peakRSSMB()
	extra["item_p50_ms"] = median(items)
	extra["items_n"] = float64(len(items))
	if len(hits) > 0 {
		// serve_jobs' own names for its latencies (n is printed beside).
		p, v := capped95(items)
		extra["cold_p50_ms"] = median(items)
		extra[fmt.Sprintf("cold_p%v_ms", p)] = v
		extra["hit_p50_ms"] = median(hits)
		extra["hits_n"] = float64(len(hits))
	}
}

func lookup(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// print writes the human-readable report, then the contract's JSON line.
func (r *report) print(w io.Writer) error {
	mode := "untraced: end-to-end metrics"
	if r.Trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  GOMAXPROCS=%d  rounds=%d ==\n", r.Workload, r.Seed, mode, r.GOMAXPROCS, r.Rounds)
	fmt.Fprintf(w, "  why: %s\n", workloadWhy[r.Workload])
	fmt.Fprintf(w, "  round wall_s:")
	for _, s := range r.RoundWallS {
		fmt.Fprintf(w, " %.3f", s)
	}
	fmt.Fprintln(w)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, r.Result.Metrics[d.Name].Value, d.Unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(w, "  %-32s %14.6g (this workload only)\n", k, r.Extra[k])
	}
	fmt.Fprintf(w, "  %-32s %14d\n", "instructions_per_round", r.Instr)
	fmt.Fprintf(w, "  %-32s %s\n", "result_digest", r.Digest)
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%.6f\n", r.Result.Attempted, r.Result.Failed, r.FailedFrac)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if len(r.Self) > 0 {
		fmt.Fprint(w, formatSelfTable(r.Self))
	}
	line, err := json.Marshal(r.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runOne measures one workload in this process, writes its report file
// and prints it. A failed output check is an error: the command exits
// non-zero and never hides a failed sample.
func runOne(ctx context.Context, name string, o options, stdout io.Writer) error {
	rep, err := measure(ctx, name, o, fullSizes)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(rep.path(o.OutDir), b, 0o644); err != nil {
		return err
	}
	if err := rep.print(stdout); err != nil {
		return err
	}
	if !rep.Result.Correct {
		return fmt.Errorf("%s: %d output checks failed", name, len(rep.Failures))
	}
	return nil
}

// runAll runs every workload, each in a child process of its own so that
// cpu_s and peak_rss_mb are that workload's alone, and collects the
// children's report files.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) ([]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []*report
	var failed []string
	for _, name := range workloadNames {
		trace := "0"
		if o.Trace {
			trace = "1"
		}
		cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(o.Seed),
			"-seconds", fmt.Sprint(o.Seconds), "-trace", trace, "-out", o.OutDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		rep := &report{Workload: name, Trace: o.Trace}
		b, err := os.ReadFile(rep.path(o.OutDir))
		if err == nil {
			err = json.Unmarshal(b, rep)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: no report (%v): %w", name, runErr, err)
		}
		if runErr != nil {
			failed = append(failed, name)
		}
		reps = append(reps, rep)
	}
	summarize(stdout, reps)
	if err := writeCombined(o, reps); err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return reps, fmt.Errorf("output checks failed on %v", failed)
	}
	return reps, nil
}

// summarize prints one row per workload of the end-to-end metrics (the
// per-layer metrics are too many for a row; each child printed its own).
func summarize(w io.Writer, reps []*report) {
	if len(reps) == 0 || reps[0].Trace {
		return
	}
	fmt.Fprintf(w, "\n%-14s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %14s", d.Name)
	}
	fmt.Fprintf(w, " %12s\n", "failed_frac")
	for _, r := range reps {
		fmt.Fprintf(w, "%-14s", r.Workload)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %14.5g", r.Result.Metrics[d.Name].Value)
		}
		fmt.Fprintf(w, " %12.6f\n", r.FailedFrac)
	}
}

// writeCombined stores the set's reports in one file and, for a traced
// set, the four span files in one spans.json.
func writeCombined(o options, reps []*report) error {
	name := "results.json"
	if o.Trace {
		name = "results-trace.json"
		var docs []json.RawMessage
		for _, r := range reps {
			b, err := os.ReadFile(filepath.Join(o.OutDir, "spans-"+r.Workload+".json"))
			if err != nil {
				return err
			}
			docs = append(docs, b)
		}
		b, err := json.Marshal(docs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.OutDir, "spans.json"), b, 0o644); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(reps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.OutDir, name), b, 0o644)
}

// selfCheck runs two full untraced sets back to back and holds them to
// the benchmark's own rules: every end-to-end metric within its bound of
// the other set's, every deterministic result identical.
func selfCheck(ctx context.Context, o options, stdout, stderr io.Writer) error {
	o.Trace = false
	a, err := runAll(ctx, o, stdout, stderr)
	if err != nil {
		return err
	}
	b, err := runAll(ctx, o, stdout, stderr)
	if err != nil {
		return err
	}
	bad := compareSets(stdout, a, b)
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons disagree", bad)
	}
	return nil
}

// deterministicExtras are the workload-specific results that must repeat
// exactly at one seed.
var deterministicExtras = []string{"core.asm_err_pct", "model.fst_err_pct", "model.ptca_err_pct", "model.mise_err_pct", "partition.unfairness_ratio", "tables.asm_err_pct"}

// compareSets prints the comparison table and returns how many rows
// disagree.
func compareSets(w io.Writer, a, b []*report) int {
	bad := 0
	verdict := func(ok bool, yes, no string) string {
		if ok {
			return yes
		}
		bad++
		return no
	}
	fmt.Fprintf(w, "\n%-14s %-24s %14s %14s %9s  %s\n", "workload", "metric", "first", "second", "diff", "verdict")
	for i := range a {
		ra, rb := a[i], b[i]
		for _, d := range endToEnd {
			va, vb := ra.Result.Metrics[d.Name].Value, rb.Result.Metrics[d.Name].Value
			diff := (vb - va) / va
			ok := diff <= d.Bound && diff >= -d.Bound
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+8.2f%%  %s (bound %.0f%%)\n", ra.Workload, d.Name, va, vb,
				100*diff, verdict(ok, "agree", "DISAGREE"), 100*d.Bound)
		}
		fmt.Fprintf(w, "%-14s %-24s %14d %14d %9s  %s\n", ra.Workload, "instructions_per_round", ra.Instr, rb.Instr, "",
			verdict(ra.Instr == rb.Instr, "exact", "MISMATCH"))
		fmt.Fprintf(w, "%-14s %-24s %14.12s %14.12s %9s  %s\n", ra.Workload, "result_digest", ra.Digest, rb.Digest, "",
			verdict(ra.Digest == rb.Digest, "exact", "MISMATCH"))
		for _, k := range deterministicExtras {
			va, ok := ra.Extra[k]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-14s %-24s %14.9g %14.9g %9s  %s\n", ra.Workload, k, va, rb.Extra[k], "",
				verdict(va == rb.Extra[k], "exact", "MISMATCH"))
		}
	}
	return bad
}

package main

import (
	"fmt"
	"time"
)

// sizes fixes how much work one round of each workload is. They are
// constants of the benchmark: no flag or environment variable changes
// them, so two commits always do identical work. (The builder's contract
// fixes the keys of BENCHMARK.json, so the sizes live here and are
// repeated in README.md.)
type sizes struct {
	// acc_mixed: every SPEC+NAS app appears MixedReps times per round,
	// dealt into 4-core mixes; parallel over GOMAXPROCS workers.
	MixedReps  int
	MixedScale simScale
	// acc_mem: all but one of the high-intensity apps, each MemReps
	// times, dealt into 4-core mixes; one goroutine.
	MemReps  int
	MemScale simScale
	// policy_sched: PolicyMixes 8-core mixes, each with the pool's
	// low/medium/high proportions, under every scheme; one goroutine.
	PolicyMixes int
	PolicyScale simScale
	// serve_jobs: ColdJobs distinct fig3 jobs and HitsPerCold times as
	// many re-submissions of finished ones. A hit targets a job at least
	// HitGap cold jobs back in the list, so it is finished when asked for.
	ColdJobs    int
	HitsPerCold int
	HitGap      int
	Job         jobDoc
	Poll        time.Duration
	JobDeadline time.Duration
	// SetupReps is how many extra times a run sets the workload up (and
	// tears it down again) to time set-up alone.
	SetupReps int
	// Probes of the traced run.
	ProbeMixes     int
	GenInstr       int    // instructions per benchmark for workload.*
	CoreCycles     uint64 // cycles for cpu.*
	CacheOps       int
	DRAMRequests   int
	DRAMTicks      int
	ModelCalls     int
	SinkRecords    int
	JournalAppends int
	ExpJob         jobDoc // the fig3 job behind exp.*
	ServeCold      int    // cold jobs of the serve session behind serve.*
	Scrapes        int
}

// fullSizes is the benchmark. One round of each workload takes 2.5-3.5 s
// on two cores, so a 25 s run measures seven to ten identical rounds.
var fullSizes = sizes{
	MixedReps:   2,
	MixedScale:  simScale{Quantum: 1_000_000, Epoch: 10_000, Warmup: 1, Measure: 1},
	MemReps:     2,
	MemScale:    simScale{Quantum: 5_000_000, Epoch: 10_000, Warmup: 1, Measure: 1},
	PolicyMixes: 2,
	PolicyScale: simScale{Quantum: 1_000_000, Epoch: 10_000, Warmup: 1, Measure: 1},
	ColdJobs:    120,
	HitsPerCold: 3,
	HitGap:      8,
	Job:         jobDoc{Experiment: "fig3", Workloads: 2, MeasuredQuanta: 1, Quantum: 100_000},
	Poll:        2 * time.Millisecond,
	JobDeadline: 60 * time.Second,
	SetupReps:   15,

	ProbeMixes:     3,
	GenInstr:       200_000,
	CoreCycles:     2_000_000,
	CacheOps:       1_000_000,
	DRAMRequests:   50_000,
	DRAMTicks:      2_000_000,
	ModelCalls:     2_000,
	SinkRecords:    100_000,
	JournalAppends: 50,
	ExpJob:         jobDoc{Experiment: "fig3", Workloads: 6},
	ServeCold:      70,
	Scrapes:        20,
}

// quickSizes is the miniature the tests run: the same code paths, small
// enough for the whole package to pass in seconds.
var quickSizes = sizes{
	MixedReps:   1,
	MixedScale:  simScale{Quantum: 50_000, Epoch: 10_000, Warmup: 1, Measure: 1},
	MemReps:     1,
	MemScale:    simScale{Quantum: 100_000, Epoch: 10_000, Warmup: 1, Measure: 1},
	PolicyMixes: 1,
	PolicyScale: simScale{Quantum: 50_000, Epoch: 10_000, Warmup: 1, Measure: 1},
	ColdJobs:    10,
	HitsPerCold: 3,
	HitGap:      2,
	Job:         jobDoc{Experiment: "fig3", Workloads: 1, MeasuredQuanta: 1, Quantum: 50_000},
	Poll:        time.Millisecond,
	JobDeadline: 30 * time.Second,
	SetupReps:   1,

	ProbeMixes:     1,
	GenInstr:       2_000,
	CoreCycles:     20_000,
	CacheOps:       10_000,
	DRAMRequests:   500,
	DRAMTicks:      10_000,
	ModelCalls:     20,
	SinkRecords:    1_000,
	JournalAppends: 3,
	ExpJob:         jobDoc{Experiment: "fig3", Workloads: 2, MeasuredQuanta: 1, Quantum: 50_000},
	ServeCold:      3,
	Scrapes:        2,
}

// Workload names, in report order.
const (
	wlAccMixed    = "acc_mixed"
	wlAccMem      = "acc_mem"
	wlPolicySched = "policy_sched"
	wlServeJobs   = "serve_jobs"
)

var workloadNames = []string{wlAccMixed, wlAccMem, wlPolicySched, wlServeJobs}

// simSeed derives the simulator seed of a run from the benchmark seed:
// every instruction stream, epoch lottery and scheduler draw changes with
// it. It is never zero (zero means "inherit" to the program).
func simSeed(seed uint64) uint64 {
	r := splitmix(seed)
	return r.next()>>1 | 1
}

func names(apps []app) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

func ofClass(pool []app, class int) []app {
	var out []app
	for _, a := range pool {
		if a.Class == class {
			out = append(out, a)
		}
	}
	return out
}

// dealMixes deals apps into mixes of the given width, reps times over,
// each time in a fresh seeded order. Every app therefore appears exactly
// reps times per round whatever the seed: the seed decides who shares a
// machine with whom, and on which core, not how much work there is. That
// is what keeps a round's cost comparable from seed to seed. A deal that
// produces a mix accepted() refuses is dealt again.
func dealMixes(rnd *splitmix, apps []app, width, reps int, accepted func([]app) bool) [][]string {
	if len(apps)%width != 0 {
		panic(fmt.Sprintf("dealMixes: %d apps do not fill %d-wide mixes", len(apps), width))
	}
	var mixes [][]string
	for r := 0; r < reps; r++ {
	deal:
		for {
			order := append([]app(nil), apps...)
			shuffle(rnd, order)
			var dealt [][]string
			for i := 0; i < len(order); i += width {
				group := order[i : i+width]
				if accepted != nil && !accepted(group) {
					continue deal
				}
				dealt = append(dealt, names(group))
			}
			mixes = append(mixes, dealt...)
			break
		}
	}
	return mixes
}

// someContention is the program's own rule for a random mix
// (workload.RandomMixes): at least one app above low intensity.
func someContention(group []app) bool {
	for _, a := range group {
		if a.Class != classLow {
			return true
		}
	}
	return false
}

// mixedMixes are acc_mixed's inputs: the whole pool, MixedReps times.
func mixedMixes(seed uint64, sz sizes) [][]string {
	rnd := splitmix(seed ^ 0xacc1)
	return dealMixes(&rnd, suitePool(), 4, sz.MixedReps, someContention)
}

// memMixes are acc_mem's inputs: the high-intensity apps in suite order,
// without the last so that the rest fill 4-core mixes, MemReps times.
func memMixes(seed uint64, sz sizes) [][]string {
	rnd := splitmix(seed ^ 0xacc2)
	high := ofClass(suitePool(), classHigh)
	return dealMixes(&rnd, high[:len(high)/4*4], 4, sz.MemReps, nil)
}

// policyPerMix is the make-up of one policy_sched mix by intensity class:
// the pool's own 9:14:13 proportions at 8 cores.
var policyPerMix = []int{classLow: 2, classMedium: 3, classHigh: 3}

// spread picks k of xs at even spacing, keeping their order.
func spread[T any](xs []T, k int) []T {
	out := make([]T, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k]
	}
	return out
}

// policyMixes are policy_sched's inputs: PolicyMixes 8-core mixes of 2
// low, 3 medium and 3 high-intensity apps, no app used twice in a round.
// Which apps take part is fixed (an even spread over each class in suite
// order), because eight apps drawn from thirty-six change a round's cost
// by a third from draw to draw; the seed deals them into mixes and cores.
func policyMixes(seed uint64, sz sizes) [][]string {
	rnd := splitmix(seed ^ 0xacc3)
	pool := suitePool()
	mixes := make([][]string, sz.PolicyMixes)
	for class, k := range policyPerMix {
		members := spread(ofClass(pool, class), k*sz.PolicyMixes)
		shuffle(&rnd, members)
		for m := range mixes {
			mixes[m] = append(mixes[m], names(members[m*k:(m+1)*k])...)
		}
	}
	for m := range mixes {
		shuffle(&rnd, mixes[m])
	}
	return mixes
}

// jobEntry is one request of serve_jobs' list. A hit re-submits the
// document of the cold job at index Twin.
type jobEntry struct {
	Doc  jobDoc
	Cold bool
	Twin int // index into the list of cold jobs
}

// jobList is serve_jobs' fixed request order: cold jobs with distinct
// seeds, each followed (once HitGap cold jobs are behind it) by
// HitsPerCold hits on seeded picks among the jobs at least HitGap back;
// the hits the first jobs could not carry are appended at the end, so
// there are always ColdJobs*HitsPerCold of them.
func jobList(seed uint64, sz sizes) []jobEntry {
	rnd := splitmix(seed ^ 0xacc4)
	base := simSeed(seed) % (1 << 40)
	cold := make([]jobDoc, sz.ColdJobs)
	for i := range cold {
		cold[i] = sz.Job
		cold[i].Seed = base + uint64(i)
	}
	var list []jobEntry
	hit := func(latest int) {
		twin := rnd.intn(latest + 1)
		list = append(list, jobEntry{Doc: cold[twin], Twin: twin})
	}
	owed := 0
	for i := range cold {
		list = append(list, jobEntry{Doc: cold[i], Cold: true, Twin: i})
		if i < sz.HitGap {
			owed += sz.HitsPerCold
			continue
		}
		for h := 0; h < sz.HitsPerCold; h++ {
			hit(i - sz.HitGap)
		}
	}
	for ; owed > 0; owed-- {
		hit(len(cold) - 1 - sz.HitGap)
	}
	return list
}

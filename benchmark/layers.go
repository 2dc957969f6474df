package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// layerProbes runs the traced run's fixed-work drivers, one span each
// under parent, and returns the per-layer metrics that do not depend on
// the workload's rounds. Every driver times calls into one layer's public
// functions; what it measures and which end-to-end metric it should move
// is tabulated in README.md.
func layerProbes(ctx context.Context, r runner, seed uint64, sz sizes, outDir string, tr *tracer, parent int) (map[string]float64, []string, error) {
	m := map[string]float64{}
	var failures []string
	pool := suitePool()
	simseed := simSeed(seed)

	var probe *simProbe
	steps := []struct {
		name string
		fn   func(span int) (map[string]float64, error)
	}{
		{"layer:workload", func(span int) (map[string]float64, error) {
			ns, n1, err := genCost(names(pool), simseed, sz.GenInstr)
			if err != nil {
				return nil, err
			}
			nsMem, n2, err := genCost(names(ofClass(pool, classHigh)), simseed, sz.GenInstr)
			m["workload.gen_ns_per_instr"], m["workload.gen_ns_per_instr_mem"] = ns, nsMem
			return map[string]float64{"instructions": float64(n1 + n2)}, err
		}},
		{"layer:cpu", func(span int) (map[string]float64, error) {
			ns, ipc, err := coreCost(simseed, sz.CoreCycles, false)
			if err != nil {
				return nil, err
			}
			nsBlocked, _, err := coreCost(simseed, sz.CoreCycles, true)
			m["cpu.tick_ns_per_cycle"], m["cpu.stub_ipc"], m["cpu.tick_ns_per_cycle_blocked"] = ns, ipc, nsBlocked
			return map[string]float64{"cycles": 2 * float64(sz.CoreCycles)}, err
		}},
		{"layer:cache", func(span int) (map[string]float64, error) {
			c := cacheCost(simseed, sz.CacheOps)
			m["cache.lookup_ns"], m["cache.insert_ns"] = c.LookupNs, c.InsertNs
			m["cache.ats_access_ns"], m["cache.mshr_cycle_ns"] = c.ATSAccessNs, c.MSHRCycleNs
			m["cache.mshr_allocs_per_op"] = c.MSHRAllocsPerOp
			return map[string]float64{"ops": 4 * float64(c.Ops)}, nil
		}},
		{"layer:dram", func(span int) (map[string]float64, error) {
			for _, p := range []string{"FRFCFS", "PARBS", "TCM"} {
				ns, err := dramStreamCost(p, simseed, sz.DRAMRequests)
				if err != nil {
					return nil, err
				}
				m["dram."+strings.ToLower(p)+"_ns_per_req"] = ns
			}
			m["dram.idle_tick_ns"] = dramIdleTickCost(sz.DRAMTicks)
			m["dram.skipticks_ns"] = dramSkipTicksCost(sz.DRAMTicks)
			return map[string]float64{"requests": 3 * float64(sz.DRAMRequests), "ticks": 2 * float64(sz.DRAMTicks)}, nil
		}},
		{"layer:sim", func(span int) (map[string]float64, error) {
			scale, mixes := r.probe()
			var err error
			if probe, err = probeSim(scale, mixes); err != nil {
				return nil, err
			}
			simMetrics(probe, m)
			return map[string]float64{"cycles": float64(probe.Cycles), "instructions": float64(probe.Instr)}, nil
		}},
		{"layer:model", func(span int) (map[string]float64, error) {
			costs := probe.modelCosts(sz.ModelCalls)
			for k, v := range costs {
				m[k] = v
			}
			return map[string]float64{"calls": float64(len(costs) * sz.ModelCalls)}, nil
		}},
		{"layer:evtrace", func(span int) (map[string]float64, error) {
			var err error
			m["evtrace.run_overhead_pct"], err = probe.evtraceOverheadPct()
			return nil, err
		}},
		{"layer:accuracy", func(span int) (map[string]float64, error) {
			if _, sweeps := r.(*accRunner); sweeps {
				return nil, nil // its rounds report the whole sweep's error
			}
			scale, mixes := r.probe()
			ac := newAloneCache()
			var all []sample
			for i, mix := range mixes {
				s, _, err := accuracyRun(ctx, scale, mix, i, ac, nil)
				if err != nil {
					return nil, err
				}
				all = append(all, s...)
			}
			for k, v := range errorPcts(all) {
				m[k] = v
			}
			return map[string]float64{"samples": float64(len(all))}, nil
		}},
		{"layer:exp", func(span int) (map[string]float64, error) {
			return expProbe(ctx, seed, sz, m)
		}},
		{"layer:sinks", func(span int) (map[string]float64, error) {
			c, err := sinkCost(sz.SinkRecords)
			m["telemetry.jsonl_record_ns"], m["telemetry.hist_record_ns"], m["slo.record_ns"] = c.JSONLRecordNs, c.HistRecordNs, c.SLORecordNs
			return map[string]float64{"records": 3 * float64(sz.SinkRecords)}, err
		}},
		{"layer:journal", func(span int) (map[string]float64, error) {
			dir, err := os.MkdirTemp(outDir, "journal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			m["serve.journal_append_us"], err = journalAppendUs(dir, sz.JournalAppends)
			return map[string]float64{"appends": float64(sz.JournalAppends)}, err
		}},
		{"layer:serve", func(span int) (map[string]float64, error) {
			if _, ok := r.(*serveRunner); ok {
				return nil, nil // its traced rounds are the session
			}
			small := sz
			small.ColdJobs = sz.ServeCold
			s := &serveRunner{seed: seed, sz: small, outDir: outDir, clients: runtime.GOMAXPROCS(0)}
			err := s.setup(ctx)
			if err != nil {
				s.teardown(ctx)
				return nil, err
			}
			res, err := s.round(ctx, tr, span)
			if terr := s.teardown(ctx); err == nil {
				err = terr
			}
			if err != nil {
				return nil, err
			}
			failures = append(failures, res.Failures...)
			serveMetrics(res, m)
			return map[string]float64{"jobs": float64(res.Attempted)}, nil
		}},
	}
	for _, s := range steps {
		id := tr.begin(parent, s.name)
		counts, err := s.fn(id)
		tr.end(id, counts)
		if err != nil {
			return m, failures, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return m, failures, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simMetrics turns a simulator probe into the sim.* metrics: host cost
// per simulated unit, then the modelled machine's own statistics.
func simMetrics(p *simProbe, m map[string]float64) {
	mcycles := float64(p.Cycles) / 1e6
	m["sim.host_ns_per_cycle"] = ratio(float64(p.HostNs), float64(p.Cycles))
	m["sim.host_ns_per_instr"] = ratio(float64(p.HostNs), float64(p.Instr))
	m["sim.skip_ratio"] = ratio(float64(p.SkipCycles), float64(p.Cycles))
	m["sim.skip_windows"] = float64(p.SkipWindows)
	m["sim.allocs_per_mcycle"] = ratio(float64(p.Mallocs), mcycles)
	m["sim.bytes_per_mcycle"] = ratio(float64(p.Bytes), mcycles)
	m["sim.event_queue_depth"] = ratio(float64(p.QueueDepthSum), float64(p.QueueDepthSamples))
	m["sim.forced_wakes"] = float64(p.ForcedWakes)
	m["sim.ipc"] = ratio(float64(p.Instr), float64(p.CoreCycles))
	m["sim.mpki"] = ratio(1000*float64(p.L2Misses), float64(p.Instr))
	m["sim.l2_hit_rate"] = ratio(float64(p.L2Hits), float64(p.L2Accesses))
	m["sim.avg_miss_latency_cycles"] = ratio(float64(p.MissLatencySum), float64(p.MissCount))
	m["sim.dram_row_hit_rate"] = ratio(p.DRAMRowHits, p.DRAMReads)
	m["sim.dram_bus_util"] = ratio(p.BusUtilSum, float64(p.BusUtilSamples))
	m["sim.mem_stall_frac"] = ratio(float64(p.MemStallCycles), float64(p.CoreCycles))
	m["sim.alone_saved_frac"] = ratio(float64(p.AloneSaved), float64(p.AloneSaved+p.AloneExtended))
	m["sim.alone_curves"] = float64(p.AloneCurves)
	m["sim.alone_points"] = float64(p.AlonePoints)
}

// expProbe runs one fig3 job through exp.JobSpec.Run, the path a
// cmd/experiments user takes, and reads how well exp's own worker pool
// kept the processors busy.
func expProbe(ctx context.Context, seed uint64, sz sizes, m map[string]float64) (map[string]float64, error) {
	doc := sz.ExpJob
	doc.Seed = simSeed(seed) % (1 << 40)
	reg := newRegistry()
	cpu0, t0 := cpuNow(), time.Now()
	t, err := runJobDirect(ctx, doc, reg)
	wall, cpu := time.Since(t0), cpuNow()-cpu0
	if err != nil {
		return nil, err
	}
	if err := checkTable(t); err != nil {
		return nil, err
	}
	var itemMS []float64
	vals := reg.values()
	for name, v := range vals {
		if strings.HasPrefix(name, "exp.item.") && v.Value > 0 {
			itemMS = append(itemMS, float64(v.TotalNs)/float64(v.Value)/1e6)
		}
	}
	workers := float64(runtime.GOMAXPROCS(0))
	m["exp.worker_util_pct"] = 100 * cpu.Seconds() / (wall.Seconds() * workers)
	m["exp.item_ms_p50"] = median(itemMS)
	m["exp.item_ms_max"] = float64(vals["exp.item"].MaxNs) / 1e6
	m["exp.tail_idle_s"] = float64(vals["exp.capacity_ns"].Value-vals["exp.busy_ns"].Value) / 1e9
	return map[string]float64{"items": float64(len(itemMS))}, nil
}

// capped95 returns the 95th percentile, or the highest percentile the
// sample supports when that is lower, and the value there.
func capped95(xs []float64) (p, v float64) {
	p = min(95, tailPercentile(len(xs)))
	return p, percentile(xs, p)
}

// serveMetrics turns one session against the service into the serve.*
// metrics (client side, registry side, end state) and the two bench.*
// metrics that qualify the load generator.
func serveMetrics(res *roundResult, m map[string]float64) {
	st, reg := res.Load, res.Reg
	m["serve.submit_ms_p50"] = median(st.SubmitMS)
	m["serve.fetch_ms_p50"] = median(st.FetchMS)
	m["serve.poll_requests"] = float64(st.Polls)
	m["serve.cold_ms_p50"] = median(st.ColdMS)
	m["serve.hit_ms_p50"] = median(st.HitMS)
	_, m["serve.hit_ms_p95"] = capped95(st.HitMS)
	m["serve.jobs_per_s"] = res.Extra["jobs_per_s"]

	m["serve.queue_wait_ms_p50"] = reg.histQuantile("serve.queue_wait_ns", 0.50) / 1e6
	m["serve.queue_wait_ms_p95"] = reg.histQuantile("serve.queue_wait_ns", 0.95) / 1e6
	m["serve.attempt_ms_p50"] = reg.histQuantile("serve.attempt_ns", 0.50) / 1e6
	m["serve.journal_fsync_us_p50"] = reg.histQuantile("serve.journal_fsync_ns", 0.50) / 1e3
	m["serve.journal_fsync_us_p95"] = reg.histQuantile("serve.journal_fsync_ns", 0.95) / 1e3
	vals := reg.values()
	m["serve.cache_hit_ratio"] = ratio(float64(vals["serve.cache_hits"].Value), float64(vals["serve.submitted"].Value))
	m["serve.shed"] = float64(vals["serve.shed"].Value)
	m["serve.retries"] = float64(vals["serve.retries"].Value)

	m["serve.heap_mb_end"] = res.End.HeapMB
	m["serve.goroutines_end"] = float64(res.End.Goroutines)
	m["serve.state_dir_kb"] = res.End.StateDirKB
	m["serve.jobs_listed"] = float64(res.End.JobsListed)
	m["telemetry.prom_scrape_ms"] = res.Extra["telemetry.prom_scrape_ms"]

	var busy time.Duration
	for _, b := range st.Busy {
		busy += b
	}
	m["bench.client_idle_frac"] = 1 - ratio(busy.Seconds(), st.Wall.Seconds()*float64(len(st.Busy)))
	m["bench.poll_quantum_ms"] = ratio(ms(st.Waited), float64(st.Polls))
}

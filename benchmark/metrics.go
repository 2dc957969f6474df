package main

// metricDef declares one metric of BENCHMARK.json. The lists below are
// the harness's copy of that file's end_to_end and per_layer sections;
// TestBenchmarkJSONMatchesHarness keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the untraced run. A bound is the share of the parent's
// median by which the metric may get worse before a change is a
// regression.
//
//	wall_s       host time of one round of the workload's fixed work
//	cpu_s        process user+system CPU over the same round
//	sim_mips     instructions retired by shared runs per host second
//	peak_rss_mb  maximum resident set of the process
//	setup_s      inputs resolved and every modelled system (or the
//	             service, up to /readyz) constructed, before each round
//
// wall_s and cpu_s are the fastest of one run's identical rounds (see
// endToEndMetrics for why not the median); setup_s is a median.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "sim_mips", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, reported by every workload
// from the traced run. The layer is the module name before the dot.
var perLayer = []metricDef{
	{Name: "workload.gen_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "workload.gen_ns_per_instr_mem", Unit: "ns", Better: "lower"},

	{Name: "cpu.tick_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "cpu.tick_ns_per_cycle_blocked", Unit: "ns", Better: "lower"},
	{Name: "cpu.stub_ipc", Unit: "instr/cycle", Better: "higher"},

	{Name: "cache.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.ats_access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.mshr_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.mshr_allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "dram.frfcfs_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "dram.parbs_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "dram.tcm_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "dram.idle_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "dram.skipticks_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.host_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.host_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "sim.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.skip_windows", Unit: "count", Better: "higher"},
	{Name: "sim.allocs_per_mcycle", Unit: "1/Mcycle", Better: "lower"},
	{Name: "sim.bytes_per_mcycle", Unit: "B/Mcycle", Better: "lower"},
	{Name: "sim.event_queue_depth", Unit: "count", Better: "lower"},
	{Name: "sim.forced_wakes", Unit: "count", Better: "lower"},
	{Name: "sim.ipc", Unit: "instr/cycle", Better: "higher"},
	{Name: "sim.mpki", Unit: "1/kinstr", Better: "lower"},
	{Name: "sim.l2_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.avg_miss_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.dram_row_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.dram_bus_util", Unit: "ratio", Better: "higher"},
	{Name: "sim.mem_stall_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.alone_saved_frac", Unit: "ratio", Better: "higher"},
	{Name: "sim.alone_curves", Unit: "count", Better: "lower"},
	{Name: "sim.alone_points", Unit: "count", Better: "lower"},

	{Name: "core.asm_estimate_us", Unit: "us", Better: "lower"},
	{Name: "model.fst_estimate_us", Unit: "us", Better: "lower"},
	{Name: "model.ptca_estimate_us", Unit: "us", Better: "lower"},
	{Name: "model.mise_estimate_us", Unit: "us", Better: "lower"},
	{Name: "core.asm_err_pct", Unit: "%", Better: "lower"},
	{Name: "model.fst_err_pct", Unit: "%", Better: "lower"},
	{Name: "model.ptca_err_pct", Unit: "%", Better: "lower"},
	{Name: "model.mise_err_pct", Unit: "%", Better: "lower"},

	{Name: "partition.ucp_alloc_us", Unit: "us", Better: "lower"},
	{Name: "partition.asmcache_alloc_us", Unit: "us", Better: "lower"},
	{Name: "partition.asmmem_weights_us", Unit: "us", Better: "lower"},

	{Name: "exp.worker_util_pct", Unit: "%", Better: "higher"},
	{Name: "exp.item_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exp.item_ms_max", Unit: "ms", Better: "lower"},
	{Name: "exp.tail_idle_s", Unit: "s", Better: "lower"},

	{Name: "telemetry.jsonl_record_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.prom_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "slo.record_ns", Unit: "ns", Better: "lower"},
	{Name: "evtrace.run_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "serve.jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "serve.cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.poll_requests", Unit: "count", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.attempt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.journal_fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.journal_fsync_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.retries", Unit: "count", Better: "lower"},
	{Name: "serve.heap_mb_end", Unit: "MB", Better: "lower"},
	{Name: "serve.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "serve.state_dir_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.jobs_listed", Unit: "count", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.client_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.poll_quantum_ms", Unit: "ms", Better: "lower"},
}

// workloadWhy is each workload's one-line reason to exist, as
// BENCHMARK.json states it.
var workloadWhy = map[string]string{
	wlAccMixed:    "fig3-style accuracy sweep over every SPEC+NAS app, 2 workers: generator and core fetch dominate, skip-ahead idle",
	wlAccMem:      "memory-intensive mixes at the paper's Q=5M, one goroutine: DRAM, the L2/MSHR miss path and skip-ahead dominate",
	wlPolicySched: "8-core mixes under FRFCFS, PARBS, TCM, PARBS+UCP, ASM-Cache-Mem: ticked schedulers, partitioners, deeper event heap",
	wlServeJobs:   "closed-loop clients on in-process asmserve over loopback HTTP: cold fig3 jobs write journal and store, re-submissions hit the cache",
}

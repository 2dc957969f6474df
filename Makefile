GO ?= go

.PHONY: check fmt build vet test test-debug race test-1p bench bench-smoke bench-module fuzz repro-diff trace-smoke trace-diff cluster-trace-smoke dash-smoke serve-smoke slo-smoke cover

# check is the CI gate: gofmt, build + vet + tests, then the race detector over
# the concurrency-heavy packages (alone-curve chasers behind asmsim.Run,
# sweep workers, cluster rounds, shared telemetry/trace sinks, the
# job service, the SLO engine and the observer harness), the simulator
# core again with its debug invariants compiled in, the benchmark smoke
# run, the benchmark module's vet and tests, the reproduction golden, the
# fuzz targets, the attribution golden (trace-diff, which runs trace-smoke
# first), then the observability smoke tests; trace-diff, repro-diff and
# cluster-trace-smoke each regenerate a summary and `cmp` it with its
# committed golden.
check: fmt build vet test test-debug race test-1p bench-smoke bench-module repro-diff fuzz trace-diff cluster-trace-smoke dash-smoke serve-smoke slo-smoke

# fmt fails when a Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# test-debug re-runs the simulator core with -tags asmdebug, which turns
# the invariants release builds clamp or skip into panics: non-monotonic
# DRAM request timestamps, the controller's marked-read count against
# the queue it summarises (checked on every read pick), and every charged
# interference cause (a real app, and for a row-buffer disturbance never
# the victim itself).
test-debug:
	$(GO) test -tags asmdebug ./internal/dram/... ./internal/cpu/... ./internal/sim/...

race:
	$(GO) test -race . ./internal/sim/... ./internal/exp/... ./internal/dram/... ./internal/cluster/... ./internal/telemetry/... ./internal/evtrace/... ./internal/dash/... ./internal/serve/... ./internal/slo/... ./internal/observe/...

# test-1p re-runs the packages whose runs are followed by alone-curve
# chase goroutines (DESIGN.md decision 10; asmsim.Run with ground truth
# among them, and every asmserve job, which runs a followed sweep) on a
# single processor: with one P the chaser and the shared run it follows
# interleave on one thread — lock hand-offs and preemption points the
# two-P race run never takes.
# -count=1: the test cache does not key on GOMAXPROCS, so without it this
# target would replay `make test`'s results.
test-1p:
	GOMAXPROCS=1 $(GO) test -count=1 . ./internal/sim/... ./internal/exp/... ./internal/serve/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-smoke runs the Go benchmarks once each so the profiling tools
# cannot rot: it is neither a timing measurement nor an allocation gate.
# Allocation budgets are tier-1 tests (TestRunQuantaSteadyStateAllocs,
# TestAloneCurveExtendAllocs, TestSweepAccuracyAllocs) over a fixed amount
# of work; wall-clock claims belong to benchmark/ and BENCHMARK.json.
bench-smoke:
	$(GO) test -run='^$$' -bench='SweepAccuracy|RunAccuracyAllocs' -benchtime=1x -count=1 ./internal/exp/
	$(GO) test -run='^$$' -bench='RunQuanta|AloneCurve' -benchtime=1x -count=1 ./internal/sim/

# bench-module vets and tests the benchmark/ module, a module of its own
# (so ./... from the root skips it) that imports the simulator's internal
# packages: an internal change that breaks its adapter fails here.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# fuzz runs every fuzz target for 10 s, one at a time: go test -fuzz
# takes one target per package run.
FUZZ_TARGETS = \
	FuzzJobSpecFingerprint:./internal/exp \
	FuzzParseExposition:./internal/telemetry \
	FuzzJournalReplay:./internal/serve \
	FuzzSLOParse:./internal/slo \
	FuzzLoadNodeTrace:./internal/evtrace \
	FuzzCacheMatchesReference:./internal/cache \
	FuzzCurveMatchesPointOracle:./internal/sim \
	FuzzControllerMatchesReference:./internal/dram
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ($${t#*:})"; \
		$(GO) test -run='^$$' -fuzz="^$${t%%:*}$$" -fuzztime=10s $${t#*:}; \
	done

# repro-diff pins every reproduced number: it re-runs the quick-scale
# sweep of all 20 experiments and compares the output byte for byte with
# the committed golden. It takes one to two minutes on 2 vCPUs, so it is
# not part of `make test`. A change that moves a number regenerates the
# golden and lists the moved rows in CHANGES.md:
#   go run ./cmd/experiments -run all -workloads 5 -quanta 3 -format json > internal/exp/testdata/quick_all.json
# REPRO_OUT overrides where the fresh output lands (kept for diffing).
REPRO_OUT ?= repro-diff.json
repro-diff:
	$(GO) run ./cmd/experiments -run all -workloads 5 -quanta 3 -format json > $(REPRO_OUT)
	cmp $(REPRO_OUT) internal/exp/testdata/quick_all.json

# trace-smoke runs a small contended mix with event tracing enabled and
# validates that the emitted file is well-formed Perfetto-loadable
# chrome-trace JSON with attribution snapshots (tracesum -check), then
# prints the summary tables. TRACE_OUT overrides where the trace lands
# (CI uploads it as an artifact).
TRACE_OUT ?= trace-smoke.trace.json
trace-smoke:
	$(GO) run ./cmd/asmsim -apps mcf,libquantum -quanta 2 -quantum 200000 -trace $(TRACE_OUT) -trace-sample 16
	$(GO) run ./cmd/tracesum -check $(TRACE_OUT)
	$(GO) run ./cmd/tracesum $(TRACE_OUT)

# trace-diff is the attribution regression gate: re-run the trace-smoke
# recipe, summarize its attribution matrices + CPI stacks as JSON and
# compare the summary byte for byte with the committed golden, as
# repro-diff does. A change that moves a cell on purpose regenerates the
# golden (after `make trace-smoke`) and says so in CHANGES.md:
#   go run ./cmd/tracesum -format json $(TRACE_OUT) > cmd/tracesum/testdata/trace-smoke.golden.json
trace-diff: trace-smoke
	$(GO) run ./cmd/tracesum -format json $(TRACE_OUT) > trace-smoke.summary.json
	cmp trace-smoke.summary.json cmd/tracesum/testdata/trace-smoke.golden.json

# cluster-trace-smoke drives the cluster tracing pipeline end to end: the
# migration example writes every machine's rounds into one trace (machine
# k's apps are pids k*1000+j named n<k>/<app>, on one cluster clock),
# tracesum -check proves it a well-formed Perfetto-loadable trace, and
# its JSON summary — one table set per app set, so each machine's rounds
# before and after the migration are summarized apart — is compared byte
# for byte with the committed golden. Regenerate the golden (after an
# intentional change) with:
#   go run ./cmd/tracesum -format json $(CLUSTER_TRACE_DIR)/cluster.trace.json > cmd/tracesum/testdata/cluster-trace.golden.json
# CLUSTER_TRACE_DIR overrides where the trace lands (CI uploads it).
CLUSTER_TRACE_DIR ?= cluster-trace-smoke
cluster-trace-smoke:
	mkdir -p $(CLUSTER_TRACE_DIR)
	$(GO) run ./examples/migration -trace $(CLUSTER_TRACE_DIR)/cluster.trace.json
	$(GO) run ./cmd/tracesum -check $(CLUSTER_TRACE_DIR)/cluster.trace.json
	$(GO) run ./cmd/tracesum $(CLUSTER_TRACE_DIR)/cluster.trace.json
	$(GO) run ./cmd/tracesum -format json $(CLUSTER_TRACE_DIR)/cluster.trace.json > $(CLUSTER_TRACE_DIR)/cluster.summary.json
	cmp $(CLUSTER_TRACE_DIR)/cluster.summary.json cmd/tracesum/testdata/cluster-trace.golden.json

# dash-smoke launches a real run with the live dashboard, a trace and
# telemetry enabled, curls every /debug/asm/* endpoint (JSON shapes + one
# SSE quantum frame) and the /debug/pprof/ index the same listener serves,
# checks the child tears down cleanly on SIGINT, and
# requires its trace to decode as JSON and its metrics.jsonl to exist.
dash-smoke:
	$(GO) build -o $(CURDIR)/.dash-smoke-asmsim ./cmd/asmsim
	$(GO) run ./cmd/smoke dash -bin $(CURDIR)/.dash-smoke-asmsim
	rm -f $(CURDIR)/.dash-smoke-asmsim

# serve-smoke drills the job service end to end: start asmserve with a
# state directory, submit a job twice (the second must be a cache hit),
# scrape /metrics with a strict exposition parse, SIGTERM it mid-job
# (checking /readyz flips to 503 during the drain), then restart and
# verify the journal resumed the interrupted job and the server drains
# cleanly again. A final phase runs a job past a short -job-timeout and
# requires it to fail with a deadline flight-recorder dump on disk.
serve-smoke:
	$(GO) build -o $(CURDIR)/.serve-smoke-asmserve ./cmd/asmserve
	$(GO) run ./cmd/smoke serve -bin $(CURDIR)/.serve-smoke-asmserve
	rm -f $(CURDIR)/.serve-smoke-asmserve

# slo-smoke drives the SLO alerting path end to end: a contended
# two-app mix against a deliberately tight slowdown bound must fire the
# QoS alert on /debug/asm/alerts.json and in the /metrics slo_* series,
# dump the flight ring on firing, and emit slo: alert instants into a
# trace that tracesum -check accepts as well-formed. SLO_SMOKE_DIR
# overrides where the spec/dumps/trace land (CI uploads them).
SLO_SMOKE_DIR ?= slo-smoke
slo-smoke:
	$(GO) build -o $(CURDIR)/.slo-smoke-asmsim ./cmd/asmsim
	$(GO) run ./cmd/smoke slo -bin $(CURDIR)/.slo-smoke-asmsim -out $(SLO_SMOKE_DIR)
	$(GO) run ./cmd/tracesum -check $(SLO_SMOKE_DIR)/slo-smoke.trace.json
	rm -f $(CURDIR)/.slo-smoke-asmsim

# cover prints per-package statement coverage.
cover:
	$(GO) test -cover ./...

GO ?= go
FUZZTIME ?= 10s
# bench knobs: BENCHTIME=1x gives one iteration per benchmark (the CI
# smoke setting); raise it (e.g. 2s) for a low-noise baseline.
BENCHTIME ?= 1x
BENCHCOUNT ?= 3

.PHONY: build test race race-stress bench-check lint lint-sarif lint-testdata fmt vet fuzz-smoke bench bench-smoke trace-smoke examples-smoke bench-guard cache-golden dsl-golden figs-check interference-golden ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-stress: uncached focused race run over the concurrency-heavy
# packages — the runpool stress tests (panics mid-pool, workers >
# items) and the simulator's coroutine scheduler — then the sim
# failure-containment tests (a body panic surfaces at Run's caller;
# deadlocks and panics stop every parked process) on repeat.
race-stress:
	$(GO) test -race -count=1 ./internal/runpool ./internal/sim
	$(GO) test -race -count=20 -run '^TestFailure' ./internal/sim

# bench-check: bench/ (the end-to-end benchmark behind BENCHMARK.json)
# is a Go module of its own, so `./...` never builds it. Vet, test and
# lint it against the current tree, so an internal API change that
# breaks it fails here rather than at the next benchmark run.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) -C bench run ensembleio/cmd/ensemblelint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint = everything static: formatting, go vet, and the project's own
# determinism/statistics multichecker (see cmd/ensemblelint) — the
# per-package analyzers plus the interprocedural detflow dataflow and
# the //lint:allow hygiene check, under a hard wall-clock budget so
# the whole-program analysis can never bog down CI.
lint: fmt vet
	$(GO) run ./cmd/ensemblelint -budget 30s ./...

# lint-sarif: same findings as machine-readable SARIF 2.1.0 (validated
# before writing), for GitHub code-scanning annotations.
lint-sarif:
	@mkdir -p out
	$(GO) run ./cmd/ensemblelint -budget 30s -sarif -o out/ensemblelint.sarif ./...
	@echo "wrote out/ensemblelint.sarif"

# lint-testdata: smoke-check that every golden corpus still
# type-checks and matches its want comments (the lint suite's own
# tests; testdata dirs are invisible to ./... so this is the only
# gate that loads them).
lint-testdata:
	$(GO) test -count=1 ./internal/lint/...

# bench: run every benchmark in the repo BENCHCOUNT times and rewrite
# the checked-in perf baseline. BENCH_ensembleio.json maps each
# benchmark to metric-name -> values (benchstat-comparable via the
# embedded raw lines); future PRs regress against it.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... > bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_ensembleio.json
	@rm -f bench.out
	@echo "wrote BENCH_ensembleio.json"

# bench-smoke: every benchmark compiles and survives one iteration.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 1 ./...

# trace-smoke: the end-to-end record-then-analyse workflow — wlrun
# runs the 64-task IOR preset under a flaky-OST fault scenario and
# exports a Chrome trace, a span stream, a binary trace and a metrics
# snapshot; tracestat then drives every report it picks from its
# inputs: the Chrome trace must pass the schema validator (i.e. load
# in Perfetto), the snapshot and spans must digest into the hot-spot
# tables, the saved trace compared with itself must be statistically
# indistinguishable, and the saved trace and snapshot must diagnose as
# an intermittent stall (TestDiagnoseTraceMatchesDiagnose pins the
# same run).
SMOKE_RUN = $(GO) run ./cmd/wlrun -spec testdata/scenarios/presets/ior-64.json -faults testdata/scenarios/flaky-ost.json
trace-smoke:
	@mkdir -p out
	$(SMOKE_RUN) -trace out/smoke.trace.json -traceformat chrome -telemetry out/smoke.telemetry.json
	$(GO) run ./cmd/tracestat out/smoke.trace.json
	$(SMOKE_RUN) -trace out/smoke.spans.jsonl -traceformat spans
	$(GO) run ./cmd/tracestat -top 5 -spans out/smoke.spans.jsonl out/smoke.telemetry.json
	$(SMOKE_RUN) -trace out/smoke.trace.bin
	$(GO) run ./cmd/tracestat out/smoke.trace.bin out/smoke.trace.bin > out/smoke.compare.txt
	grep -q 'statistically indistinguishable' out/smoke.compare.txt
	$(GO) run ./cmd/tracestat out/smoke.trace.bin out/smoke.telemetry.json > out/smoke.tracestat.txt
	grep -q 'intermittent-stall' out/smoke.tracestat.txt
	@echo "trace-smoke: exports valid, saved trace diagnosed as intermittent-stall"

# examples-smoke: every examples/* program runs to completion (go
# build only compiles them). Takes ~5 s.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done

# cache-golden: the content-addressed run cache must be invisible in
# the bytes. A cold wlrun batch (-j 4) populates the store; a warm
# pass over the same grid at another worker count (-j 1, -cache-verify
# recomputing every hit) must emit byte-identical artifacts. Then the checked-in
# campaign grid runs cold and warm through ensemblecampaign — same
# diff — and tracestat digests the cache counters into the
# effectiveness line.
cache-golden:
	@rm -rf out/cache && mkdir -p out/cache/cold out/cache/warm out/cache/camp-cold out/cache/camp-warm
	$(GO) run ./cmd/wlrun -spec testdata/scenarios/workloads/ior-shared.json -gen 3-4 \
		-faults testdata/scenarios/flaky-ost.json -runs 2 -j 4 \
		-cache out/cache/store -out out/cache/cold > out/cache/cold.txt
	$(GO) run ./cmd/wlrun -spec testdata/scenarios/workloads/ior-shared.json -gen 3-4 \
		-faults testdata/scenarios/flaky-ost.json -runs 2 -j 1 \
		-cache out/cache/store -cache-verify -out out/cache/warm > out/cache/warm.txt
	diff -r out/cache/cold out/cache/warm
	grep -q 'cache: 0 hit' out/cache/cold.txt
	grep -q 'cache: 6 hit.*verified' out/cache/warm.txt
	$(GO) run ./cmd/ensemblecampaign -campaign testdata/scenarios/campaigns/whatif-sweep.json \
		-j 4 -cache out/cache/campstore -out out/cache/camp-cold \
		-telemetry out/cache/camp.telemetry.json > /dev/null
	$(GO) run ./cmd/ensemblecampaign -campaign testdata/scenarios/campaigns/whatif-sweep.json \
		-j 1 -cache out/cache/campstore -cache-verify -out out/cache/camp-warm > /dev/null
	diff -r out/cache/camp-cold out/cache/camp-warm
	$(GO) run ./cmd/tracestat out/cache/camp.telemetry.json > out/cache/top.txt
	grep -q '^cache: served' out/cache/top.txt
	@echo "cache-golden: cache-served artifacts byte-identical across worker counts"

# bench-guard: the telemetry-off hot path must stay within noise of
# the checked-in baseline. Three repetitions of the focused benchmarks,
# best-of compared against the baseline's best — generous time slack
# (this catches "the disabled path got hot", not scheduler jitter) and
# a tight memory slack (allocs/op is nearly deterministic, so eroding
# allocation wins trip the guard long before they show up as time).
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetry|BenchmarkSimulatorThroughputSingle$$|BenchmarkCacheHitMRU$$|BenchmarkCacheCampaign|BenchmarkCaptureRun$$|BenchmarkAnalysis_Diagnose$$' \
		-benchmem -benchtime 1x -count 3 . | \
		$(GO) run ./cmd/benchjson -check BENCH_ensembleio.json -slack 3.0 -memslack 1.25

# dsl-golden: the workload DSL's full proof chain, uncached — the
# interpreter and the IOR/MADbench/GCRM spec builders (whose specs
# match their corpus ports byte for byte), the corpus compiles and
# stays canonical, the golden digests of every corpus run still match,
# and the seeded spec generator passes the determinism gate (-j 1 vs
# -j 4). Ends with a wlrun smoke: spec in, artifacts out.
dsl-golden:
	$(GO) test -count=1 ./internal/workloads ./internal/wldsl
	$(GO) test -count=1 -run 'TestWorkloadDSLGolden|TestGeneratedSpecsDeterministic' .
	@rm -rf out/wlrun && mkdir -p out/wlrun
	$(GO) run ./cmd/wlrun -spec testdata/scenarios/workloads/checkpoint-bursty.json \
		-faults testdata/scenarios/flaky-ost.json -runs 2 -j 2 -out out/wlrun
	@ls out/wlrun >/dev/null
	@echo "dsl-golden: builder specs match corpus ports, corpus canonical, goldens stable"

# figs-check: the checked-in figure copies (out/fig*) are exactly what
# `paperfig -fig all` writes today — regenerate into a temp dir and
# diff both trees (a missing or extra file fails too). Takes ~10 s.
# After an intended figure change: go run ./cmd/paperfig -fig all -out out
figs-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		mkdir "$$tmp/want" && cp out/fig* "$$tmp/want/" && \
		$(GO) run ./cmd/paperfig -fig all -out "$$tmp/got" > /dev/null && \
		diff -r "$$tmp/want" "$$tmp/got"
	@echo "figs-check: out/fig* match paperfig -fig all"

# interference-golden: the multi-tenant pipeline's proof chain — the
# tenancy package's victim/aggressor and clean-co-run tests, the
# two-tenant determinism gate (-j 1 vs -j 4, with an adversarial
# generated tenant in the mix), and the SHA-256 golden
# digests of every co-run artifact (per-tenant traces, merged
# telemetry, spans, interference report). Ends with an ensembleduel
# smoke: two specs in, report and artifact set out.
interference-golden:
	$(GO) test -count=1 ./internal/tenancy
	$(GO) test -count=1 -run 'TestInterferenceGolden|TestTenancyDeterministic' .
	@rm -rf out/duel && mkdir -p out/duel
	$(GO) run ./cmd/ensembleduel -spec testdata/scenarios/workloads/ior-shared.json \
		-spec testdata/scenarios/workloads/gcrm-collective.json -stagger 0,1 -seed 5 -out out/duel
	@ls out/duel >/dev/null
	@echo "interference-golden: co-runs deterministic, goldens stable"

# One target per invocation: go test allows a single -fuzz pattern
# match per run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='FuzzTraceDecode$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt
	$(GO) test -run='^$$' -fuzz='FuzzTraceDecodeJSONL$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt
	$(GO) test -run='^$$' -fuzz='FuzzProfileJSON$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt
	$(GO) test -run='^$$' -fuzz='FuzzSpanDecode$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt
	$(GO) test -run='^$$' -fuzz='FuzzMetricsDecode$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt
	$(GO) test -run='^$$' -fuzz='FuzzJSONWritersMatchEncodingJSON$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt
	$(GO) test -run='^$$' -fuzz='FuzzSpecDecode$$' -fuzztime=$(FUZZTIME) ./internal/wldsl
	$(GO) test -run='^$$' -fuzz='FuzzScenarioKey$$' -fuzztime=$(FUZZTIME) ./internal/cascache
	$(GO) test -run='^$$' -fuzz='FuzzStoreEntry$$' -fuzztime=$(FUZZTIME) ./internal/cascache
	$(GO) test -run='^$$' -fuzz='FuzzScenarioParse$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='FuzzAnalysisMatchesReferences$$' -fuzztime=$(FUZZTIME) ./internal/analysis
	$(GO) test -run='^$$' -fuzz='FuzzCampaignGrid$$' -fuzztime=$(FUZZTIME) ./internal/ensemble/campaign
	$(GO) test -run='^$$' -fuzz='FuzzSpecRun$$' -fuzztime=$(FUZZTIME) ./internal/ensemble/campaign
	$(GO) test -run='^$$' -fuzz='FuzzRNGMatchesMathRand$$' -fuzztime=$(FUZZTIME) ./internal/sim

ci: build lint lint-testdata race race-stress bench-check bench-smoke trace-smoke examples-smoke dsl-golden figs-check interference-golden cache-golden bench-guard fuzz-smoke

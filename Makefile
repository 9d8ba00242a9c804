# llmdm — build, test and benchmark targets.

GO ?= go

.PHONY: all build fmt-check vet lint golden analyzers-test test race race-concurrent race-semcache cover bench bench-sched bench-json bench-check bench-e2e-test fuzz experiments ablations chaos telemetry clean

all: build fmt-check vet lint test

build:
	$(GO) build ./...

# gofmt prints the files it would rewrite, in the root module and in
# bench/ (its own module, same tree): any name is a failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: the internal/analysis suite — nine
# analyzers: five per-function ones (ctxflow, lockscope, billmeter,
# gospawn, metricname), three interprocedural ones (lockorder,
# reslifecycle, goleak) over the shared call-graph/summary program, and
# reach, which flags functions no entry point reaches — run by the
# llmdm-lint driver in one process, which also reports a //llmdm:
# annotation without a reason as a finding (`bin/llmdm-lint -waivers ./...`
# lists every annotation with its reason). The run type-checks the module
# with go/types (the stdlib read from the build cache's export data),
# which is where the time goes, so the target prints its wall time: a
# number to watch, recorded in CHANGES.md. It is the only mode: the
# interprocedural analyzers and reach need the whole program in one
# process, so the binary is not a go vet -vettool.
#
# The greps ahead of it keep DESIGN.md a description of the system as it
# is (no "PR n" history, at most 800 lines: history belongs in
# CHANGES.md), and keep two couplings from growing back. What an unset
# sink means is decided inside internal/obs (a nil *obs.Registry is
# obs.Default), so no other non-test file under internal/ names the global.
# And internal/obs reads no other package's metrics by name: a string literal
# there that starts with another package's metric prefix is a rule that
# belongs with the component it watches (the proxy's alert rules read their
# components in internal/proxy/alerts.go). The last two greps keep the
# clocks in one place: internal/proxy reads the time only through p.now,
# and internal/sched starts no timer and sleeps nowhere (its dispatcher
# flushes what is queued without waiting, so a batching window cannot
# creep back unnoticed).
lint:
	@if grep -nE 'PR [0-9]' DESIGN.md; then \
		echo "lint: DESIGN.md names a PR: history belongs in CHANGES.md, DESIGN.md describes the system as it is"; exit 1; \
	fi
	@if [ $$(wc -l < DESIGN.md) -gt 800 ]; then \
		echo "lint: DESIGN.md has $$(wc -l < DESIGN.md) lines, more than 800: move history to CHANGES.md and numbers to BENCH_*.json"; exit 1; \
	fi
	@if grep -rnE 'obs\.Default\b' --include='*.go' internal | grep -v '_test\.go:' | grep -v '^internal/obs/'; then \
		echo "lint: obs.Default named outside internal/obs: pass the registry down, nil already means it"; exit 1; \
	fi
	@if grep -rnE '"(breaker|limiter|proxy|cascade|sched|llm|semcache|vector)_' --include='*.go' internal/obs | grep -v '_test\.go:'; then \
		echo "lint: internal/obs names another package's metric: read the component where it lives instead"; exit 1; \
	fi
	@if grep -rnE 'time\.(Now|Since|Until)\(' --include='*.go' internal/proxy | grep -v '_test\.go:'; then \
		echo "lint: internal/proxy reads the wall clock: read p.now, the proxy's one clock"; exit 1; \
	fi
	@if grep -rnE 'time\.(NewTimer|After|Tick|Sleep)\(' --include='*.go' internal/sched | grep -v '_test\.go:'; then \
		echo "lint: internal/sched waits on a timer: the dispatcher flushes what is queued and never holds a request"; exit 1; \
	fi
	@start=$$(date +%s); \
	set -ex; \
	$(GO) build -o bin/llmdm-lint ./cmd/llmdm-lint; \
	./bin/llmdm-lint ./...; \
	set +x; \
	echo "lint: $$(( $$(date +%s) - start )) s wall"

# Regenerate every golden file: the proxy's payload schemas and serving
# vocabulary (internal/proxy/testdata/golden) and llmdm-proxy's usage text
# (cmd/llmdm-proxy/testdata/flags.golden). Review the diff before
# committing it.
golden:
	$(GO) test ./internal/proxy/ -run 'TestGoldenSchemas|TestHTTPErrorEnvelope|TestVocabularyGolden' -count=1 -update-golden
	$(GO) test ./cmd/llmdm-proxy/ -run TestFlagsGolden -count=1 -update-golden

# The analyzers' own tests: the fixture suites; the in-tree enforcement
# tests (the tree is clean, and every waiver resurfaces as a finding when
# ignored); and the seeded-regression table, one real-tree edit per
# analyzer that the analyzer must catch at the edited site.
analyzers-test:
	$(GO) test ./internal/analysis/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The serving-path packages that run concurrent under load; the CI race
# gate runs this target. internal/vector and internal/embed are here
# because concurrent searches share pooled scratch buffers and run beside
# writers under the index's lock. internal/analysis is here because its seeded-regression
# rows (TestSeededRegressions) load edited copies of the module in
# parallel, sharing the loader's one FileSet and its mutex-guarded stdlib
# importer.
race-concurrent:
	$(GO) test -race ./internal/proxy/ ./internal/core/cascade/ ./internal/core/semcache/ ./internal/llm/ ./internal/obs/ ./internal/resilience/ ./internal/sched/ ./internal/exper/ ./internal/vector/ ./internal/embed/ ./internal/analysis/...

# The semantic cache's two-half put, its handshake and its memo, raced 20
# runs over; the CI race gate runs this target too. The names are checked
# first: `go test -list` must find every one of them, so a test renamed or
# deleted fails the target instead of silently dropping out of the race.
RACE_SEMCACHE_TESTS = TestFillHandshake TestFillHandshakeConcurrent TestKeptEmbeddingIsTheIndexedRow \
	TestMemoHitEqualsFreshScan TestNoMemoFromAScanARowLandedDuring TestNoMemoServedWhileARowLands \
	TestMemosNeverOutnumberEntries TestTruncatedNeighbourSearchKillsEveryMemo

race-semcache:
	@listed=$$($(GO) test -list '.*' ./internal/core/semcache/) || exit 1; \
	for t in $(RACE_SEMCACHE_TESTS); do \
		echo "$$listed" | grep -qx "$$t" || { echo "race-semcache: go test -list finds no $$t in internal/core/semcache"; exit 1; }; \
	done
	$(GO) test -race -run "^($$(echo $(RACE_SEMCACHE_TESTS) | tr ' ' '|'))$$" -count=20 ./internal/core/semcache/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The scheduler's headline numbers: the concurrency-64 throughput gate
# (batched >= 2x direct at identical spend), the no-starvation gate, the
# idle-tier gate (a lone request dispatches at once; what queues behind a
# held batch rides the next one), and the batched-vs-direct wall-clock
# benchmarks.
bench-sched:
	$(GO) test -run 'TestSchedThroughputWin|TestInteractiveNotStarvedUnderBatchLoad|TestIdleTierDispatchesAtOnce' -v ./internal/sched/
	$(GO) test -run - -bench 'BenchmarkScheduler' -benchtime=1x -benchmem ./internal/sched/

# The recorded perf trajectory: run the internal/perf suite and write
# schema-stable BENCH_serving.json / BENCH_kernels.json into BENCH_DIR
# (the repo root by default — the artifacts are checked in).
BENCH_DIR ?= .
bench-json:
	$(GO) run ./cmd/llmdm-bench -bench-json -bench-dir $(BENCH_DIR)

# Regenerate into a scratch dir and compare against the checked-in
# artifacts; exits nonzero on large (>2.5x) regressions.
bench-check:
	$(GO) run ./cmd/llmdm-bench -bench-json -bench-dir /tmp/llmdm-bench-check
	$(GO) run ./cmd/llmdm-bench -bench-compare BENCH_serving.json /tmp/llmdm-bench-check/BENCH_serving.json
	$(GO) run ./cmd/llmdm-bench -bench-compare BENCH_kernels.json /tmp/llmdm-bench-check/BENCH_kernels.json

# The end-to-end benchmark harness is its own module (bench/go.mod), so
# the root ./... patterns above never reach it: vet it and run its tests,
# including the ~6 s smoke run of every workload, here.
bench-e2e-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short live-fuzz pass over every fuzz target (seed corpora always run
# under plain `make test`). One FuzzCompletionRequest seed is a 64 KiB
# prompt: left the default minute per finding, minimizing its mutants
# would be the whole run, hence -fuzzminimizetime.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlkit/
	$(GO) test -fuzz=FuzzExec -fuzztime=30s ./internal/sqlkit/
	$(GO) test -fuzz=FuzzParseQuestion -fuzztime=20s ./internal/core/transform/
	$(GO) test -fuzz=FuzzMinePattern -fuzztime=20s ./internal/core/transform/
	$(GO) test -fuzz=FuzzDotInt8Rows -fuzztime=20s ./internal/embed/
	$(GO) test -fuzz=FuzzDotInt8HeadsPass -fuzztime=20s ./internal/embed/
	$(GO) test -fuzz=FuzzFloatKernels -fuzztime=20s ./internal/embed/
	$(GO) test -fuzz=FuzzQuantizedScan -fuzztime=20s ./internal/vector/
	$(GO) test -fuzz=FuzzCompletionRequest -fuzztime=20s -fuzzminimizetime=1s ./internal/proxy/
	$(GO) test -fuzz=FuzzSSEEvent -fuzztime=20s ./internal/proxy/
	$(GO) test -fuzz=FuzzDecodeCompletionRequest -fuzztime=20s ./internal/proxy/
	$(GO) test -fuzz=FuzzSimStreamEqualsPlan -fuzztime=20s ./internal/llm/
	$(GO) test -fuzz=FuzzCountMatchesTokenize -fuzztime=20s ./internal/token/

experiments:
	$(GO) run ./cmd/llmdm-bench

ablations:
	$(GO) run ./cmd/llmdm-bench -exp ablations

# Fault-injection experiment: correct availability and spend accounting under
# injected upstream failures, bare stack vs the resilience layer.
chaos:
	$(GO) run ./cmd/llmdm-bench -exp chaos

# Demo the instrumented bench: each experiment's table followed by its
# internal/obs telemetry delta (model calls, tokens, spend, cache hits,
# cascade escalations).
telemetry:
	$(GO) run ./cmd/llmdm-bench -exp table1 -telemetry
	$(GO) run ./cmd/llmdm-bench -exp table3 -telemetry

clean:
	$(GO) clean ./...

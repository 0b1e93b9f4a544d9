# Mirrors .github/workflows/ci.yml exactly: CI runs `make lint build test
# bench` step by step; keep the two in sync.

GO ?= go
# bench-json pipes `go test` into benchjson; pipefail makes a benchmark
# failure fail the target (and CI), not vanish behind benchjson's exit 0.
SHELL := /bin/bash -o pipefail

.PHONY: all build test bench lint bench-json bench-compare pprof serve-smoke

all: lint build test

build:
	$(GO) build ./...

# The second leg reruns the public-API suite with the package default
# partition count flipped to 4 (PART env, read by TestMain): the same driver
# the first leg runs at P = 1, over a 4-partition store.
test:
	$(GO) test -race ./...
	PART=4 $(GO) test -race .

# Benchmark smoke pass: compile and run every benchmark once.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# lint is three-legged: gofmt, stock vet, and reprovet — the repo's own
# invariant checkers (internal/analysis) run over every package (test
# variants included) through the `go vet -vettool` unitchecker protocol.
# Failures print as "file:line:col: [analyzer] message".
REPROVET := bin/reprovet

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o $(REPROVET) ./cmd/reprovet
	$(GO) vet -vettool=$(abspath $(REPROVET)) ./...

# End-to-end smoke of the HTTP serving layer: boot cmd/serve on an
# ephemeral port, run a read, a write and a deadline-cancelled request
# against it, and require a clean SIGTERM drain.
serve-smoke:
	bash scripts/serve_smoke.sh

# Machine-readable benchmark baseline: one timed pass per benchmark,
# rendered to JSON for the perf trajectory. The default output is
# untracked; the committed BENCH_N.json files (one per early PR) were
# recorded deliberately with `make bench-json BENCH_OUT=BENCH_N.json`.
# They are a history of single passes, not a baseline: performance claims
# are measured with the gated benchmark BENCHMARK.json declares
# (benchmark/run.sh).
BENCH_OUT ?= bench.out.json

bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# Strategy ablations: run the strategy-sensitive benchmarks once per
# join-order strategy (PLANNER env, read by TestMain) and once per join
# execution strategy (JOIN env, same mechanism), the repeated-query
# benchmarks once per answer-cache setting (CACHE env, same mechanism), and
# the chase-mode benchmarks once per partition layout (PART env, same
# mechanism), comparing each axis through benchstat when it is installed,
# falling back to the raw outputs. BenchmarkAnswer* compare the planners
# within a single run and are deliberately excluded from the strategy axes.
BENCH_COMPARE_PATTERN ?= BenchmarkCQEvaluation|BenchmarkEvaluationOnly|BenchmarkChaseScaling|BenchmarkParallelUCQEvaluation|BenchmarkIncrementalAddFact
BENCH_CACHE_PATTERN ?= BenchmarkAnswerChase|BenchmarkAnswerRewrite|BenchmarkIncrementalAddFact
BENCH_PART_PATTERN ?= BenchmarkAnswerChase|BenchmarkPartitionPruning|BenchmarkIncrementalAddFact
BENCH_PARTS ?= 4
BENCH_COMPARE_COUNT ?= 5
BENCH_COMPARE_TIME ?= 0.2s

bench-compare:
	PLANNER=greedy $(GO) test -run '^$$' -bench '$(BENCH_COMPARE_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.greedy.txt
	PLANNER=cost $(GO) test -run '^$$' -bench '$(BENCH_COMPARE_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.cost.txt
	JOIN=nested $(GO) test -run '^$$' -bench '$(BENCH_COMPARE_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.join-nested.txt
	JOIN=hash $(GO) test -run '^$$' -bench '$(BENCH_COMPARE_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.join-hash.txt
	CACHE=off $(GO) test -run '^$$' -bench '$(BENCH_CACHE_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.cache-off.txt
	CACHE=on $(GO) test -run '^$$' -bench '$(BENCH_CACHE_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.cache-on.txt
	PART=1 $(GO) test -run '^$$' -bench '$(BENCH_PART_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.part-1.txt
	PART=$(BENCH_PARTS) $(GO) test -run '^$$' -bench '$(BENCH_PART_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.part-n.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		echo "== planner: greedy vs cost =="; \
		benchstat bench.greedy.txt bench.cost.txt; \
		echo "== join: nested vs hash =="; \
		benchstat bench.join-nested.txt bench.join-hash.txt; \
		echo "== answer cache: off vs on =="; \
		benchstat bench.cache-off.txt bench.cache-on.txt; \
		echo "== partitions: 1 vs $(BENCH_PARTS) =="; \
		benchstat bench.part-1.txt bench.part-n.txt; \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);"; \
		echo "raw outputs in bench.{greedy,cost,join-nested,join-hash,cache-off,cache-on,part-1,part-n}.txt"; \
	fi

# CPU + heap profile of the steady-state answering path (warm snapshot and
# plan cache). Inspect with `go tool pprof -top cpu.prof`.
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkAnswer' -benchtime 200x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "inspect with: $(GO) tool pprof -top cpu.prof"

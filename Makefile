# Mirrors .github/workflows/ci.yml exactly: CI runs `make lint build test
# bench` step by step; keep the two in sync.

GO ?= go
# bench-json pipes `go test` into benchjson; pipefail makes a benchmark
# failure fail the target (and CI), not vanish behind benchjson's exit 0.
SHELL := /bin/bash -o pipefail

.PHONY: all build test fuzz bench lint bench-json bench-compare pprof serve-smoke

all: lint build test

build:
	$(GO) build ./...

# The second leg reruns the public-API suite with the package default
# partition count flipped to 4 (PART env, read by TestMain): the same driver
# the first leg runs at P = 1, over a 4-partition store.
test:
	$(GO) test -race ./...
	PART=4 $(GO) test -race .

# Short fuzzing leg over the committed seed corpora: the query parser, the
# program parser (rules + facts), the POST .../query body and LoadCSV (one
# target per invocation — go test allows no more).
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzParseProgram -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzQueryBody -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzLoadCSV -fuzztime $(FUZZTIME) .

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

# Partition-layout ablation: run the chase-mode benchmarks once per
# partition count (PART env, read by TestMain), compared through benchstat
# when it is installed, falling back to the raw outputs.
BENCH_PART_PATTERN ?= BenchmarkAnswerChase|BenchmarkPartitionPruning|BenchmarkIncrementalAddFact
BENCH_PARTS ?= 4
BENCH_COMPARE_COUNT ?= 5
BENCH_COMPARE_TIME ?= 0.2s

bench-compare:
	PART=1 $(GO) test -run '^$$' -bench '$(BENCH_PART_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.part-1.txt
	PART=$(BENCH_PARTS) $(GO) test -run '^$$' -bench '$(BENCH_PART_PATTERN)' \
		-count $(BENCH_COMPARE_COUNT) -benchtime $(BENCH_COMPARE_TIME) . > bench.part-n.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		echo "== partitions: 1 vs $(BENCH_PARTS) =="; \
		benchstat bench.part-1.txt bench.part-n.txt; \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);"; \
		echo "raw outputs in bench.part-{1,n}.txt"; \
	fi

# CPU + heap profile of the steady-state answering path (warm snapshot and
# plan cache). Inspect with `go tool pprof -top cpu.prof`.
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkAnswer' -benchtime 200x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "inspect with: $(GO) tool pprof -top cpu.prof"

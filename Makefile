# Mirrors .github/workflows/ci.yml exactly: CI runs `make lint build test
# fuzz serve-smoke cli-smoke bench` step by step; keep the two in sync.

GO ?= go

.PHONY: all build test fuzz bench lint serve-smoke cli-smoke

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Short fuzzing leg over the committed seed corpora: the query parser, the
# program parser (rules + facts), the POST .../query body, the fact and rule
# mutation bodies, the create/rule-removal/CSV-load requests, LoadCSV, the
# classifier's report, the rewriter's pool invariant, the answer set, the
# compiled plan against the naive evaluator and the relation's hashed tuple
# set (one target per invocation — go test allows no more). CI runs this
# list through `make fuzz FUZZTIME=10s`; it is the only copy of it.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzParseProgram -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzQueryBody -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzMutationBody -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzOntologyBody -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzLoadCSV -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzClassify -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRewrite -fuzztime $(FUZZTIME) ./internal/rewrite
	$(GO) test -run '^$$' -fuzz FuzzAnswerSet -fuzztime $(FUZZTIME) ./internal/eval
	$(GO) test -run '^$$' -fuzz FuzzPlanAgreesWithOracle -fuzztime $(FUZZTIME) ./internal/eval
	$(GO) test -run '^$$' -fuzz FuzzRelationSet -fuzztime $(FUZZTIME) ./internal/storage

# Benchmark smoke pass: compile and run every benchmark once. Performance
# claims are measured with the gated benchmark BENCHMARK.json declares
# (benchmark/run.sh), not with this.
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

# End-to-end smoke of the command-line programs and the examples: each runs
# on a small program and must exit 0, and a program that uses one predicate
# with two arities must be rejected by chase and rewrite -eval without a
# panic.
cli-smoke:
	bash scripts/cli_smoke.sh

GO ?= go

.PHONY: build test vet race bench microbench microbench-check fuzz lint check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench: microbench
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# microbench re-measures the weight-kernel, geometry-core, parallel-search
# and observability micro-benchmarks, enforces the gate table in
# cmd/microbench on every run, and archives the numbers in BENCH_micro.json.
# It refuses to archive from a host with fewer than 2 CPUs. Rerun and commit
# when a measured code path or the benchmark changes; the gates are
# constants in the code, so re-archiving moves none of them.
microbench:
	$(GO) run ./cmd/microbench -o BENCH_micro.json

# microbench-check is the CI perf gate: the same run, with the report on
# stdout so that a 1-CPU runner still enforces every gate that does not need
# two CPUs (those print skip). The fresh report is kept for artifact upload.
microbench-check:
	$(GO) run ./cmd/microbench > BENCH_micro_fresh.json

# fuzz is a bounded smoke run of the two attacker-facing parsers — the
# checkpoint decoder (torn/bit-rotted resume streams) and the /v1/schedule
# request decoder (malformed JSON, NaN/Inf coordinates, negative radii —
# must 400, never panic) — plus the compiled local weight kernel against
# System.Weight (random push/pop sequences, down readers, survey-style
# conflict matrices), the branch-and-bound's conflict-aware bound against
# exhaustive enumeration (contexts, duplicate candidates, down readers,
# asymmetric conflict rows) and the quiescent distnet round loop against a
# step-every-node reference (random graphs, fault scenarios and node
# programs that honour their wake). 30 seconds each shakes out shallow bugs without
# stalling CI. Raise -fuzztime locally when hunting a specific bug.
fuzz:
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/checkpoint
	$(GO) test -fuzz=FuzzDecodeScheduleRequest -fuzztime=30s ./internal/serve
	$(GO) test -fuzz=FuzzLocalWeight -fuzztime=30s ./internal/model
	$(GO) test -fuzz=FuzzSolveExact -fuzztime=30s ./internal/mwfs
	$(GO) test -fuzz=FuzzRunMatchesReference -fuzztime=30s ./internal/distnet

# lint runs the static analyzers CI enforces. Neither tool ships with the
# toolchain; install them once with:
#   go install honnef.co/go/tools/cmd/staticcheck@2024.1.1
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.3
lint:
	staticcheck ./...
	govulncheck ./...

# check is the full pre-merge gate: compile, static analysis, and the whole
# test suite under the race detector (the solver worker pools and the
# service run concurrently, so -race is not optional here).
check: build vet race

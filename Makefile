GO ?= go

.PHONY: build test vet race bench obsbench wbench wbench-check psbench psbench-check corebench corebench-check fuzz lint check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench: obsbench wbench
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# obsbench archives the observability overhead numbers (ns/slot with the
# tracer nil vs attached) so regressions in the guarded hot paths show up
# as a diff in BENCH_obs.json. The history gate bounds the per-tick cost of
# the /history sampler (measured ~3µs; 1ms catches only real regressions,
# not CI-runner noise).
obsbench:
	$(GO) run ./cmd/obsbench -o BENCH_obs.json -history-gate 1000000

# wbench re-archives the incremental weight-engine speedups (brute vs
# WeightEval ratios) into the committed baseline. Run it when the engine or
# the benchmark itself changes, and commit the refreshed BENCH_weight.json.
wbench:
	$(GO) run ./cmd/wbench -o BENCH_weight.json

# wbench-check is the CI benchmark-regression gate: re-measure the speedup
# ratios and fail if any tracked metric falls more than 15% below the
# committed (already margin-shaved) baseline gates. The fresh report lands
# in BENCH_weight_fresh.json for artifact upload on failure.
wbench-check:
	$(GO) run ./cmd/wbench -check -baseline BENCH_weight.json -tolerance 0.15 -o BENCH_weight_fresh.json

# psbench archives the parallel search engine's sequential-vs-pooled
# wall-clock speedups (BENCH_parallel.json). The committed gate is a fixed
# per-worker efficiency floor, so the baseline does not need refreshing on
# hardware changes — rerun only when the engine or the scales change.
psbench:
	$(GO) run ./cmd/psbench -o BENCH_parallel.json

# psbench-check is the CI parallel-speedup gate: at min(4, NumCPU) workers
# the MWFS solve must hit the committed per-worker efficiency floor (0.5 =
# 2x wall-clock at 4 workers). Auto-skips on runners with fewer than 2 CPUs,
# where no speedup is physically possible.
psbench-check:
	$(GO) run ./cmd/psbench -check -baseline BENCH_parallel.json -o BENCH_parallel_fresh.json

# corebench re-archives the geometry-core construction and pooling speedups
# (frozen pre-CSR builders vs NewSystem/WarmAdjacency/pooled clones) into
# BENCH_core.json. The high iteration count tightens the best-of estimate;
# rerun and commit when internal/model construction or the benchmark
# changes.
corebench:
	$(GO) run ./cmd/corebench -iters 1000 -o BENCH_core.json

# corebench-check is the CI geometry-core gate: re-measure the construction,
# clone-pooling, and zero-alloc gates and fail on regression beyond 15% of
# the committed (margin-shaved) baseline. Auto-skips on runners with fewer
# than 2 CPUs, where timing ratios on a shared core gate noise, not code.
corebench-check:
	$(GO) run ./cmd/corebench -check -baseline BENCH_core.json -tolerance 0.15 -o BENCH_core_fresh.json

# fuzz is a bounded smoke run of the two attacker-facing parsers — the
# checkpoint decoder (torn/bit-rotted resume streams) and the /v1/schedule
# request decoder (malformed JSON, NaN/Inf coordinates, negative radii —
# must 400, never panic) — plus the compiled local weight kernel against
# System.Weight (random push/pop sequences, down readers, survey-style
# conflict matrices) and the branch-and-bound's conflict-aware bound against
# exhaustive enumeration (contexts, duplicate candidates, down readers,
# asymmetric conflict rows). 30 seconds each shakes out shallow bugs without
# stalling CI. Raise -fuzztime locally when hunting a specific bug.
fuzz:
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/checkpoint
	$(GO) test -fuzz=FuzzDecodeScheduleRequest -fuzztime=30s ./internal/serve
	$(GO) test -fuzz=FuzzLocalWeight -fuzztime=30s ./internal/model
	$(GO) test -fuzz=FuzzSolveExact -fuzztime=30s ./internal/mwfs

# lint runs the static analyzers CI enforces. Neither tool ships with the
# toolchain; install them once with:
#   go install honnef.co/go/tools/cmd/staticcheck@2024.1.1
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.3
lint:
	staticcheck ./...
	govulncheck ./...

# check is the full pre-merge gate: compile, static analysis, and the whole
# test suite under the race detector (the fault-injection layers lean on
# concurrent per-round node execution, so -race is not optional here).
check: build vet race

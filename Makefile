# Development entry points for the Re-Chord reproduction. CI runs the
# same commands (see .github/workflows/ci.yml), so a green `make lint
# test` locally means a green gate.

GO ?= go

# Pinned staticcheck version: CI installs exactly this; local installs
# should match so findings agree (go install
# honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)).
STATICCHECK_VERSION := 2025.1.1

# The round-engine benchmarks tracked across PRs in BENCH_rounds.json
# (steady-state Step, per-round cost at the paper's scale, fixed-point
# detection, churn recovery) are spelled out inline in bench-json and
# bench-diff — the two recipes must pin identical benchtimes per group.

# The inverted-wake-index benchmark lives inside internal/rechord (it
# drives unexported engine internals); only the indexed series is
# recorded — the scan series is the O(n) equivalence baseline and takes
# minutes at the larger size.
WAKE_BENCH := BenchmarkWakeDependents/indexed

# The barrier-split benchmark: prepare vs commit cost per batch under
# the n=4096 hot-frontier transient. The series keep their historical
# names: "serial" runs Workers=1, "sharded" Workers=4 of the parallel
# prepare (the commit is serial in both). Tracked warn-only — its
# wall-clock carries the phase-3 parallelization story, but allocation
# counts vary with the worker pool so it stays out of the -fail-allocs
# gate. (The benchmark also has an n=16384 series for by-hand
# acceptance runs; only n=4096 is recorded.)
BARRIER_BENCH := BenchmarkBarrierCommit/.*/n=4096

# Serving-layer benchmarks tracked in BENCH_lookups.json: cached vs
# uncached table routing and the end-to-end workload engine.
LOOKUP_BENCH := BenchmarkTableLookup|BenchmarkWorkload

# Wire-codec benchmarks tracked in BENCH_wire.json: the warm
# symbol-table message encode/decode hot path, pinned at <= 2 allocs/op
# by the bench-diff gate (currently 0).
WIRE_BENCH := BenchmarkEncodeMessage|BenchmarkDecodeMessage

.PHONY: all test test-short lint vet fmt staticcheck bench bench-json bench-lookups bench-async bench-mem bench-wire bench-diff fuzz-smoke cover examples clean

all: lint test

test:
	$(GO) build ./...
	$(GO) test ./...

test-short:
	$(GO) build ./...
	$(GO) test -race -short ./...

lint: fmt vet staticcheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped (loudly)
# otherwise, so `make lint` works on offline machines while CI — which
# installs the pinned version — always enforces it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# cover writes the aggregate coverage profile (uploaded as a CI
# artifact) and prints the total.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# examples builds and runs every examples/ program — the CI smoke gate
# proving the public facade drives each end to end — plus the async
# convergence figure in its quick sweep.
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d || exit 1; \
	done
	@echo "== async figure (quick)"
	$(GO) run ./cmd/rechord-figures -exp async -quick -reps 1 -plot=false

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-json records the round-engine benchmarks as machine-diffable
# JSON (name, ns/op, allocs/op, custom metrics) in BENCH_rounds.json,
# including the wake-index benchmark from internal/rechord (the two
# sizes must stay flat relative to each other — that is the
# frontier-proportional claim in numbers). The benchtimes must match
# bench-diff's measurement commands exactly: allocs/op has a small
# GC-warmup component that amortizes differently under adaptive
# benchtime, and the gate holds allocs to 0% tolerance.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkStepSteadyState' -benchmem -benchtime=1000x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRound$$|BenchmarkSnapshot|BenchmarkChurnRecoveryLarge' -benchmem -benchtime=1x . ; \
	  $(GO) test -run '^$$' -bench '$(WAKE_BENCH)' -benchmem -benchtime=1000x ./internal/rechord/ ; \
	  $(GO) test -run '^$$' -bench '$(BARRIER_BENCH)' -benchmem -benchtime=1x ./internal/rechord/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkObsHotPath' -benchmem -benchtime=1000x ./internal/obs/ ; } \
	  | $(GO) run ./cmd/benchjson > BENCH_rounds.json
	@echo wrote BENCH_rounds.json

# bench-lookups records the serving-layer benchmarks (table-lookup
# cache vs baseline, workload percentiles) in BENCH_lookups.json.
bench-lookups:
	$(GO) test -run '^$$' -bench '$(LOOKUP_BENCH)' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_lookups.json
	@echo wrote BENCH_lookups.json

# bench-async records the asynchronous scheduler benchmarks in
# BENCH_async.json: the steady-state step (must stay flat in n — the
# frontier-proportional claim), churn recovery, and convergence-time
# sweeps. The step benchmark needs iterations for a stable ns/op; the
# convergence ones carry their cost in setup, so they run a fixed
# small count.
bench-async:
	{ $(GO) test -run '^$$' -bench 'BenchmarkAsyncStep' -benchmem -benchtime=100000x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkAsyncConvergence|BenchmarkAsyncChurnRecovery' -benchmem -benchtime=3x . ; } \
	  | $(GO) run ./cmd/benchjson > BENCH_async.json
	@echo wrote BENCH_async.json

# bench-mem records the compact-handle core's memory footprint in
# BENCH_mem.json: resident bytes per peer of a settled network,
# standing flows included. The settle run is the cost, so one
# iteration per size is the stable measurement. The widened timeout
# unlocks the n=65536 rung, which self-skips at the default deadline.
bench-mem:
	$(GO) test -run '^$$' -bench 'BenchmarkMemoryPerPeer' -benchtime=1x -timeout=60m . | $(GO) run ./cmd/benchjson > BENCH_mem.json
	@echo wrote BENCH_mem.json

# bench-wire records the wire-codec hot-path benchmarks in
# BENCH_wire.json.
bench-wire:
	$(GO) test -run '^$$' -bench '$(WIRE_BENCH)' -benchmem ./internal/wire/ | $(GO) run ./cmd/benchjson > BENCH_wire.json
	@echo wrote BENCH_wire.json

# fuzz-smoke runs each native fuzz target briefly against the codec —
# the same budget CI's wire job spends per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzFrameRoundTrip' -fuzztime 30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeHostile' -fuzztime 30s ./internal/wire/

# bench-diff re-records the gated benchmarks (few iterations — alloc
# counts are deterministic, wall-clock drift is warn-only anyway) and
# compares them against the committed baselines without overwriting
# them. This is the same gate CI's bench-diff job runs: an allocs/op
# regression on the steady-state benchmarks fails, everything else
# warns.
bench-diff:
	{ $(GO) test -run '^$$' -bench 'BenchmarkStepSteadyState' -benchmem -benchtime=1000x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRound$$|BenchmarkSnapshot|BenchmarkChurnRecoveryLarge' -benchmem -benchtime=1x . ; \
	  $(GO) test -run '^$$' -bench '$(WAKE_BENCH)' -benchmem -benchtime=1000x ./internal/rechord/ ; \
	  $(GO) test -run '^$$' -bench '$(BARRIER_BENCH)' -benchmem -benchtime=1x ./internal/rechord/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkObsHotPath' -benchmem -benchtime=1000x ./internal/obs/ ; } \
	  | $(GO) run ./cmd/benchjson > /tmp/bench_new_rounds.json
	$(GO) run ./cmd/benchdiff -base BENCH_rounds.json -new /tmp/bench_new_rounds.json \
	  -fail-allocs 'BenchmarkStepSteadyState|BenchmarkWakeDependents|BenchmarkObsHotPath'
	{ $(GO) test -run '^$$' -bench 'BenchmarkAsyncStep' -benchmem -benchtime=100000x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkAsyncConvergence|BenchmarkAsyncChurnRecovery' -benchmem -benchtime=3x . ; } \
	  | $(GO) run ./cmd/benchjson > /tmp/bench_new_async.json
	$(GO) run ./cmd/benchdiff -base BENCH_async.json -new /tmp/bench_new_async.json \
	  -fail-allocs 'BenchmarkAsyncStep'
	$(GO) test -run '^$$' -bench '$(WIRE_BENCH)' -benchmem -benchtime=10000x ./internal/wire/ \
	  | $(GO) run ./cmd/benchjson > /tmp/bench_new_wire.json
	$(GO) run ./cmd/benchdiff -base BENCH_wire.json -new /tmp/bench_new_wire.json \
	  -fail-allocs 'BenchmarkEncodeMessage|BenchmarkDecodeMessage'
	$(GO) test -run '^$$' -bench 'BenchmarkMemoryPerPeer/n=(1024|4096|16384)$$' -benchtime=1x . \
	  | $(GO) run ./cmd/benchjson > /tmp/bench_new_mem.json
	$(GO) run ./cmd/benchdiff -base BENCH_mem.json -new /tmp/bench_new_mem.json \
	  -metric bytes/peer -metric-tol 0.10 -fail-metric 'BenchmarkMemoryPerPeer/n=(1024|4096|16384)$$'

clean:
	$(GO) clean -testcache

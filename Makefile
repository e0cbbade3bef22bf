# Local verification targets mirroring .github/workflows/ci.yml, so a
# green `make ci` locally means a green CI run.

GO ?= go

.PHONY: build test race fmt vet benchmod smoke cover fuzz bench benchsweep benchsmoke benchdiff ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent code (worker pool + harness)
# and the ridge, bandit, policy/env/serve, fleet, optimiser, index,
# engine and storage layers every experiment cell, fleet tenant and
# serving session drives from those workers (storage builds its join
# lookups lazily on first read; index.Config is plain data that workers
# share read-only).
race:
	$(GO) test -race ./internal/runner/... ./internal/linalg/... ./internal/mab/... ./internal/harness/... ./internal/policy/... ./internal/env/... ./internal/serve/... ./internal/fleet/... ./internal/optimizer/... ./internal/index/... ./internal/engine/... ./internal/storage/...

# Fails when any file needs gofmt, listing the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The bench/ module (the repository benchmark's driver) is a separate Go
# module, so ./... above never compiles it; vet and test it on its own so
# an API change in env, policy or serve cannot break bench/run.sh unseen.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# End-to-end smoke run: Figure 2, shrunken rounds, 4-way parallel sweep.
smoke:
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -progress

# Native fuzzing of the trust-boundary decoders, every policy's
# snapshot Restore, the serving stream parser and the benchmark-capture
# parser, 10 s per target
# (go test -fuzz takes one target and one package per run; for a longer
# local run call go test -fuzz directly). Each target's committed seed
# corpus under testdata/fuzz also runs as part of the ordinary test
# suite. Minimising a new input is capped at 100 runs: at the default
# 60 s, shrinking one 25 KB checkpoint image takes the whole budget and
# the fuzzer makes no further progress.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 100x
fuzz:
	$(FUZZ) -fuzz '^FuzzDecodeCheckpoint$$' ./internal/serve/
	$(FUZZ) -fuzz '^FuzzFloatencDecode$$' ./internal/floatenc/
	$(FUZZ) -fuzz '^FuzzRestoreRidgeState$$' ./internal/linalg/
	$(FUZZ) -fuzz '^FuzzStream$$' ./internal/serve/
	$(FUZZ) -fuzz '^FuzzBenchfmtParse$$' ./internal/benchfmt/
	$(FUZZ) -fuzz '^FuzzPolicyRestore$$' ./internal/policy/

# Per-package coverage, as published in the CI workflow summary.
cover:
	$(GO) test -cover ./...

# Hot-path benchmark capture: runs the recommend-loop benchmarks with
# -benchmem and writes the numbers to BENCH_<short-sha>.json via
# cmd/benchjson, so the perf trajectory is tracked in-repo. Compare
# against BENCH_baseline.json (captured at the pre-sparse-fast-path
# commit) — see the README's Performance section.
BENCH_PATTERN = 'BenchmarkTunerRecommendTPCDS$$|BenchmarkTunerRecommendSteadyState$$|BenchmarkScoresTPCDS$$|BenchmarkRidgeObserveScoreSparse$$|BenchmarkRidgeForget$$|BenchmarkC2UCBScores$$|BenchmarkArmGeneration$$|BenchmarkFleetRound$$|BenchmarkChoosePlanCold$$|BenchmarkChoosePlanWarm$$|BenchmarkChoosePlanMiss$$|BenchmarkWhatIfCost$$|BenchmarkWhatIfSingleIndexSweep$$|BenchmarkWhatIfWorkloadCold$$|BenchmarkWhatIfWorkloadWarm$$|BenchmarkEnvRoundSteadyState$$|BenchmarkQueryExecution$$|BenchmarkExecuteWorkloadTPCDS$$|BenchmarkWriteCheckpoint$$|BenchmarkRestoreCheckpoint$$|BenchmarkServeWindowTPCDS$$'

bench:
	$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchmem ./... > .bench.out
	$(GO) run ./cmd/benchjson < .bench.out > BENCH_$$(git rev-parse --short HEAD).json
	@rm -f .bench.out
	@echo wrote BENCH_$$(git rev-parse --short HEAD).json

# Committed latest capture; bump when `make bench` commits a new one.
BENCH_LATEST = BENCH_8a2392a.json

# Perf regression tripwire mirroring CI: re-runs the Observe/Scores,
# recommend-round, engine-execution, serve-window and checkpoint restore
# hot paths,
# captures them through benchjson, and fails if any benchmark present in
# both captures regressed ns/op OR allocs/op by more than 30% against
# the committed latest capture — the alloc budget is what keeps
# TunerRecommend's arena path and Execute's pooled buffers flat.
# Benchmarks new since that capture are reported but never gated.
# BenchmarkWriteCheckpoint stays out of the gate: its ns/op includes two
# fsyncs, i.e. disk latency that varies far more than 30% across
# runners. It is captured by `make bench`, and TestCheckpointAllocs in
# internal/serve pins its allocations.
benchdiff:
	$(GO) test -run '^$$' -bench 'Observe|Scores|TunerRecommend|ChoosePlan|WhatIf|EnvRound|QueryExecution|ExecuteWorkload|RestoreCheckpoint|ServeWindow' -benchmem . ./internal/linalg/ ./internal/mab/ ./internal/env/ ./internal/serve/ > .benchdiff.out
	$(GO) run ./cmd/benchjson < .benchdiff.out > .benchdiff.json
	@$(GO) run ./cmd/benchdiff -only 'Observe|Scores|TunerRecommend|ChoosePlan|WhatIf|EnvRound|QueryExecution|ExecuteWorkload|RestoreCheckpoint|ServeWindow' -fail-over 30 -fail-over-allocs 30 $(BENCH_LATEST) .benchdiff.json; \
	status=$$?; rm -f .benchdiff.out .benchdiff.json; exit $$status

# Parallel-runner speedup benchmark (sequential vs all-CPU sweep).
benchsweep:
	$(GO) test -run '^$$' -bench BenchmarkRunCellsStaticSweep -benchtime 1x .

# Compile-and-run smoke over every benchmark in the repo (one iteration
# each), so benchmarks can't rot between perf-focused PRs — plus a
# benchjson round-trip over the mab hot-path benches so the capture
# tooling can't rot either.
benchsmoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run '^$$' -bench 'BenchmarkScoresTPCDS$$|BenchmarkTunerRecommendSteadyState$$' -benchtime 1x ./internal/mab/ > .benchsmoke.out
	$(GO) run ./cmd/benchjson < .benchsmoke.out > /dev/null
	@rm -f .benchsmoke.out

# cover subsumes test (go test -cover runs the full suite), so ci pays
# for one suite pass plus the race pass, matching the CI workflow.
ci: fmt vet build cover benchmod race fuzz smoke benchsmoke benchdiff

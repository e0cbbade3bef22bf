# Local verification targets mirroring .github/workflows/ci.yml, so a
# green `make ci` locally means a green CI run.

GO ?= go

.PHONY: build test race fmt vet smoke htapsmoke ridgesmoke servesmoke scoresmoke fleetsmoke plancachesmoke cover bench benchsweep benchsmoke benchdiff ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent code (worker pool + sharded
# scoring kernels + harness) and the policy/env/serve layers every
# experiment cell and serving session drives. linalg and mab are here
# for the parallel arm-scoring tests: shards score a shared ridge core
# concurrently, and -race proves the read-only discipline.
race:
	$(GO) test -race ./internal/runner/... ./internal/linalg/... ./internal/mab/... ./internal/harness/... ./internal/policy/... ./internal/env/... ./internal/serve/... ./internal/fleet/... ./internal/optimizer/... ./internal/engine/...

# Fails when any file needs gofmt, listing the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# End-to-end smoke run: Figure 2, shrunken rounds, 4-way parallel sweep.
smoke:
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -progress

# HTAP smoke mirroring CI: the hybrid-regime comparison at two
# parallelism levels, stdout byte-compared for determinism.
htapsmoke:
	$(GO) run ./cmd/experiments -exp htap -quick -parallel 1 > .htap_p1.out
	$(GO) run ./cmd/experiments -exp htap -quick -parallel 4 > .htap_p4.out
	diff .htap_p1.out .htap_p4.out
	@rm -f .htap_p1.out .htap_p4.out

# Ridge-backend smoke mirroring CI: Figure 2 regenerated once per ridge
# backend (Sherman–Morrison vs factored Cholesky), stdout byte-compared
# — the factored path must be a drop-in, not a behaviour change.
ridgesmoke:
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -ridge sm > .ridge_sm.out
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -ridge chol > .ridge_chol.out
	diff .ridge_sm.out .ridge_chol.out
	@rm -f .ridge_sm.out .ridge_chol.out

# Serving-mode smoke mirroring CI: serve a 5-window stream to the end,
# then serve it again but kill the process at a window-3 checkpoint and
# restore from disk — the stitched kill-and-restore output must match
# the uninterrupted run byte for byte (only the process-local Served
# counter in the summary line is masked).
# Parallel-scoring smoke mirroring CI: Figure 2 regenerated with arm
# scoring fanned across 4 workers, stdout byte-compared against the
# default serial pass — parallelism changes scheduling, never bytes.
scoresmoke:
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 > .score_serial.out
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -score-parallel 4 > .score_par.out
	diff .score_serial.out .score_par.out
	@rm -f .score_serial.out .score_par.out

# Fleet smoke mirroring CI: an 8-tenant heterogeneous fleet (mixed
# benchmarks, regimes and scale factors, two tenants admitted late with
# cross-tenant warm starts) run serially and 4-way parallel, stdout
# byte-compared — tenant scheduling must never leak into any number.
fleetsmoke:
	$(GO) run ./cmd/fleet -tenants 8 -rounds 3 -rows 500 -parallel 1 > .fleet_p1.out
	$(GO) run ./cmd/fleet -tenants 8 -rounds 3 -rows 500 -parallel 4 > .fleet_p4.out
	diff .fleet_p1.out .fleet_p4.out
	@rm -f .fleet_p1.out .fleet_p4.out

# Plan-cache smoke mirroring CI: Figure 2 regenerated with the
# optimiser's config-fingerprinted plan cache on (the default) and off,
# stdout byte-compared — the cache is a wall-clock optimisation and must
# never change a plan, a cost, or a count.
plancachesmoke:
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 > .pc_on.out
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -plan-cache=false > .pc_off.out
	diff .pc_on.out .pc_off.out
	@rm -f .pc_on.out .pc_off.out

servesmoke:
	@printf '1 2 3 4\n2 3 1\n5 5 2\n1 4\n3 2 1\n' > .serve_stream.txt
	$(GO) run ./cmd/serve -stream .serve_stream.txt > .serve_full.out
	$(GO) run ./cmd/serve -stream .serve_stream.txt -checkpoint .serve.ckpt -stop-after 3 > .serve_head.out
	$(GO) run ./cmd/serve -restore -stream .serve_stream.txt -checkpoint .serve.ckpt > .serve_tail.out
	head -n 3 .serve_head.out > .serve_stitch.out
	head -n 2 .serve_tail.out >> .serve_stitch.out
	head -n 5 .serve_full.out | diff - .serve_stitch.out
	tail -n 1 .serve_full.out | sed 's/"Served":[0-9]*/"Served":0/' > .serve_sum_full.out
	tail -n 1 .serve_tail.out | sed 's/"Served":[0-9]*/"Served":0/' > .serve_sum_tail.out
	diff .serve_sum_full.out .serve_sum_tail.out
	@rm -f .serve_stream.txt .serve.ckpt .serve_full.out .serve_head.out .serve_tail.out .serve_stitch.out .serve_sum_full.out .serve_sum_tail.out

# Per-package coverage, as published in the CI workflow summary.
cover:
	$(GO) test -cover ./...

# Hot-path benchmark capture: runs the recommend-loop benchmarks with
# -benchmem and writes the numbers to BENCH_<short-sha>.json via
# cmd/benchjson, so the perf trajectory is tracked in-repo. Compare
# against BENCH_baseline.json (captured at the pre-sparse-fast-path
# commit) — see the README's Performance section.
BENCH_PATTERN = 'BenchmarkTunerRecommendTPCDS$$|BenchmarkTunerRecommendSteadyState$$|BenchmarkScoresTPCDS$$|BenchmarkScoresBatch$$|BenchmarkScoresBatchParallel$$|BenchmarkScoresSparse$$|BenchmarkScoresDenseTPCDS$$|BenchmarkThetaCached$$|BenchmarkThetaRecompute$$|BenchmarkCholObserve$$|BenchmarkCholObserveFused$$|BenchmarkRidgeObserveScore$$|BenchmarkRidgeObserveScoreSparse$$|BenchmarkRidgeForget$$|BenchmarkForgetLowRank$$|BenchmarkRidgeObserve$$|BenchmarkC2UCBScores$$|BenchmarkArmGeneration$$|BenchmarkFleetRound$$|BenchmarkChoosePlanCold$$|BenchmarkChoosePlanWarm$$|BenchmarkWhatIfWorkloadCold$$|BenchmarkWhatIfWorkloadWarm$$|BenchmarkEnvRoundSteadyState$$|BenchmarkQueryExecution$$|BenchmarkExecuteWorkloadTPCDS$$'

bench:
	$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchmem ./... > .bench.out
	$(GO) run ./cmd/benchjson -label ridge=sm -label score-workers=1,2,4 -label plan-cache=on < .bench.out > BENCH_$$(git rev-parse --short HEAD).json
	@rm -f .bench.out
	@echo wrote BENCH_$$(git rev-parse --short HEAD).json

# Committed latest capture; bump when `make bench` commits a new one.
BENCH_LATEST = BENCH_50b06f1.json

# Perf regression tripwire mirroring CI: re-runs the Observe/Scores,
# recommend-round and engine-execution hot paths, captures them through
# benchjson, and fails if any benchmark present in both captures
# regressed ns/op OR allocs/op by more than 30% against the committed
# latest capture — the alloc budget is what keeps TunerRecommend's arena
# path and Execute's pooled buffers flat.
# Benchmarks new since that capture are reported but never gated.
benchdiff:
	$(GO) test -run '^$$' -bench 'Observe|Scores|TunerRecommend|ChoosePlan|WhatIfWorkload|EnvRound|QueryExecution|ExecuteWorkload' -benchmem . ./internal/linalg/ ./internal/mab/ ./internal/env/ > .benchdiff.out
	$(GO) run ./cmd/benchjson < .benchdiff.out > .benchdiff.json
	@$(GO) run ./cmd/benchdiff -only 'Observe|Scores|TunerRecommend|ChoosePlan|WhatIfWorkload|EnvRound|QueryExecution|ExecuteWorkload' -fail-over 30 -fail-over-allocs 30 $(BENCH_LATEST) .benchdiff.json; \
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
	$(GO) test -run '^$$' -bench 'BenchmarkScoresTPCDS$$|BenchmarkScoresSparse$$' -benchtime 1x ./internal/mab/ > .benchsmoke.out
	$(GO) run ./cmd/benchjson < .benchsmoke.out > /dev/null
	@rm -f .benchsmoke.out

# cover subsumes test (go test -cover runs the full suite), so ci pays
# for one suite pass plus the race pass, matching the CI workflow.
ci: fmt vet build cover race smoke htapsmoke ridgesmoke scoresmoke plancachesmoke servesmoke fleetsmoke benchsmoke benchdiff

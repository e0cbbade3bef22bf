#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload static-tpcds --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files go to .bench_build/ under the current directory, so the
# run writes nothing outside it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/dbabench" .)
exec "$build/dbabench" "$@"

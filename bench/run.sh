#!/usr/bin/env bash
# Builds the benchmark harness and runs it with the given arguments:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# This is the command BENCHMARK.json names. The binary and the Go build
# cache both live in .bench_build/ at the root of the checkout, so a run
# reads and writes nothing outside it; `go run ./bench` is the same
# program built into Go's usual cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/tealeaf-bench ./bench
exec .bench_build/tealeaf-bench "$@"

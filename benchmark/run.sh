#!/usr/bin/env bash
# What BENCHMARK.json's command runs: build the benchmark with every build
# output inside the checkout (.bench_build/), then become it. Arguments pass
# through: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# `go run ./benchmark` does the same with the user's own build cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

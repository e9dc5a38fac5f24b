#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it with the
# given arguments. BENCHMARK.json's command; `go run ./bench` works as well.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache"
export GOTOOLCHAIN=local
go build -o .bench_build/utk-bench ./bench
exec .bench_build/utk-bench "$@"

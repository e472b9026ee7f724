#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: runs the harness with `go run`
# from the checkout root, keeping the Go build cache inside the checkout
# so the benchmark reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="${root}/.bench_build/gocache"
export GOTOOLCHAIN=local GOPROXY=off
exec go run -C "${root}/bench" . "$@"

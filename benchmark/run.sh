#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the harness and runs it with the
# given arguments. Everything Go writes while building and running — the build
# cache, temporary files, the harness binary, run directories, trace.json —
# is kept under .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

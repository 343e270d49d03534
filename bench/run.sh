#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes (the binary, Go's build
# cache, its temporary files) stays under .bench_build/, so a run reads and
# writes nothing outside the checkout; the first run pays for a cold build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

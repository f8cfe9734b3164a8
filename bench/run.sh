#!/bin/bash
# Builds the benchmark from source and runs it with the given flags.
# This is BENCHMARK.json's command: run it from anywhere, it works from
# the root of the checkout the script lives in. Everything the build and
# the run write — Go's build cache and temp files, the binary, the WAL
# directories — stays under <checkout>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"

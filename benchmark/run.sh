#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (inside the checkout, so
# nothing is read or written outside it) and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload <name> ...
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/bandbench" .)
exec "$build/bandbench" "$@"

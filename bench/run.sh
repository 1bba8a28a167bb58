#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload fig8 --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and every file a run writes stay inside
# the checkout, under .bench_build/. Outside a checkout of the module
# the build fails, and so does the script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters there too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

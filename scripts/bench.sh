#!/usr/bin/env bash
# Hot-path benchmark harness: simulator replay (SimulateVenusPair),
# trace decode (TraceDecodeASCII, plus its materializing variant), the
# scheduler dispatch path (ScheduledVolume), the shared-backbone
# transfer path (CongestedPair), the fault-injection retry path (DegradedPair), and
# the CSV importer decode loop (ImportCSV), with allocation reporting.
# CI invokes it with the defaults below (3 one-shot samples — quick
# enough for every push, enough to spot a regression), gates the output
# against the BENCH_PR9.json waterline via scripts/bench_check.sh, and
# uploads it; for real measurements run e.g.
#
#   BENCH_TIME=2s scripts/bench.sh bench_local.txt
#
# Output goes to the file named by $1 (default bench.txt) and to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench.txt}"
count="${BENCH_COUNT:-3}"
benchtime="${BENCH_TIME:-1x}"

go test -run '^$' -bench 'SimulateVenusPair|TraceDecodeASCII|ScheduledVolume|CongestedPair|DegradedPair|ImportCSV' \
	-benchmem -count "$count" -benchtime "$benchtime" . | tee "$out"

#!/usr/bin/env bash
# Benchmark-regression gate: compares a fresh scripts/bench.sh run against
# the committed waterline in BENCH_PR9.json and fails the bench job when a
# hot path regresses. The gate reads the six waterlines
# (SimulateVenusPair, TraceDecodeASCII, ScheduledVolume, CongestedPair,
# DegradedPair, ImportCSV) that BENCH_PR9.json carries from
# BENCH_PR8.json verbatim; the file's other entries are not read.
#
# A benchmark fails the gate when
#   - its best (minimum) ns/op across the run's samples exceeds the
#     waterline ns/op by more than BENCH_TOLERANCE percent (default 25 —
#     one-shot samples on shared CI runners are noisy; the waterline is
#     itself the slowest reference-machine sample), or
#   - its allocs/op grows at all (allocation counts are deterministic, so
#     any increase is a real regression, not noise).
#
# Usage: scripts/bench_check.sh [bench.txt] [BENCH_PR9.json]
set -euo pipefail
cd "$(dirname "$0")/.."

bench_out="${1:-bench.txt}"
waterline_json="${2:-BENCH_PR9.json}"
tolerance="${BENCH_TOLERANCE:-25}"

[[ -r "$bench_out" ]] || { echo "bench_check: no benchmark output at $bench_out" >&2; exit 2; }
[[ -r "$waterline_json" ]] || { echo "bench_check: no waterline at $waterline_json" >&2; exit 2; }

# waterline <name> <key>: pull a numeric field of the "waterline" section.
# Waterline keys are bare names ("TraceDecodeASCII"), start-anchored so the
# "BenchmarkTraceDecodeASCII" keys of the measurement section never match.
waterline() {
	awk -v name="$1" -v key="$2" '
		$0 ~ "^[[:space:]]*\"" name "\":" { found = 1; next }
		found && $0 ~ "^[[:space:]]*\"" key "\":" {
			gsub(/[^0-9]/, "", $2); print $2; exit
		}
		found && /}/ { exit }
	' "$waterline_json"
}

# best <name> <unit>: minimum value of the column reported in <unit>
# across all "Benchmark<name>(-N)?" lines of the fresh run.
best() {
	awk -v bench="Benchmark$1" -v unit="$2" '
		$1 ~ ("^" bench "(-[0-9]+)?$") {
			for (i = 2; i < NF; i++)
				if ($(i + 1) == unit && (min == "" || $i + 0 < min + 0))
					min = $i
		}
		END { if (min != "") print min }
	' "$bench_out"
}

fail=0
for name in SimulateVenusPair TraceDecodeASCII ScheduledVolume CongestedPair DegradedPair ImportCSV; do
	want_ns=$(waterline "$name" ns_per_op)
	want_allocs=$(waterline "$name" allocs_per_op)
	if [[ -z "$want_ns" || -z "$want_allocs" ]]; then
		echo "bench_check: FAIL $name: no waterline entry in $waterline_json" >&2
		fail=1
		continue
	fi
	got_ns=$(best "$name" ns/op)
	got_allocs=$(best "$name" allocs/op)
	if [[ -z "$got_ns" || -z "$got_allocs" ]]; then
		echo "bench_check: FAIL $name: benchmark missing from $bench_out" >&2
		fail=1
		continue
	fi
	awk -v got="$got_ns" -v want="$want_ns" -v tol="$tolerance" \
		'BEGIN { exit !(got + 0 <= want * (100 + tol) / 100) }' || {
		echo "bench_check: FAIL $name: $got_ns ns/op is >${tolerance}% over the $want_ns ns/op waterline" >&2
		fail=1
		continue
	}
	awk -v got="$got_allocs" -v want="$want_allocs" \
		'BEGIN { exit !(got + 0 <= want + 0) }' || {
		echo "bench_check: FAIL $name: allocs/op grew from $want_allocs to $got_allocs" >&2
		fail=1
		continue
	}
	echo "bench_check: ok $name: $got_ns ns/op (waterline $want_ns +${tolerance}%), $got_allocs allocs/op (waterline $want_allocs)"
done
exit "$fail"

#!/usr/bin/env bash
# Same-runner A/B of the repository benchmark. Runs each workload of
# the base's BENCHMARK.json on two checkouts of this module in 10
# alternating pairs, the fewest `bench compare` accepts (seed 1, the
# base's run_seconds, untraced), then compares the two results files
# with `bench compare`, which exits non-zero when a metric regressed
# beyond its bound.
#
#   scripts/bench_ab.sh BASE_DIR HEAD_DIR [WORKLOAD...]
#
# The workloads default to all of the base's; a workload the head adds
# has no base run to compare against. Each side's earlier results are
# removed first, so a comparison never pairs old runs.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
shift 2
spec="$base/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$spec")
if (($# > 0)); then
	workloads=("$@")
else
	mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
fi

rm -f "$base/.bench_build/results.json" "$head/.bench_build/results.json"
run() { bash "$1/bench/run.sh" --workload "$2" --seed 1 --seconds "$seconds" --trace 0; }
for w in "${workloads[@]}"; do
	for ((i = 0; i < 10; i++)); do
		if ((i % 2 == 0)); then
			run "$base" "$w"
			run "$head" "$w"
		else
			run "$head" "$w"
			run "$base" "$w"
		fi
	done
done
bash "$head/bench/run.sh" compare "$base/.bench_build/results.json" "$head/.bench_build/results.json"

#!/usr/bin/env bash
# smoke_iosimd.sh — end-to-end service smoke test (the CI smoke job).
#
# Drives a real iosimd process through the service's core contract:
#
#   1. build tracegen and iosimd from the current tree;
#   2. generate a trace and upload it (content-addressed storage);
#   3. run a sweep, then run the identical sweep again;
#   4. fail unless the replay is byte-identical to the first response
#      AND executed zero new simulations (the /stats executed_cells
#      counter must not move);
#   5. stop the daemon with SIGTERM (it must exit 0), restart it over
#      the same data directory, and require the cached sweep again.
#
# Needs only curl and standard tools — responses are picked apart with
# sed, not jq.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/tracegen" ./cmd/tracegen
go build -o "$work/iosimd" ./cmd/iosimd

echo "== generate + start"
"$work/tracegen" -app upw -o "$work/upw.trace"
"$work/iosimd" -addr 127.0.0.1:0 -data "$work/data" >"$work/iosimd.log" 2>&1 &
server_pid=$!

# The daemon prints "iosimd: listening on http://<addr>" once the
# socket is bound; port 0 means the kernel picked the port, so the log
# line is the only place to learn it.
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's/^iosimd: listening on \(http:\/\/[^ ]*\)$/\1/p' "$work/iosimd.log" || true)
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$work/iosimd.log" >&2; echo "iosimd died on startup" >&2; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "iosimd never reported its address" >&2; exit 1; }
echo "   $base"

# executed_cells <stats-json>: extract the simulations-run counter.
executed_cells() {
    sed -n 's/.*"executed_cells":\([0-9]*\).*/\1/p' "$1"
}

echo "== upload"
curl -sSf -X POST --data-binary @"$work/upw.trace" \
    "$base/traces?name=upw" >"$work/upload.json"
digest=$(sed -n 's/.*"digest":"\([0-9a-f]\{64\}\)".*/\1/p' "$work/upload.json")
[ -n "$digest" ] || { cat "$work/upload.json" >&2; echo "upload returned no digest" >&2; exit 1; }
echo "   digest $digest"

sweep='{"trace":"upw","grid":{"cache_mb":[4,8],"block_kb":[4,8]}}'

echo "== sweep (fresh)"
curl -sSf -X POST -H 'Content-Type: application/json' -d "$sweep" \
    "$base/sweep" >"$work/sweep1.json"
curl -sSf "$base/stats" >"$work/stats1.json"
ran1=$(executed_cells "$work/stats1.json")
[ "$ran1" = 4 ] || { echo "fresh 2x2 sweep executed $ran1 cells, want 4" >&2; exit 1; }

echo "== sweep (replay)"
curl -sSf -X POST -H 'Content-Type: application/json' -d "$sweep" \
    "$base/sweep" >"$work/sweep2.json"
curl -sSf "$base/stats" >"$work/stats2.json"
ran2=$(executed_cells "$work/stats2.json")

if ! cmp -s "$work/sweep1.json" "$work/sweep2.json"; then
    echo "replayed sweep response differs from the fresh one:" >&2
    diff "$work/sweep1.json" "$work/sweep2.json" >&2 || true
    exit 1
fi
if [ "$ran2" != "$ran1" ]; then
    echo "replayed sweep executed $((ran2 - ran1)) new simulations, want 0" >&2
    exit 1
fi

echo "== restart (cache must survive)"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
[ "$status" = 0 ] || { cat "$work/iosimd.log" >&2; echo "iosimd exited $status after SIGTERM, want 0" >&2; exit 1; }
"$work/iosimd" -addr 127.0.0.1:0 -data "$work/data" >"$work/iosimd2.log" 2>&1 &
server_pid=$!
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's/^iosimd: listening on \(http:\/\/[^ ]*\)$/\1/p' "$work/iosimd2.log" || true)
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "restarted iosimd never reported its address" >&2; exit 1; }

curl -sSf -X POST -H 'Content-Type: application/json' -d "$sweep" \
    "$base/sweep" >"$work/sweep3.json"
curl -sSf "$base/stats" >"$work/stats3.json"
ran3=$(executed_cells "$work/stats3.json")
if ! cmp -s "$work/sweep1.json" "$work/sweep3.json"; then
    echo "post-restart sweep response differs from the original:" >&2
    diff "$work/sweep1.json" "$work/sweep3.json" >&2 || true
    exit 1
fi
[ "$ran3" = 0 ] || { echo "restarted server re-ran $ran3 simulations, want 0" >&2; exit 1; }

echo "smoke: upload -> sweep -> byte-identical cached replay (0 new simulations), across a restart"

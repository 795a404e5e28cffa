#!/bin/sh
# Replicated-serve-tier load harness: stands up a leader + follower pair on
# a tiny collected store, replays the harvested query corpus (plus export
# and path traffic) against both with `igdb loadgen`, then repeats the
# follower run while the leader is killed mid-stream — the follower must
# keep answering with a zero error rate. The three reports are merged into
# BENCH_serve.json alongside scripts/bench.sh's entries.
#
# Usage:
#   scripts/loadgen.sh            # full run (duration from LOADGEN_DURATION, default 10s)
#   scripts/loadgen.sh --smoke    # 2s runs; correctness only
#
# --smoke merges into artifacts/bench-smoke/BENCH_serve.json (where
# scripts/bench.sh --smoke writes), never into the committed file.
set -eu

cd "$(dirname "$0")/.."

duration="${LOADGEN_DURATION:-10s}"
conc="${LOADGEN_CONCURRENCY:-4}"
destdir=.
if [ "${1:-}" = "--smoke" ]; then
    duration=2s
    conc=2
    destdir=artifacts/bench-smoke
    mkdir -p "$destdir"
fi

out="$destdir/BENCH_serve.json"
work=$(mktemp -d)
leader_pid=""
follower_pid=""
cleanup() {
    [ -n "$leader_pid" ] && kill "$leader_pid" 2>/dev/null || true
    [ -n "$follower_pid" ] && kill "$follower_pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

go build -o "$work/igdb" ./cmd/igdb

"$work/igdb" collect -dir "$work/store" >/dev/null

# Ports derived from the PID so concurrent runs do not collide.
leader_port=$(( ($$ % 10000) + 20000 ))
follower_port=$(( leader_port + 1 ))
leader_url="http://127.0.0.1:$leader_port"
follower_url="http://127.0.0.1:$follower_port"

# wait_health URL PATTERN — poll /healthz until the pattern appears.
wait_health() {
    i=0
    while ! curl -sf --max-time 2 "$1/healthz" 2>/dev/null | grep -q "$2"; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "loadgen.sh: $1 never reported $2" >&2
            exit 1
        fi
        sleep 0.2
    done
}

start_leader() {
    "$work/igdb" serve -dir "$work/store" -leader -addr "127.0.0.1:$leader_port" \
        >>"$work/leader.log" 2>&1 &
    leader_pid=$!
    wait_health "$leader_url" '"role":"leader"'
}

start_leader
"$work/igdb" serve -follow "$leader_url" -addr "127.0.0.1:$follower_port" \
    -replica-poll 500ms >>"$work/follower.log" 2>&1 &
follower_pid=$!
# The follower is synced once its health flips from "syncing" to "ok".
wait_health "$follower_url" '"status":"ok"'

run() { # $1 = report name, $2 = target URL
    "$work/igdb" loadgen -url "$2" -duration "$duration" -concurrency "$conc" \
        -name "$1" -o "$work/$1.json"
    echo "loadgen.sh: $1: $(grep -E '"(rps|p99_ms|error_rate)"' "$work/$1.json" | tr -d ' \n')"
}

# Observability smoke against the live leader: EXPLAIN ANALYZE must return
# an instrumented plan, and after a loadgen run /debug/statements must hold
# per-fingerprint aggregates.
explain_out=$(curl -sf --max-time 5 -X POST "$leader_url/sql" \
    -d 'EXPLAIN ANALYZE SELECT asn, country FROM asn_loc LIMIT 5')
case "$explain_out" in
*'"plan"'*'actual'*) ;;
*)
    echo "loadgen.sh: EXPLAIN ANALYZE over POST /sql returned no instrumented plan:" >&2
    echo "$explain_out" >&2
    exit 1
    ;;
esac
echo "loadgen.sh: EXPLAIN ANALYZE smoke passed on the leader"

run LoadgenLeader "$leader_url"
run LoadgenFollower "$follower_url"

if ! curl -sf --max-time 5 "$leader_url/debug/statements" | grep -q '"fingerprint"'; then
    echo "loadgen.sh: /debug/statements holds no fingerprints after a loadgen run" >&2
    exit 1
fi
echo "loadgen.sh: /debug/statements aggregated the loadgen run"

# Failover run: kill the leader partway through a follower-directed run.
# The follower keeps serving its last good snapshot, so its error rate must
# stay exactly zero.
(
    sleep 1
    kill "$leader_pid" 2>/dev/null || true
) &
killer_pid=$!
run LoadgenFollowerLeaderKilled "$follower_url"
wait "$killer_pid" 2>/dev/null || true
leader_pid=""
if ! grep -q '"error_rate": 0,' "$work/LoadgenFollowerLeaderKilled.json"; then
    echo "loadgen.sh: follower served errors while the leader was down:" >&2
    cat "$work/LoadgenFollowerLeaderKilled.json" >&2
    exit 1
fi
echo "loadgen.sh: follower error rate 0 with the leader killed mid-stream"

# Merge the three reports into BENCH_serve.json. bench.sh rewrites the file
# as a JSON array; we append to it (or start a fresh array), so both
# harnesses' entries coexist.
merged="$work/merged.json"
if [ -s "$out" ]; then
    sed '$d' "$out" > "$merged" # drop the closing ]
    printf ',\n' >> "$merged"
else
    printf '[\n' > "$merged"
fi
first=1
for name in LoadgenLeader LoadgenFollower LoadgenFollowerLeaderKilled; do
    [ "$first" = 1 ] || printf ',\n' >> "$merged"
    cat "$work/$name.json" >> "$merged"
    first=0
done
printf ']\n' >> "$merged"
mv "$merged" "$out"

echo "loadgen.sh: wrote 3 loadgen reports to $out"

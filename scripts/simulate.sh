#!/bin/sh
# What-if failure-engine benchmark harness.
#
# Runs BenchmarkScenarioThroughput at one worker and at one worker per
# available CPU, then writes BENCH_simulate.json at the repo root with
# scenarios/sec for both settings, the measured all-core speedup, and the
# core count (the speedup is only meaningful against it: a 1-core runner
# reports ~1x by construction).
#
# Usage:
#   scripts/simulate.sh           # full run (benchtime from BENCHTIME, default 2s)
#   scripts/simulate.sh --smoke   # one iteration per benchmark; correctness only
#
# --smoke output is meaningless as a measurement, so it goes to
# artifacts/bench-smoke/ and the committed BENCH_simulate.json is untouched.
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"
destdir=.
if [ "${1:-}" = "--smoke" ]; then
    benchtime=1x
    destdir=artifacts/bench-smoke
    mkdir -p "$destdir"
fi

out="$destdir/BENCH_simulate.json"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

go test -run '^$' -bench 'BenchmarkScenarioThroughput' \
    -benchtime "$benchtime" ./internal/simulate/ | tee "$tmp"

# Benchmark lines look like:
#   BenchmarkScenarioThroughput/workers=1-8  5  210ms/op  304.8 scenarios/sec
# The first workers=1 series is the single-core baseline; the last series
# is the all-core run (identical name plus a #01 suffix on a 1-CPU host).
awk -v cores="$cores" '
/^Benchmark/ {
    sps = ""
    for (i = 3; i < NF; i++) if ($(i + 1) == "scenarios/sec") sps = $i
    if (sps == "") next
    if (single == "") single = sps
    all = sps
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (name ~ /workers=1$|workers=1#/) nworkers = 1
    else { nworkers = name; sub(/.*workers=/, "", nworkers); sub(/#.*/, "", nworkers) }
}
END {
    if (single == "" || all == "") {
        print "simulate.sh: no scenarios/sec samples parsed" > "/dev/stderr"
        exit 1
    }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkScenarioThroughput\",\n"
    printf "  \"cores\": %s,\n", cores
    printf "  \"single_worker_scenarios_per_sec\": %s,\n", single
    printf "  \"all_core_scenarios_per_sec\": %s,\n", all
    printf "  \"all_core_workers\": %s,\n", nworkers
    printf "  \"speedup\": %.2f\n", all / single
    printf "}\n"
}
' "$tmp" > "$out"

echo "simulate.sh: wrote $out ($(tr -d ' \n' < "$out"))"

#!/bin/sh
# Static-analysis wrapper around cmd/igdblint.
#
# Lints the whole module, prints findings in file:line:col form, and always
# writes the machine-readable JSON report (findings plus per-analyzer wall
# time and counts) to artifacts/lint.json, and the standalone benchmark
# artifact — per-analyzer rows plus the parallel driver's workers, cores,
# serial baseline, and speedup — to artifacts/BENCH_lint.json, so CI can
# archive both. Exits non-zero on findings. One lint run is one sample, so
# it never rewrites the committed BENCH_lint.json; refresh that on purpose
# with `go run ./cmd/igdblint -bench BENCH_lint.json ./...`.
#
# Usage:
#   scripts/lint.sh                 # lint ./...
#   scripts/lint.sh ./internal/...  # lint specific packages
set -eu

cd "$(dirname "$0")/.."

mkdir -p artifacts

status=0
go run ./cmd/igdblint -json -bench artifacts/BENCH_lint.json "$@" >artifacts/lint.json || status=$?
if [ "$status" -eq 2 ]; then
    echo "lint.sh: igdblint failed to load packages" >&2
    exit 2
fi

if [ "$status" -ne 0 ]; then
    # Re-render in human file:line:col form for the terminal; findings are
    # deterministic, so both runs see the same set.
    go run ./cmd/igdblint "$@" || true
    echo "lint.sh: findings written to artifacts/lint.json" >&2
else
    echo "lint.sh: clean (artifacts/lint.json)"
fi

# Per-analyzer summary (name, wall ms, finding count) from the JSON
# report, so CI logs show which of the thirteen analyzers ran and what
# each one cost. No jq in the image; the report is machine-written, so a
# line-oriented awk pass over its stable field order is safe.
awk '
/"name":/     { gsub(/[",]/, "", $2); name = $2 }
/"wall_ms":/  { gsub(/,/, "", $2); ms = $2 }
/"findings": [0-9]+/ && name != "" {
    gsub(/,/, "", $2)
    printf "lint.sh:   %-14s %8.3f ms  %s finding(s)\n", name, ms, $2
    name = ""
}
' artifacts/lint.json

exit "$status"

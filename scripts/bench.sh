#!/bin/sh
# Reproduces the paper's figures in --quick mode and gates the run with
# `reproduce check`: every figure present, every oracle marker holding on
# every row, and the deterministic rows equal to the committed baseline
# (BENCH_baseline.json) field by field. The wall-clock figures (fig7,
# simsec, fleet, scaletime) and the wall/phase seconds are not compared.
#
# Usage: scripts/bench.sh [--update|--refresh]
#   --update    rewrite BENCH_baseline.json from the current run (after
#               checking its coverage and oracle markers)
#   --refresh   check as usual, then (only if every deterministic figure row
#               matches) copy the fresh run over the baseline so its
#               timing-only fields (fig7, simsec, wall/phase seconds) track
#               the current machine and engine
set -eu

cd "$(dirname "$0")/.."
baseline=BENCH_baseline.json
json=$(mktemp)
trap 'rm -f "$json"' EXIT

reproduce() {
    cargo run --release --quiet -p om-bench --bin reproduce -- "$@"
}

reproduce all --quick --json "$json"

if [ "${1:-}" = "--update" ]; then
    reproduce check "$json"
    cp "$json" "$baseline"
    echo "updated $baseline"
    exit 0
fi

if ! reproduce check "$json" "$baseline"; then
    echo "(run scripts/bench.sh --update if the change is intended)" >&2
    exit 1
fi

if [ "${1:-}" = "--refresh" ]; then
    # The deterministic rows match exactly, so overwriting the baseline
    # only updates its timing fields.
    cp "$json" "$baseline"
    echo "refreshed timing fields in $baseline"
fi

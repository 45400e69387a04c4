#!/bin/sh
# Reproduces the paper's figures in --quick mode and gates the run with
# `reproduce check`: every figure present, every oracle marker holding on
# every row, and every row equal to the committed baseline
# (BENCH_baseline.json) field by field. The report holds no wall-clock
# values: it depends only on the code.
#
# Usage: scripts/bench.sh [--update]
#   --update    rewrite BENCH_baseline.json from the current run (after
#               checking its coverage and oracle markers)
set -eu

case "${1:-}" in
    "" | --update) ;;
    *) echo "usage: scripts/bench.sh [--update]" >&2; exit 2 ;;
esac

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

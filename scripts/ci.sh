#!/bin/sh
# Full CI gate: build, test, figure-drift check, a bounded differential
# fuzz campaign, and the mutation-kill gate. Any step failing fails the
# script.
#
# Usage: scripts/ci.sh [FUZZ_SEEDS] [MUTANTS]
#   FUZZ_SEEDS   seeds for the omfuzz campaign (default 200)
#   MUTANTS      budget for the omkill campaign (default 120, covering the
#                whole committed corpus; lower it to bound CI time — the
#                corpus is round-robin by class, so a budget cap still
#                touches every class before deepening any)
set -eu

cd "$(dirname "$0")/.."
seeds="${1:-200}"
mutants="${2:-120}"

echo "== build (release, all targets) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== golden disassembly snapshots =="
cargo test -q -p om-core --test snapshot

echo "== PGO differential sweep (profile -> relink -> re-diff checksums) =="
cargo test -q -p om-core --test verify_all pgo_relink

echo "== block-engine equivalence battery (19 workloads x 9 variants) =="
cargo test -q --release -p om-sim --test block_equiv

echo "== trace smoke (om --trace-json -> omtrace check) =="
# One workload through the command-line pipeline with tracing on: the
# emitted chrome://tracing JSON must parse, spans must nest, and every
# enabled pass (plus the link phases and reconciling counters) must appear.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -p om-workloads --bin genbench -- compress "$tracedir" --quick
cargo run --release -p om-codegen --bin mcc -- "$tracedir"/*.mc
cargo run --release -p om-core --bin om -- --level full-sched \
    --trace-json "$tracedir/trace.json" -o "$tracedir/compress.exe" \
    "$tracedir"/*.o "$tracedir/libstd.a"
cargo run --release -p om-obs --bin omtrace -- check "$tracedir/trace.json" \
    --require pipeline --require select --require pass.translate \
    --require pass.resolve --require pass.calls --require pass.convert \
    --require pass.nullify --require pass.resched --require emit \
    --require link --require link.layout --require link.image \
    --require-counter pipeline.runs --require-counter link.segment_bytes \
    --require-counter link.gat_slots

echo "== omperf smoke (the benchmark's rebuilt pipeline, byte identity) =="
# The benchmark rebuilds the OM link from public calls and requires its
# image and statistics to equal optimize_and_link_with's. Running it at smoke
# size here makes a pipeline change that breaks either fail CI, not the
# next benchmark run.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== figure drift =="
scripts/bench.sh

echo "== ablations (one benchmark; results must not change under any ablation) =="
# The only caller that sets sort_commons, max_rounds and
# align_backward_targets to non-default values; it asserts that each
# ablation leaves the program's result unchanged.
cargo run --release -p om-bench --bin ablations -- --bench li

echo "== CI-fleet smoke (bounded relink storm + socket round trip) =="
# ~100 measured relinks: enforces the 80% per-module hit-rate floor and
# byte-identity of every cached image against the one-shot pipeline.
cargo run --release -p om-bench --bin omfleet -- --smoke

echo "== scale smoke (one mid-scale point through the tool pipeline) =="
# A 256-module / 25k-procedure program end to end through the command-line
# tools: genbench --scale emits the sources, mcc compiles them one unit per
# source, and om links at full-sched with --verify. The figure harness
# gates the same workload through all three oracles per point (see the
# "scale" rows in figure drift above); this step proves the *standalone
# tool* path handles a multi-GAT-split program too.
scaledir=$(mktemp -d)
trap 'rm -rf "$tracedir" "$scaledir"' EXIT
cargo run --release -p om-workloads --bin genbench -- --scale 256 "$scaledir"
cargo run --release -p om-codegen --bin mcc -- "$scaledir"/*.mc
cargo run --release -p om-core --bin om -- --level full-sched --verify \
    -o "$scaledir/scale.exe" "$scaledir"/*.o "$scaledir/libstd.a"

echo "== scale fleet (single-module-edit invalidation at 256 modules) =="
# Enforces the 99% reuse floor (one edit must invalidate O(1 module)) and
# the eviction bound under a deliberately tiny cache.
cargo run --release -p om-bench --bin omfleet -- --scale 256 --quick

echo "== adversarial corpus (limit-straddling inputs, typed-error oracles) =="
cargo run --release -p om-bench --bin omfuzz -- --adversarial

echo "== differential fuzz ($seeds seeds) =="
cargo run --release -p om-bench --bin omfuzz -- --seeds "$seeds"

echo "== mutation kill gate ($mutants mutants vs MUTANTS_baseline.json) =="
# Fails if any class the baseline records as fully killed now escapes an
# oracle, or if the overall kill rate drops below the baseline's.
cargo run --release -p om-bench --bin omkill -- \
    --mutants "$mutants" --check MUTANTS_baseline.json

echo "CI OK"

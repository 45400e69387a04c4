#!/bin/sh
# Full CI gate: build, test, the figure-drift check (which also gates the
# ablations and the mutation-kill scorecard), and a bounded differential
# fuzz campaign. Any step failing fails the script.
#
# Usage: scripts/ci.sh [FUZZ_SEEDS]
#   FUZZ_SEEDS   seeds for the omfuzz campaign (default 200)
set -eu

cd "$(dirname "$0")/.."
seeds="${1:-200}"

echo "== build (release, all targets) =="
cargo build --release --workspace

echo "== line count (scripts/loc.sh) =="
# The north star's size figure: non-test lines under crates/*/src. Printed
# in every CI log so a change's line delta is on record; nothing gates it.
scripts/loc.sh

echo "== tests =="
cargo test -q --workspace

echo "== rustdoc (warnings are errors) =="
# A moved or deleted item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
# The direct children of `pipeline` must cover at least 90% of it (97.9-98.1%
# over 5 measured runs of this ~3 ms link; the margin absorbs one preemption
# in an unspanned gap).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -p om-workloads --bin genbench -- compress "$tracedir" --quick
cargo run --release -p om-codegen --bin mcc -- "$tracedir"/*.mc
cargo run --release -p om-core --bin om -- --level full-sched \
    --trace-json "$tracedir/trace.json" -o "$tracedir/compress.exe" \
    "$tracedir"/*.o "$tracedir/libstd.a"
cargo run --release -p om-obs --bin omtrace -- check "$tracedir/trace.json" \
    --require pipeline --require select --require symtab \
    --require pass.translate --require pass.resolve --require census \
    --require gat.before --require pass.restore --require snapshot \
    --require pass.calls --require pass.convert \
    --require pass.resched --require emit --require link \
    --require link.layout --require link.image \
    --require-counter pipeline.runs --require-counter link.segment_bytes \
    --require-counter link.gat_slots --require-counter pass.convert.insts_deleted \
    --min-coverage pipeline=0.90

echo "== omperf smoke (the benchmark's rebuilt pipeline, byte identity) =="
# The benchmark rebuilds the OM link from public calls and requires its
# image and statistics to equal optimize_and_link_with's. Running it at smoke
# size here makes a pipeline change that breaks either fail CI, not the
# next benchmark run.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== figure drift =="
# Every figure of every benchmark at --quick, compared field by field with
# BENCH_baseline.json. For the fleet rows (the relink storm against the link
# server, all 19 benchmarks) this gates the byte-identity marker (every
# served image equal to a one-shot link), the exact cache counters, and the
# 80% per-module hit-rate floor that the fleet harness asserts. The
# ablations rows (all 19 benchmarks; the harness asserts that no ablation
# changes a program's result) are the only runs with sort_commons,
# max_rounds or align_backward_targets off. The mutants rows are the
# mutation-kill scorecard: every mutant of the committed corpus, each of its
# three oracle columns compared exactly, and every mutant killed.
scripts/bench.sh

echo "== scale smoke (one mid-scale point through the tool pipeline) =="
# A 256-module / 25k-procedure program end to end through the command-line
# tools: genbench --scale emits the sources, mcc compiles them one unit per
# source, and om links at full-sched with --verify. The figure harness
# gates the same workload through all three oracles per point (see the
# "scale" rows in figure drift above); this step proves the *standalone
# tool* path handles a multi-GAT-split program too. Its trace must attribute
# at least 93% of `pipeline` to direct children (97.3-97.8% over 5 measured
# runs), and its summary puts the link's layer table and peak RSS
# (`pipeline`'s `peak_rss_kb`) in the CI log. `mld` links the same objects
# traced: its `select`, `symtab`, `link.layout` and `link.image` must cover
# at least 85% of its `mld` span (92.9-94.2% over 5 measured runs), and its
# summary sits next to om's, layer by layer.
scaledir=$(mktemp -d)
trap 'rm -rf "$tracedir" "$scaledir"' EXIT
cargo run --release -p om-workloads --bin genbench -- --scale 256 "$scaledir"
cargo run --release -p om-codegen --bin mcc -- "$scaledir"/*.mc
cargo run --release -p om-core --bin om -- --level full-sched --verify \
    --trace-json "$scaledir/trace.json" \
    -o "$scaledir/scale.exe" "$scaledir"/*.o "$scaledir/libstd.a"
cargo run --release -p om-obs --bin omtrace -- check "$scaledir/trace.json" \
    --require snapshot --require verify --min-coverage pipeline=0.93
cargo run --release -p om-obs --bin omtrace -- summarize "$scaledir/trace.json"
cargo run --release -p om-linker --bin mld -- --trace-json "$scaledir/mld-trace.json" \
    -o "$scaledir/mld.exe" "$scaledir"/*.o "$scaledir/libstd.a"
cargo run --release -p om-obs --bin omtrace -- check "$scaledir/mld-trace.json" \
    --require select --require symtab --require link.layout --require link.image \
    --min-coverage mld=0.85
cargo run --release -p om-obs --bin omtrace -- summarize "$scaledir/mld-trace.json"

echo "== adversarial corpus (limit-straddling inputs; sources through the fuzz oracle, objects typed-error) =="
cargo run --release -p om-bench --bin omfuzz -- --adversarial

echo "== differential fuzz ($seeds seeds) =="
cargo run --release -p om-bench --bin omfuzz -- --seeds "$seeds"

echo "CI OK"

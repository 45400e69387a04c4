#!/bin/sh
# Full CI gate: build, test, the figure-drift check (which also gates the
# ablations and the mutation-kill scorecard), the quick figure run compared
# at two --jobs widths, and a bounded differential fuzz campaign. Any step
# failing fails the script.
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

echo "== clippy (warnings are errors) =="
# Every target of every crate, tests included: a new lint finding fails CI
# instead of piling up.
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== figures at two --jobs widths =="
# The whole quick run at --jobs 1 and at --jobs 2: the two reports must be
# byte-identical, and so must the printed tables of every figure but fig7,
# whose cells are wall-clock milliseconds (its table runs from its title to the
# second blank line after it).
for j in 1 2; do
    target/release/reproduce all --quick --jobs "$j" --json "$tracedir/jobs$j.json" \
        >"$tracedir/all$j.out" 2>"$tracedir/all$j.err" ||
        { cat "$tracedir/all$j.err"; exit 1; }
    awk '/^Figure 7:/ { skip = 2 } skip && /^$/ { skip--; next } !skip' \
        "$tracedir/all$j.out" >"$tracedir/tables$j.out"
done
cmp "$tracedir/jobs1.json" "$tracedir/jobs2.json"
cmp "$tracedir/tables1.out" "$tracedir/tables2.out"

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
# summary sits next to om's, layer by layer. `om --level none` links the same
# objects to mld's exact bytes. Last, `omd serve` relinks the objects twice:
# both served images must equal om's, the second link must be served from
# the link cache, and the server's trace must hold the request, the key's
# hash and the pipeline.
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
# Both simulator engines on the linked image must print the same bytes and
# exit with the same code (the program's result; 48 at N=256). This image
# builds ~52k blocks over its whole text, where the block-engine tests'
# largest input is a 10-module program.
fast_rc=0
target/release/asim --timing "$scaledir/scale.exe" \
    >"$scaledir/fast.out" 2>&1 || fast_rc=$?
ref_rc=0
target/release/asim --timing --reference "$scaledir/scale.exe" \
    >"$scaledir/ref.out" 2>&1 || ref_rc=$?
cat "$scaledir/fast.out"
cmp "$scaledir/fast.out" "$scaledir/ref.out"
[ "$fast_rc" -eq "$ref_rc" ] || {
    echo "asim exit codes differ: block engine $fast_rc, reference $ref_rc"
    exit 1
}
cargo run --release -p om-linker --bin mld -- --trace-json "$scaledir/mld-trace.json" \
    -o "$scaledir/mld.exe" "$scaledir"/*.o "$scaledir/libstd.a"
cargo run --release -p om-obs --bin omtrace -- check "$scaledir/mld-trace.json" \
    --require select --require symtab --require link.layout --require link.image \
    --min-coverage mld=0.85
cargo run --release -p om-obs --bin omtrace -- summarize "$scaledir/mld-trace.json"
# OM without optimization must write mld's exact bytes: both merge the same
# GAT (4 GP groups here) through the symbol table's entry numbers.
cargo run --release -p om-core --bin om -- --level none \
    -o "$scaledir/none.exe" "$scaledir"/*.o "$scaledir/libstd.a"
cmp "$scaledir/none.exe" "$scaledir/mld.exe"
# The server runs in the background; the trap stops it if a step fails, so
# no process outlives the script.
target/release/omd serve "$scaledir/omd.sock" --trace-json "$scaledir/omd-trace.json" &
omd_pid=$!
trap 'kill "$omd_pid" 2>/dev/null || true; rm -rf "$tracedir" "$scaledir"' EXIT
tries=0
until target/release/omd ping "$scaledir/omd.sock" >/dev/null 2>&1; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "omd serve did not start"; exit 1; }
    sleep 0.1
done
for n in 1 2; do
    target/release/omd link "$scaledir/omd.sock" --level full-sched --verify \
        -o "$scaledir/served$n.exe" "$scaledir"/*.o 2>"$scaledir/link$n.log"
    cat "$scaledir/link$n.log"
    cmp "$scaledir/served$n.exe" "$scaledir/scale.exe"
done
grep -q '(cached)' "$scaledir/link2.log" || { echo "the second link was not a cache hit"; exit 1; }
target/release/omd stats "$scaledir/omd.sock" >"$scaledir/stats.txt"
cat "$scaledir/stats.txt"
grep -q 'links: 1 entries, 1 hits' "$scaledir/stats.txt" ||
    { echo "omd stats: want links: 1 entries, 1 hits"; exit 1; }
target/release/omd shutdown "$scaledir/omd.sock"
wait "$omd_pid"
cargo run --release -p om-obs --bin omtrace -- check "$scaledir/omd-trace.json" \
    --require omd.link --require hash --require pipeline

echo "== adversarial corpus (limit-straddling inputs; sources through the fuzz oracle, objects typed-error) =="
cargo run --release -p om-bench --bin omfuzz -- --adversarial

echo "== differential fuzz ($seeds seeds) =="
cargo run --release -p om-bench --bin omfuzz -- --seeds "$seeds"

echo "CI OK"

//! Differential check of OM's layout snapshots. A [`Snapshot`] lays the
//! symbolic program out from sizes alone; at every point where OM decides
//! against one, it must agree with the link of the emitted program
//! (`emit_all` → `build_symbol_table` → `layout` → `sym_addr`) on the
//! layout, on the address of every symbol of every module, and on the
//! address of every instruction.
//!
//! The programs are the 19 quick workloads in both compile modes and the
//! split-GAT program of `tests/multigat.rs`, each in its canonical link
//! order and in a seeded permutation of its user objects: a permuted order
//! can make a common's first mention an `extern` declaration, and changes
//! the order commons are first declared in. Each is checked after
//! translation and after OM-full stopped at 1, 2 and 3 rounds, with and
//! without sorted commons.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::analysis::Snapshot;
use om_core::sym::{emit_all, translate, SymProgram};
use om_core::{full, CallBook, OmOptions, OmStats};
use om_linker::{build_symbol_table, layout, select_modules, sym_addr, LayoutOpts};
use om_objfile::{Archive, Module, SymbolDef};
use om_prng::StdRng;
use om_workloads::scale::{overflow_slots_per_module, pad_gat};
use om_workloads::{build::build, spec, CompileMode};

fn check(program: &SymProgram, sort_commons: bool, ctx: &str) {
    let snap = Snapshot::capture_with(program, sort_commons)
        .unwrap_or_else(|e| panic!("{ctx}: snapshot: {e}"));
    let emitted = emit_all(program).expect("emit");
    let symtab = build_symbol_table(&emitted).expect("symbol table");
    let lay = layout(&emitted, &symtab, &LayoutOpts { sort_commons }).expect("layout");
    assert!(snap.layout == lay, "{ctx}: layout differs from the emitted program's");
    for (mi, m) in emitted.iter().enumerate() {
        for (id, s) in m.symbols_with_ids() {
            let want = sym_addr(&emitted, &symtab, &lay, mi, id).expect("resolved symbol");
            let got = snap.addr(program.target(mi, id));
            assert_eq!(got, Some(want), "{ctx}: address of `{}` in `{}`", s.name, m.name);
        }
        for (pi, p) in program.modules[mi].procs.iter().enumerate() {
            let s = m.symbol(p.sym);
            let SymbolDef::Proc { offset, .. } = s.def else {
                panic!("{ctx}: `{}` is not a procedure", s.name)
            };
            let entry = lay.bases[mi].text + offset;
            for idx in 0..p.insts.len() {
                let want = entry + 4 * idx as u64;
                assert_eq!(snap.inst_addr(mi, pi, idx), want, "{ctx}: {}+{idx}", s.name);
            }
        }
    }
}

/// Checks one link order: after translation, then after OM-full stopped at
/// each round budget, under both common-placement policies.
fn check_order(objects: &[Module], libs: &[Archive], ctx: &str) {
    let modules = select_modules(objects, libs).expect("select");
    let symtab = build_symbol_table(&modules).expect("symbol table");
    let translated = translate(&modules, &symtab).expect("translate");
    for sort_commons in [false, true] {
        check(&translated, sort_commons, &format!("{ctx} translated sort={sort_commons}"));
        for max_rounds in 1..=3 {
            let mut program = translated.clone();
            let options = OmOptions { sort_commons, max_rounds, ..OmOptions::default() };
            full::run_with(&mut program, &mut OmStats::default(), &mut CallBook::new(), &options)
                .unwrap_or_else(|e| panic!("{ctx}: OM-full: {e}"));
            let at = format!("{ctx} rounds<={max_rounds} sort={sort_commons}");
            check(&program, sort_commons, &at);
        }
    }
}

/// Checks `objects` (crt0 first) in canonical order and with its user
/// objects in a permutation seeded by `seed`.
fn check_program(name: &str, objects: &[Module], libs: &[Archive], seed: u64) {
    check_order(objects, libs, &format!("{name} canonical"));
    let mut permuted = objects.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (2..permuted.len()).rev() {
        let j = 1 + rng.gen_range(0..i);
        permuted.swap(i, j);
    }
    check_order(&permuted, libs, &format!("{name} permuted (seed {seed})"));
}

fn check_workloads(mode: CompileMode) {
    for (seed, s) in spec::all().iter().enumerate() {
        let b = build(&spec::quick(s), mode).expect("build");
        let name = format!("{} [{}]", s.name, mode.name());
        check_program(&name, &b.objects, &b.libs, seed as u64);
    }
}

#[test]
fn snapshots_match_the_emitted_link_compile_each() {
    check_workloads(CompileMode::Each);
}

#[test]
fn snapshots_match_the_emitted_link_compile_all() {
    check_workloads(CompileMode::All);
}

#[test]
fn snapshots_match_the_emitted_link_across_a_gat_split() {
    // The split-GAT program of `tests/multigat.rs`: two modules whose padded
    // literal pools together overflow one GP group.
    let opts = CompileOpts::o2();
    let mut main_obj = compile_source(
        "main",
        "extern int far_mix(int);
         int near_g;
         int main() {
           int i = 0;
           for (i = 0; i < 8; i = i + 1) { near_g = near_g + far_mix(near_g + i); }
           return near_g;
         }",
        &opts,
    )
    .unwrap();
    let mut far_obj = compile_source(
        "far",
        "int far_g = 7;
         int far_mix(int x) { far_g = far_g * 3 + 1; return (x ^ far_g) & 0xFFFF; }",
        &opts,
    )
    .unwrap();
    let per = overflow_slots_per_module(2);
    pad_gat(&mut main_obj, per, "a");
    pad_gat(&mut far_obj, per, "b");
    check_program("split-GAT", &[crt0::module().unwrap(), main_obj, far_obj], &[], 1);
}

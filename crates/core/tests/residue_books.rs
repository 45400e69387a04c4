//! OM keeps its books in data it already built: each translation counts
//! its own loads and call sites, a round's snapshot lists each module's GAT
//! from the residue's live loads, and the Figure 4 after-counts come off
//! the residue's call sites. Each is checked here against the walk it
//! replaced:
//!
//! - every round's snapshot, at OM-simple and OM-full, equals
//!   `Snapshot::capture_with` of the program at that round (layout and
//!   every address), which lists the GAT by walking every instruction;
//! - each module's translation counts equal a `call_sites`/`literal_loads`
//!   walk over its procedures;
//! - at every level, the pipeline's `OmStats` equal those of the chain of
//!   public calls that `omperf` rebuilds (a census walk, `run_with` filling
//!   a call book, the book's values counted).
//!
//! The programs are the 19 quick workloads in both compile modes, the
//! split-GAT program of `tests/multigat.rs` and a 16-module scale program.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::analysis::{call_sites, literal_loads, CallKind, Census, Snapshot};
use om_core::sym::{emit_all, resolve_symbolic, translate_module, SymModule, SymProgram};
use om_core::{
    full, optimize_and_link_with, resched, simple, CallBook, OmLevel, OmOptions, OmStats,
};
use om_linker::{build_symbol_table, layout, select_modules, LayoutOpts};
use om_objfile::{Archive, Module};
use om_workloads::scale::{build_scale, overflow_slots_per_module, pad_gat, scale_spec};
use om_workloads::{build::build, spec, CompileMode};

/// The counts of `m` walked procedure by procedure, as `omperf` walks them.
fn walked(m: &SymModule) -> Census {
    let mut c = Census::default();
    for p in &m.procs {
        c.insts += p.insts.len();
        c.literal_loads += literal_loads(p).len();
        for s in call_sites(p) {
            c.calls += 1;
            c.calls_indirect += usize::from(s.kind == CallKind::Indirect);
            c.calls_pv += usize::from(!matches!(s.kind, CallKind::Bsr { .. }));
            c.calls_gp_reset += usize::from(s.gp_reset.is_some());
        }
    }
    c
}

/// The before-counts and call book `omperf` takes before it runs OM.
fn count_before(program: &SymProgram, stats: &mut OmStats, book: &mut CallBook) {
    stats.insts_before = program.inst_count();
    stats.gat_slots_before = Snapshot::capture(program).expect("snapshot").gat_slots();
    for (mi, m) in program.modules.iter().enumerate() {
        for (pi, p) in m.procs.iter().enumerate() {
            stats.addr_loads_total += literal_loads(p).len();
            for s in call_sites(p) {
                let pv = !matches!(s.kind, CallKind::Bsr { .. });
                let reset = s.gp_reset.is_some();
                stats.calls_total += 1;
                stats.calls_indirect += usize::from(s.kind == CallKind::Indirect);
                stats.calls_pv_before += usize::from(pv);
                stats.calls_gp_reset_before += usize::from(reset);
                book.insert((mi, pi, p.insts[s.at].id), (pv, reset));
            }
        }
    }
}

/// Checks one program at every level.
fn check(name: &str, objects: &[Module], libs: &[Archive]) {
    let modules = select_modules(objects, libs).expect("select");
    let symtab = build_symbol_table(&modules).expect("symbol table");
    let translated: Vec<SymModule> =
        modules.iter().map(|m| translate_module(m).expect("translate")).collect();
    for m in &translated {
        assert_eq!(m.census, walked(m), "{name}: the counts of `{}`", m.source.name);
    }

    for level in OmLevel::ALL {
        let ctx = format!("{name} {}", level.name());
        let options = OmOptions::default();
        let mut program = resolve_symbolic(&translated, &symtab);
        let (mut stats, mut book) = (OmStats::default(), CallBook::new());
        count_before(&program, &mut stats, &mut book);
        // Each round's snapshot must equal a fresh capture.
        let mut rounds = 0;
        let mut each_round = |program: &SymProgram, snap: &Snapshot| {
            rounds += 1;
            let walked = Snapshot::capture_with(program, options.sort_commons).expect("snapshot");
            assert!(*snap == walked, "{ctx}: round {rounds}'s snapshot differs from a capture");
        };
        let (p, s, b, o) = (&mut program, &mut stats, &mut book, &options);
        match level {
            OmLevel::None => {}
            OmLevel::Simple => simple::run_observed(p, s, b, o, &mut each_round).expect("simple"),
            OmLevel::Full | OmLevel::FullSched => {
                full::run_observed(p, s, b, o, &mut each_round).expect("OM-full");
            }
        }
        if level == OmLevel::FullSched {
            resched::run_with(&mut program, &mut stats, options.align_backward_targets, None);
        }
        let one_round = match level {
            OmLevel::None => rounds == 0,
            OmLevel::Simple => rounds == 1,
            OmLevel::Full | OmLevel::FullSched => rounds >= 1,
        };
        assert!(one_round, "{ctx}: {rounds} rounds");
        stats.calls_pv_after = book.values().filter(|&&(pv, _)| pv).count();
        stats.calls_gp_reset_after = book.values().filter(|&&(_, reset)| reset).count();
        let emitted = emit_all(&program).expect("emit");
        let opts = LayoutOpts { sort_commons: level != OmLevel::None };
        let emitted_symtab = build_symbol_table(&emitted).expect("symbol table");
        let after = layout(&emitted, &emitted_symtab, &opts).expect("layout");
        stats.gat_slots_after = after.gat_slots;

        let out = optimize_and_link_with(objects, libs, level, &options).expect("link");
        assert_eq!(out.stats, stats, "{ctx}: the pipeline's statistics");
    }
}

fn check_workloads(mode: CompileMode) {
    for s in spec::all() {
        let b = build(&spec::quick(&s), mode).expect("build");
        check(&format!("{} [{}]", s.name, mode.name()), &b.objects, &b.libs);
    }
}

#[test]
fn books_match_the_walks_compile_each() {
    check_workloads(CompileMode::Each);
}

#[test]
fn books_match_the_walks_compile_all() {
    check_workloads(CompileMode::All);
}

#[test]
fn books_match_the_walks_across_a_gat_split() {
    // Two modules whose padded literal pools together overflow one GP
    // group until OM-full drops dead slots.
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
    check("split-GAT", &[crt0::module().unwrap(), main_obj, far_obj], &[]);
}

#[test]
fn books_match_the_walks_at_scale() {
    let b = build_scale(&scale_spec(16), CompileMode::Each).expect("build");
    check("scale16", &b.objects, &b.libs);
}

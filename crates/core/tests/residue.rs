//! OM-full's rounds after the first visit only the residue: the call sites
//! that still hold a GP reset or are still JSRs, the prologues neither
//! dropped nor pinned, and the address loads not yet converted or removed.
//! If a round let go of work a later round could still do, the fixpoint
//! would stop with that work left, and a fresh collection would find it. So
//! one more round over OM-full's output, with a fresh call book, must change
//! no instruction and no statistic.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::sym::translate;
use om_core::{full, CallBook, OmOptions, OmStats};
use om_linker::{build_symbol_table, select_modules};
use om_objfile::{Archive, Module};
use om_workloads::build::build;
use om_workloads::scale::{build_scale, overflow_slots_per_module, pad_gat, ScaleSpec};
use om_workloads::{spec, CompileMode};

/// Runs OM-full to its fixpoint over the program `objects` and `libs` link
/// into, then one more round, and checks that the round changed nothing.
fn assert_settled(name: &str, objects: &[Module], libs: &[Archive]) {
    let modules = select_modules(objects, libs).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let mut program = translate(&modules, &symtab).unwrap();
    let mut stats = OmStats::default();
    let options = OmOptions::default();
    full::run_with(&mut program, &mut stats, &mut CallBook::new(), &options).unwrap();
    assert!(stats.insts_deleted > 0, "{name}: OM-full deleted nothing");
    let (settled, settled_stats) = (program.modules.clone(), stats);

    let one_round = OmOptions { max_rounds: 1, ..options };
    full::run_with(&mut program, &mut stats, &mut CallBook::new(), &one_round).unwrap();
    assert_eq!(stats, settled_stats, "{name}: another round changed the statistics");
    for (m, before) in program.modules.iter().zip(&settled) {
        for (p, q) in m.procs.iter().zip(&before.procs) {
            let at = || format!("{}/{}", m.source.name, m.proc_name(p));
            assert!(p == q, "{name}: another round changed {}", at());
        }
    }
}

#[test]
fn every_workload_is_settled_when_the_rounds_stop() {
    for s in spec::all() {
        let s = spec::quick(&s);
        for mode in [CompileMode::Each, CompileMode::All] {
            let b = build(&s, mode).unwrap();
            assert_settled(&format!("{} {mode:?}", s.name), &b.objects, &b.libs);
        }
    }
}

#[test]
fn a_program_that_merges_gp_groups_is_settled() {
    // Two modules whose padded GATs split the program into two GP groups
    // until OM-full drops the dead slots: the cross-group call's GP reset
    // and its callee's prologue go only in a later round.
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
    assert_settled("multigat", &[crt0::module().unwrap(), main_obj, far_obj], &[]);
}

#[test]
fn a_scale_program_is_settled() {
    // Enough globals that the live GAT spans two GP groups until round 1
    // removes loads: later rounds then drop the GP resets and prologues of
    // calls that only became same-group.
    let spec = ScaleSpec {
        name: "scale_residue".to_string(),
        modules: 12,
        procs_per_module: 6,
        globals_per_module: overflow_slots_per_module(12),
        iters: 1,
    };
    let b = build_scale(&spec, CompileMode::Each).unwrap();
    assert_settled("scale", &b.objects, &b.libs);
}

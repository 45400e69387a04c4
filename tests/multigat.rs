//! Multi-GAT programs (§2: "for large programs, the global address table may
//! be so large that it cannot be accessed via a single unchanging global
//! pointer").
//!
//! We inflate two modules' literal pools past the 8191-slot group capacity so
//! the linker must split the program into two GP groups, then check:
//!
//! * the standard link still runs correctly (the conservative conventions
//!   exist exactly for this case),
//! * OM-simple must *keep* the GP-reset code across the group boundary, and
//!   the verifier fails a link whose cross-group call lost it,
//! * OM-full's GAT reduction collapses the dead slots, re-unifying the
//!   program into one group and unlocking the full optimization,
//! * and across the split, OM's GAT counts are the translated program's
//!   (before) and the final link's (after).

use om_repro::codegen::{compile_source, crt0, CompileOpts};
use om_repro::core::analysis::Snapshot;
use om_repro::core::sym::translate;
use om_repro::core::verify::verify_linked;
use om_repro::core::{optimize_and_link, optimize_and_link_artifacts, OmLevel, OmOptions, OmOutput};
use om_repro::linker::{build_symbol_table, link_modules, select_modules, LayoutOpts};
use om_repro::objfile::{Module, RelocKind, SecId, SymbolDef};
use om_repro::sim::run_image;
use om_repro::workloads::scale::{overflow_slots_per_module, pad_gat};

fn build_program() -> Vec<Module> {
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

    // Each of the two padded modules gets the shared overflow quota, so the
    // pair together is guaranteed to exceed one group's capacity — the same
    // derivation the `--scale` generator uses, so test and generator cannot
    // drift on the 8191-slot boundary.
    let per = overflow_slots_per_module(2);
    pad_gat(&mut main_obj, per, "a");
    pad_gat(&mut far_obj, per, "b");
    vec![crt0::module().unwrap(), main_obj, far_obj]
}

fn expected() -> i64 {
    om_repro::minic::interp::run_sources(
        &[
            (
                "main",
                "extern int far_mix(int);
                 int near_g;
                 int main() {
                   int i = 0;
                   for (i = 0; i < 8; i = i + 1) { near_g = near_g + far_mix(near_g + i); }
                   return near_g;
                 }",
            ),
            (
                "far",
                "int far_g = 7;
                 int far_mix(int x) { far_g = far_g * 3 + 1; return (x ^ far_g) & 0xFFFF; }",
            ),
        ],
        1_000_000,
    )
    .unwrap()
}

/// OM's GAT counts come from the link, not from extra layouts: before is a
/// snapshot of the translated inputs, after is the final link's.
fn assert_gat_counts(objects: &[Module], out: &OmOutput) {
    let modules = select_modules(objects, &[]).unwrap();
    let program = translate(&modules, &build_symbol_table(&modules).unwrap()).unwrap();
    let before = Snapshot::capture(&program).unwrap().gat_slots();
    assert_eq!(out.stats.gat_slots_before, before, "{:?}", out.stats);
    assert_eq!(out.stats.gat_slots_after, out.link.gat_slots, "{:?}", out.stats);
}

#[test]
fn standard_link_splits_groups_and_still_runs() {
    let objects = build_program();
    let (image, stats) = link_modules(&objects, &[], &LayoutOpts::default()).unwrap();
    assert!(stats.gp_groups >= 2, "expected a group split, got {stats:?}");
    assert_eq!(run_image(&image, 10_000_000).unwrap().result, expected());
}

#[test]
fn om_simple_keeps_cross_group_gp_resets() {
    let objects = build_program();
    let out = optimize_and_link(&objects, &[], OmLevel::Simple).unwrap();
    // The call from main's group to far's group must keep its GP reset; the
    // intra-group calls (crt0 → main) lose theirs.
    assert!(
        out.stats.calls_gp_reset_after > 0,
        "cross-group call must keep its GP reset: {:?}",
        out.stats
    );
    assert_eq!(run_image(&out.image, 10_000_000).unwrap().result, expected());
    assert_gat_counts(&objects, &out);
}

#[test]
fn verifier_catches_a_lost_cross_group_gp_reset() {
    let objects = build_program();
    let (out, mut art) =
        optimize_and_link_artifacts(&objects, &[], OmLevel::Simple, &OmOptions::default())
            .unwrap();
    assert!(art.layout.gp_values.len() >= 2, "expected a group split");
    assert!(verify_linked(&art.modules, &art.symtab, &art.layout, &out.image).is_ok());

    // Drop the GP reset after main's call into far's group: the image still
    // holds the pair, but the module no longer says it rebuilds GP there.
    let main = art.modules.iter().position(|m| m.name == "main").unwrap();
    let far = art.modules.iter().position(|m| m.name == "far").unwrap();
    assert_ne!(art.layout.group_of_module[main], art.layout.group_of_module[far]);
    let m = &mut art.modules[main];
    let entries: Vec<u64> = (m.procedures().iter())
        .filter_map(|(_, s)| match s.def {
            SymbolDef::Proc { offset, .. } => Some(offset),
            _ => None,
        })
        .collect();
    let reset = m
        .relocs
        .iter()
        .position(|r| {
            r.sec == SecId::Text
                && matches!(r.kind, RelocKind::Gpdisp { anchor, .. } if !entries.contains(&anchor))
        })
        .expect("main keeps the GP reset after its cross-group call");
    m.relocs.remove(reset);
    let report = verify_linked(&art.modules, &art.symtab, &art.layout, &out.image);
    assert!(
        report.violations.iter().any(|v| v.contains("has no after-call GPDISP")),
        "{report}"
    );
}

#[test]
fn om_full_collapses_dead_slots_back_to_one_group() {
    let objects = build_program();
    let out = optimize_and_link(&objects, &[], OmLevel::Full).unwrap();
    // Padding slots are never referenced, so GAT reduction removes them,
    // the program fits one group again, and no GP reset survives.
    assert_eq!(out.stats.calls_gp_reset_after, 0, "{:?}", out.stats);
    assert!(out.stats.gat_slots_after < 100, "{:?}", out.stats);
    assert_eq!(run_image(&out.image, 10_000_000).unwrap().result, expected());
    assert_gat_counts(&objects, &out);
}

#[test]
fn sorted_commons_layout_is_accepted_at_scale() {
    // Sanity: the OM layout policy handles ~8k commons without pathology.
    let objects = build_program();
    let (image, _) = link_modules(&objects, &[], &LayoutOpts { sort_commons: true }).unwrap();
    assert_eq!(run_image(&image, 10_000_000).unwrap().result, expected());
}

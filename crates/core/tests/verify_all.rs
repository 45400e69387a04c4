//! Tier-1 verifier sweep: every workload, both compile modes, all four OM
//! levels must link with `OmOptions::verify` and report zero violations.
//! This is the whole-program analogue of the per-invariant unit tests in
//! `om_core::verify` — it proves the invariants hold on real compiler
//! output, not just hand-built modules.
//!
//! The same sweep pins the link-once invariants: the GAT counts in
//! `OmStats` are the ones a snapshot of the translated inputs and the final
//! link report, and the returned symbol table and layout are exactly what a
//! fresh layout of the returned modules yields under the link's policy. It
//! also pins that emit keeps every module's symbol table: only procedure
//! offsets and sizes may differ from the selected input's.
//!
//! The profile-guided sweep goes one step further: it runs each scheduled
//! image, collects an execution profile, relinks with the profile (verify
//! still on), and re-diffs the checksum — profile-guided layout must never
//! change program meaning.

use om_core::analysis::Snapshot;
use om_core::sym::translate;
use om_core::{optimize_and_link_artifacts, optimize_and_link_with, OmLevel, OmOptions};
use om_linker::{build_symbol_table, layout, select_modules, LayoutOpts};
use om_objfile::{Module, Symbol, SymbolDef};
use om_sim::{run_image, run_profiled};
use om_workloads::{build::build, spec, CompileMode};

/// Simulator instruction budget per run (quick-spec workloads are small).
const SIM_STEPS: u64 = 200_000_000;

/// The GAT slot count of a snapshot of the translated, untransformed
/// program.
fn translated_gat_slots(modules: &[Module]) -> usize {
    let symtab = build_symbol_table(modules).expect("symtab");
    let program = translate(modules, &symtab).expect("translate");
    Snapshot::capture(&program).expect("snapshot").gat_slots()
}

/// `m`'s symbol table with every procedure's offset and size zeroed.
fn symbols_but_proc_extents(m: &Module) -> Vec<Symbol> {
    let mut symbols = m.symbols.clone();
    for s in &mut symbols {
        if let SymbolDef::Proc { offset, size, .. } = &mut s.def {
            (*offset, *size) = (0, 0);
        }
    }
    symbols
}

#[test]
fn verifier_passes_on_every_workload_mode_and_level() {
    let options = OmOptions { verify: true, ..OmOptions::default() };
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            let selected = select_modules(&b.objects, &b.libs).expect("select");
            let gat_before = translated_gat_slots(&selected);
            for level in OmLevel::ALL {
                let ctx = format!("{} [{}] {}", s.name, mode.name(), level.name());
                let (out, art) = optimize_and_link_artifacts(&b.objects, &b.libs, level, &options)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let report = out.verify.expect("verify requested");
                assert!(report.checks > 0, "{ctx}: no checks ran");

                assert_eq!(out.stats.gat_slots_before, gat_before, "{ctx}: GAT before");
                assert_eq!(out.stats.gat_slots_after, out.link.gat_slots, "{ctx}: GAT after");
                let opts =
                    LayoutOpts { sort_commons: level != OmLevel::None && options.sort_commons };
                let symtab = build_symbol_table(&art.modules).expect("symtab");
                let fresh = layout(&art.modules, &symtab, &opts).expect("layout");
                assert!(art.symtab == symtab, "{ctx}: symbol table is not the link's");
                assert!(art.layout == fresh, "{ctx}: layout is not the link's");

                assert_eq!(art.modules.len(), selected.len(), "{ctx}: module count");
                for (back, input) in art.modules.iter().zip(&selected) {
                    assert!(
                        symbols_but_proc_extents(back) == symbols_but_proc_extents(input),
                        "{ctx}: emit changed the symbol table of `{}`",
                        input.name
                    );
                }
            }
        }
    }
}

#[test]
fn pgo_relink_verifies_and_preserves_checksums_on_every_workload() {
    let options = OmOptions { verify: true, ..OmOptions::default() };
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            let sched =
                optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &options)
                    .unwrap_or_else(|e| panic!("{} [{}] sched: {e}", s.name, mode.name()));
            let (reference, profile) = run_profiled(&sched.image, SIM_STEPS)
                .unwrap_or_else(|e| panic!("{} [{}] profile run: {e}", s.name, mode.name()));
            let popts = OmOptions { profile: Some(profile), ..options.clone() };
            let pgo = optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &popts)
                .unwrap_or_else(|e| panic!("{} [{}] pgo: {e}", s.name, mode.name()));
            assert!(pgo.verify.expect("verify requested").checks > 0);
            let r = run_image(&pgo.image, SIM_STEPS)
                .unwrap_or_else(|e| panic!("{} [{}] pgo run: {e}", s.name, mode.name()));
            assert_eq!(
                r.result,
                reference.result,
                "{} [{}]: pgo relink changed the checksum",
                s.name,
                mode.name()
            );
        }
    }
}

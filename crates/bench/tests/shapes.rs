//! Qualitative shape invariants from the paper's §5, asserted over a sample
//! of quick-mode benchmarks. These are the claims the reproduction must keep
//! true under any future change:
//!
//! * OM-simple deletes nothing, and OM-full removes strictly more than it
//!   (Figures 3, 5);
//! * OM-simple converts but barely touches PV loads; OM-full leaves PV loads
//!   only at procedure-variable calls (Figure 4);
//! * GP resets vanish in single-GAT programs (Figure 4, bottom);
//! * the GAT shrinks by a large factor under OM-full only (§5.1);
//! * compile-all's statistics stay close to compile-each's (§5.1: "OM's
//!   ability to improve the code is not dependent on whether the code was
//!   originally compiled with interprocedural optimization").

use om_bench::figures::Prepared;
use om_core::OmLevel;
use om_workloads::build::CompileMode;
use om_workloads::spec;

fn sample() -> Vec<Prepared> {
    ["compress", "li", "spice", "hydro2d"]
        .iter()
        .map(|n| Prepared::new(&spec::quick(&spec::by_name(n).unwrap())))
        .collect()
}

#[test]
fn full_dominates_simple_statically() {
    for p in sample() {
        for mode in [CompileMode::Each, CompileMode::All] {
            let s = p.om_stats(mode, OmLevel::Simple);
            let f = p.om_stats(mode, OmLevel::Full);
            // OM-simple replaces instructions one for one; only OM-full
            // deletes (§4).
            assert_eq!(s.insts_deleted, 0, "{} {}: {s:?}", p.spec.name, mode.name());
            assert!(
                f.inst_fraction_removed() > s.inst_fraction_removed(),
                "{} {}: {f:?} vs {s:?}",
                p.spec.name,
                mode.name()
            );
            let (scv, snu) = s.addr_load_fractions();
            let (fcv, fnu) = f.addr_load_fractions();
            assert!(fcv + fnu >= scv + snu, "{}", p.spec.name);
            assert!(fnu > snu, "{}: GAT reduction must add nullifications", p.spec.name);
            // "OM-full manages to eliminate nearly all of the address loads."
            assert!(fcv + fnu > 0.75, "{}: {fcv} {fnu}", p.spec.name);
        }
    }
}

#[test]
fn pv_loads_follow_the_papers_asymmetry() {
    for p in sample() {
        let none = p.om_stats(CompileMode::Each, OmLevel::None);
        let s = p.om_stats(CompileMode::Each, OmLevel::Simple);
        let f = p.om_stats(CompileMode::Each, OmLevel::Full);
        // No OM: nearly every call keeps its bookkeeping.
        assert!(none.pv_fraction_after() > 0.75, "{}: {none:?}", p.spec.name);
        // Simple: some improvement, far from full.
        assert!(s.calls_pv_after <= none.calls_pv_after, "{}", p.spec.name);
        assert!(s.calls_pv_after > f.calls_pv_after, "{}", p.spec.name);
        // Full: only procedure-variable calls remain.
        assert_eq!(
            f.calls_pv_after, f.calls_indirect,
            "{}: PV loads after full == indirect calls",
            p.spec.name
        );
        // GP resets: gone at both levels in a single-GAT program.
        assert_eq!(s.calls_gp_reset_after, 0, "{}", p.spec.name);
        assert_eq!(f.calls_gp_reset_after, 0, "{}", p.spec.name);
    }
}

#[test]
fn gat_reduction_is_full_only_and_large() {
    for p in sample() {
        let s = p.om_stats(CompileMode::Each, OmLevel::Simple);
        let f = p.om_stats(CompileMode::Each, OmLevel::Full);
        assert_eq!(s.gat_slots_after, s.gat_slots_before, "{}", p.spec.name);
        assert!(
            f.gat_ratio() < 0.35,
            "{}: GAT must shrink by a large factor, got {:.2}",
            p.spec.name,
            f.gat_ratio()
        );
    }
}

#[test]
fn compile_all_stays_close_to_compile_each() {
    for p in sample() {
        let each = p.om_stats(CompileMode::Each, OmLevel::Full);
        let all = p.om_stats(CompileMode::All, OmLevel::Full);
        let (e, a) = (each.inst_fraction_removed(), all.inst_fraction_removed());
        assert!(
            (e - a).abs() < 0.05,
            "{}: each {e:.3} vs all {a:.3} should be near-equal",
            p.spec.name
        );
        // Inlining must have removed some calls in compile-all.
        assert!(all.calls_total < each.calls_total, "{}", p.spec.name);
    }
}

#[test]
fn dynamic_improvements_are_ordered() {
    // One benchmark end-to-end (quick mode): base >= simple >= ... full wins.
    let p = Prepared::new(&spec::quick(&spec::by_name("espresso").unwrap()));
    let (_, base) = p.run_standard(CompileMode::Each);
    let (_, simple) = p.run_om(CompileMode::Each, OmLevel::Simple);
    let (_, full) = p.run_om(CompileMode::Each, OmLevel::Full);
    assert!(simple.cycles <= base.cycles, "simple never hurts: {simple:?} vs {base:?}");
    assert!(full.cycles < base.cycles, "full strictly wins");
    assert!(full.insts < base.insts, "full retires fewer instructions");
}

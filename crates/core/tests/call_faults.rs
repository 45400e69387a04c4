//! The call-site fault points (`fault-bsr-skew`, `fault-pv-drop`) sit in the
//! rewriter OM-simple and OM-full share, so a plan armed at OM-simple fires
//! there as well, and execution catches what it plants.

use om_core::{optimize_and_link_with, FaultKind, FaultPlan, OmLevel, OmOptions};
use om_objfile::{Archive, Module};
use om_sim::run_fast;
use om_workloads::build::{build, CompileMode};
use om_workloads::spec;

const BUDGET: u64 = 200_000_000;

fn program() -> (Vec<Module>, Vec<Archive>) {
    let built = build(
        &spec::quick(&spec::by_name("li").unwrap()),
        CompileMode::Each,
    )
    .unwrap();
    (built.objects, built.libs.to_vec())
}

/// The OM-simple link of `(objects, libs)` with `plan` armed.
fn link_simple(objects: &[Module], libs: &[Archive], plan: &FaultPlan) -> om_linker::Image {
    let options = OmOptions {
        fault: Some(plan.clone()),
        ..OmOptions::default()
    };
    optimize_and_link_with(objects, libs, OmLevel::Simple, &options)
        .unwrap()
        .image
}

#[test]
fn call_site_faults_are_live_at_om_simple() {
    let (objects, libs) = program();
    let clean =
        optimize_and_link_with(&objects, &libs, OmLevel::Simple, &OmOptions::default()).unwrap();
    let expected = run_fast(&clean.image, BUDGET).unwrap().result;
    for kind in [FaultKind::BsrSkew, FaultKind::PvLoadDrop] {
        // A plan that never fires counts the candidates.
        let probe = FaultPlan::new(kind, usize::MAX);
        link_simple(&objects, &libs, &probe);
        let candidates = probe.candidates_seen();
        assert!(candidates > 0, "{}: no candidate at OM-simple", kind.name());
        // Not every site runs hot, but some of the first few must.
        let killed = (0..candidates.min(4))
            .filter(|&site| {
                let plan = FaultPlan::new(kind, site);
                let image = link_simple(&objects, &libs, &plan);
                assert!(plan.fired(), "{} site {site}", kind.name());
                run_fast(&image, BUDGET).map(|r| r.result).ok() != Some(expected)
            })
            .count();
        assert!(
            killed > 0,
            "{}: no OM-simple mutant changed the result",
            kind.name()
        );
    }
}

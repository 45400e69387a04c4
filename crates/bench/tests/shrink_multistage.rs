//! Shrinker behavior on multi-stage failures: a kill that depends on an
//! *interaction* between two modules, buried in a program with unrelated
//! modules. The shrinker must strip the unrelated code, keep the
//! interacting pair, and — the property that matters for triage — the
//! minimized repro must still reproduce the kill.

use om_bench::fuzz::{generate, render, shrink_with, write_repro, FuzzProgram, Outcome};

/// A seed whose generated program has at least three modules, several
/// procedures, and statements to strip (asserted below, so a generator
/// change that invalidates the choice fails loudly instead of hollowing
/// out the test).
const SEED: u64 = 8;

fn multi_module_program() -> FuzzProgram {
    let prog = generate(SEED);
    assert!(
        prog.modules.len() >= 3,
        "seed {SEED} must generate >= 3 modules for this test, got {}",
        prog.modules.len()
    );
    prog
}

/// The "kill": fails exactly when the first and last of the original
/// modules are both still present — a cross-module interaction (think
/// caller in one module, miscompiled callee in another). Everything in
/// between is noise an ideal shrinker removes.
fn cross_module_kill(p: &FuzzProgram, first: usize, last: usize) -> bool {
    let has = |idx: usize| p.modules.iter().any(|m| m.index == idx);
    has(first) && has(last)
}

#[test]
fn shrinking_strips_unrelated_modules_and_keeps_the_kill() {
    let prog = multi_module_program();
    let first = prog.modules.first().unwrap().index;
    let last = prog.modules.last().unwrap().index;

    let mut oracle_calls = 0usize;
    let small = shrink_with(prog, 300, |p| {
        oracle_calls += 1;
        cross_module_kill(p, first, last)
    });

    // The minimized repro still reproduces the kill…
    assert!(cross_module_kill(&small, first, last), "shrinking lost the failure");
    // …the unrelated middle modules are gone…
    assert_eq!(
        small.modules.len(),
        2,
        "unrelated modules survived shrinking: {:?}",
        small.modules.iter().map(|m| m.index).collect::<Vec<_>>()
    );
    assert!(oracle_calls > 0, "shrinker never consulted the oracle");
    // …and the survivors are stripped to (at most) one procedure with no
    // statements each: the modules only matter by *presence*, so every
    // statement is noise the stmt stage must drop.
    for m in &small.modules {
        assert!(m.procs.len() <= 1, "module {} kept {} procs", m.index, m.procs.len());
        for p in &m.procs {
            assert!(p.stmts.is_empty(), "proc {} kept {} stmts", p.name, p.stmts.len());
        }
    }
}

#[test]
fn shrinking_a_dependent_pair_never_splits_it() {
    // Sharper variant: the kill needs *both* ends; dropping either makes
    // the oracle pass. A shrinker that tests module drops one at a time
    // (rather than wholesale) must refuse to drop either end.
    let prog = multi_module_program();
    let first = prog.modules.first().unwrap().index;
    let last = prog.modules.last().unwrap().index;
    let small = shrink_with(prog, 300, |p| cross_module_kill(p, first, last));
    let kept: Vec<usize> = small.modules.iter().map(|m| m.index).collect();
    assert!(kept.contains(&first) && kept.contains(&last), "kept {kept:?}");
}

#[test]
fn minimized_repro_renders_and_reruns_the_kill() {
    // End-to-end: the minimized program must render to sources (the repro
    // artifact is mini-C text, not the FuzzProgram struct), and re-checking
    // the *rendered-then-shrunk* program against the same oracle still
    // fails — i.e. what we write to disk is what reproduces.
    let prog = multi_module_program();
    let first = prog.modules.first().unwrap().index;
    let last = prog.modules.last().unwrap().index;
    let small = shrink_with(prog, 300, |p| cross_module_kill(p, first, last));

    let sources = render(&small);
    assert!(!sources.is_empty());
    // Rendered module names match the surviving indices (fz_main for the
    // main module, fz_NN otherwise) — the repro names tie back to the
    // original program, not to post-shrink renumbering.
    for m in &small.modules {
        let expect_main = "fz_main".to_string();
        let expect_idx = format!("fz_{:02}", m.index);
        assert!(
            sources.iter().any(|(n, _)| *n == expect_main || *n == expect_idx),
            "no rendered source for surviving module {}",
            m.index
        );
    }

    let report = write_repro(
        &small,
        &Outcome::Fail { reference: Some(0), mismatches: Vec::new() },
    );
    for (_, src) in &sources {
        assert!(
            report.contains(src.trim()),
            "repro file does not embed a surviving module's source"
        );
    }

    // The written repro is self-identifying: seed line plus every module.
    assert!(report.contains(&format!("seed {SEED}")));
}

#[test]
fn budget_zero_returns_input_unchanged() {
    // A shrink budget of zero may not even ask the oracle — the original
    // failing program must come back intact (no "shrunk but unverified"
    // states).
    let prog = multi_module_program();
    let n_modules = prog.modules.len();
    let n_procs: usize = prog.modules.iter().map(|m| m.procs.len()).sum();
    let small = shrink_with(prog, 0, |_| panic!("oracle consulted with zero budget"));
    assert_eq!(small.modules.len(), n_modules);
    assert_eq!(small.modules.iter().map(|m| m.procs.len()).sum::<usize>(), n_procs);
}

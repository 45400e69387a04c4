//! Unit tests of `om_core::pgo`'s conservative fallback: a procedure the
//! profile does not know — or whose backward-target count disagrees with the
//! profiled code (the code changed since profiling) — must fall back to the
//! paper's blind align-everything behavior, never to a partial or panicking
//! application of stale ranks.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::pgo::{proc_key, run_with};
use om_core::profile::ProcProfile;
use om_core::resched::backward_target_ids;
use om_core::sym::{translate, SymProgram};
use om_core::{OmStats, Profile};
use om_linker::{build_symbol_table, select_modules};
use om_objfile::Visibility;

/// Two-loop `main` (two backward-branch targets) plus a single-loop helper.
const SRC: &str = "int g;
int helper(int n) {
  int i = 0;
  while (i < n) { g = g + i; i = i + 1; }
  return g;
}
int main() {
  int i = 0;
  int s = 0;
  for (i = 0; i < 6; i = i + 1) { s = s + helper(i); }
  for (i = 0; i < 4; i = i + 1) { s = s + i; }
  return s;
}";

fn translated() -> SymProgram {
    let objects = vec![
        crt0::module().unwrap(),
        compile_source("m", SRC, &CompileOpts::o2()).unwrap(),
    ];
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    translate(&modules, &symtab).unwrap()
}

fn profile_with(procs: Vec<ProcProfile>) -> Profile {
    let mut p = Profile { total_insts: 1000, procs, edges: Vec::new() };
    p.normalize();
    p
}

/// Backward-target count of `main` in the translated program.
fn main_targets(program: &SymProgram) -> usize {
    let m = &program.modules[1];
    let p = m.procs.iter().find(|p| m.proc_name(p) == "main").unwrap();
    backward_target_ids(p).len()
}

/// Total backward targets across every procedure of the program.
fn all_targets(program: &SymProgram) -> usize {
    program
        .modules
        .iter()
        .flat_map(|m| &m.procs)
        .map(|p| backward_target_ids(p).len())
        .sum()
}

#[test]
fn rank_mismatch_falls_back_to_blind_alignment() {
    let mut program = translated();
    let n_main = main_targets(&program);
    let n_all = all_targets(&program);
    assert!(n_main >= 2, "source must give main at least two loops, got {n_main}");

    // The profile knows `main`, but with the wrong number of backward
    // targets — as if the code was edited after profiling. All counts are
    // cold, so *trusting* this profile would align nothing; the mismatch
    // must force the blind path (align everything) for main only.
    let prof = profile_with(vec![ProcProfile {
        name: "main".into(),
        calls: 1,
        insts: 100,
        back_targets: vec![0; n_main + 1],
    }]);
    let mut stats = OmStats::default();
    let opts = om_core::OmOptions::default();
    run_with(&mut program, &mut stats, &prof, &opts);

    // Every target in the program is classified hot (= align): main via the
    // rank-mismatch fallback, every other procedure via the unknown-proc
    // fallback.
    assert_eq!(stats.pgo_targets_hot, n_all);
    assert_eq!(stats.pgo_targets_cold, 0);
}

#[test]
fn unknown_procedure_falls_back_to_blind_alignment() {
    let mut program = translated();
    let n_all = all_targets(&program);

    // The profile exists but knows nothing relevant (wrong names entirely).
    let prof = profile_with(vec![ProcProfile {
        name: "somebody_else".into(),
        calls: 99,
        insts: 4,
        back_targets: vec![7],
    }]);
    let mut stats = OmStats::default();
    run_with(&mut program, &mut stats, &prof, &om_core::OmOptions::default());
    assert_eq!(stats.pgo_targets_hot, n_all);
    assert_eq!(stats.pgo_targets_cold, 0);
}

#[test]
fn matching_cold_profile_is_trusted_not_blindly_aligned() {
    let mut program = translated();
    let n_main = main_targets(&program);

    // Control case: the same shape as the mismatch test but with the
    // *correct* target count — now the all-cold counts must be believed,
    // and main's targets all classify cold.
    let prof = profile_with(vec![ProcProfile {
        name: "main".into(),
        calls: 1,
        insts: 100,
        back_targets: vec![0; n_main],
    }]);
    let mut stats = OmStats::default();
    run_with(&mut program, &mut stats, &prof, &om_core::OmOptions::default());
    assert_eq!(stats.pgo_targets_cold, n_main);
}

#[test]
fn fallback_and_blind_runs_produce_identical_code() {
    // The mismatch fallback must be *exactly* the blind behavior, not an
    // approximation: compare the full instruction stream against a run
    // whose profile is entirely unknown (which also takes the blind path).
    let mut mismatched = translated();
    let n_main = main_targets(&mismatched);
    // `calls: 0` keeps the hot/cold procedure *reordering* identical in
    // both runs, so the comparison isolates the alignment decision.
    let prof_bad = profile_with(vec![ProcProfile {
        name: "main".into(),
        calls: 0,
        insts: 100,
        back_targets: vec![1_000_000; n_main + 2],
    }]);
    let mut stats_a = OmStats::default();
    run_with(&mut mismatched, &mut stats_a, &prof_bad, &om_core::OmOptions::default());

    let mut unknown = translated();
    let prof_none = profile_with(Vec::new());
    let mut stats_b = OmStats::default();
    run_with(&mut unknown, &mut stats_b, &prof_none, &om_core::OmOptions::default());

    let flat = |p: &SymProgram| -> Vec<(String, Vec<om_alpha::Inst>)> {
        p.modules
            .iter()
            .flat_map(|m| m.procs.iter().map(move |p| (m, p)))
            .map(|(m, p)| (m.proc_name(p).to_string(), p.insts.iter().map(|i| i.inst).collect()))
            .collect()
    };
    assert_eq!(flat(&mismatched), flat(&unknown));
    assert_eq!(stats_a.unops_inserted, stats_b.unops_inserted);
}

#[test]
fn proc_key_matches_linker_publishing() {
    assert_eq!(proc_key("main", Visibility::Exported, "m"), "main");
    assert_eq!(proc_key("lp", Visibility::Local, "m"), "lp.m");
}

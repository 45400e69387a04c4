//! Profile-guided layout: the BOLT-style refinement of the paper's blind
//! layout heuristics, driven by a [`Profile`] collected on a previous run.
//!
//! Two decisions become profile-driven:
//!
//! * **Hot/cold procedure ordering** — within each module, procedures are
//!   stably reordered by descending call count, so hot procedures pack
//!   together at the front of the module's text (better I-cache locality on
//!   the 8KB direct-mapped model). Cold procedures keep their relative
//!   input order, and entirely-cold modules are left untouched.
//! * **Hot-only backward-branch-target alignment** — the paper aligns every
//!   backward-branch target; its own `ear` ablation showed that can hurt.
//!   Here only targets the profile shows executing at least once earn
//!   alignment UNOPs; cold targets (loop heads that never ran) cost nothing
//!   on the fall-through path.
//!
//! Profile↔program matching is by linked-image symbol name (exported
//! procedures by plain name, locals qualified `"name.module"`, exactly as
//! the linker publishes them) and by backward-target *rank* (code order).
//! A procedure the profile does not know — or whose target count disagrees,
//! meaning the code changed since profiling — conservatively falls back to
//! the paper's align-everything behavior for that procedure.

use crate::pipeline::OmOptions;
use crate::profile::Profile;
use crate::resched::{align_backward_targets_where, backward_target_ids};
use crate::stats::OmStats;
use crate::sym::{SInst, SMark, SymProc, SymProgram};
use om_alpha::Inst;
use om_objfile::Visibility;

/// The linked-image symbol name of a procedure (the key [`Profile`] entries
/// use): the plain name when exported, `"name.module"` when local —
/// mirroring the linker's published symbol map.
pub fn proc_key(name: &str, vis: Visibility, module_name: &str) -> String {
    match vis {
        Visibility::Exported => name.to_string(),
        Visibility::Local => format!("{name}.{module_name}"),
    }
}

/// Applies profile-guided layout to a scheduled program: procedure
/// reordering first (so alignment sees final intra-module offsets), then
/// hot-only target alignment.
pub fn run_with(
    program: &mut SymProgram,
    stats: &mut OmStats,
    profile: &Profile,
    options: &OmOptions,
) {
    // 1. Hot/cold procedure reordering, stable within each module.
    for m in &mut program.modules {
        let module_name = m.source.name.clone();
        let heat: Vec<u64> = m
            .procs
            .iter()
            .map(|p| {
                profile
                    .proc(&proc_key(&p.name, p.vis, &module_name))
                    .map_or(0, |pp| pp.calls)
            })
            .collect();
        let mut order: Vec<usize> = (0..m.procs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(heat[i]));
        if order.iter().enumerate().any(|(slot, &i)| slot != i) {
            stats.pgo_procs_moved +=
                order.iter().enumerate().filter(|&(slot, &i)| slot != i).count();
            let mut procs: Vec<Option<SymProc>> =
                std::mem::take(&mut m.procs).into_iter().map(Some).collect();
            m.procs =
                order.iter().map(|&i| procs[i].take().expect("proc moved twice")).collect();
        }
    }

    // 2. Hot-only alignment. Decide per (module, proc, rank) up front; the
    // alignment walk then just consults the table.
    let mut hot: Vec<Vec<Vec<bool>>> = Vec::with_capacity(program.modules.len());
    for m in &program.modules {
        let module_name = &m.source.name;
        let mut per_proc = Vec::with_capacity(m.procs.len());
        for p in &m.procs {
            let n_targets = backward_target_ids(p).len();
            let decisions = match profile.proc(&proc_key(&p.name, p.vis, module_name)) {
                Some(pp) if pp.back_targets.len() == n_targets => {
                    pp.back_targets.iter().map(|&c| c > 0).collect()
                }
                // Unknown procedure or a target-count mismatch: the paper's
                // blind alignment is the safe default.
                _ => vec![true; n_targets],
            };
            stats.pgo_targets_hot += decisions.iter().filter(|&&h| h).count();
            stats.pgo_targets_cold += decisions.iter().filter(|&&h| !h).count();
            per_proc.push(decisions);
        }
        hot.push(per_proc);
    }
    align_backward_targets_where(program, stats, |mi, pi, rank| hot[mi][pi][rank]);

    // Fault point: pad the entry of a procedure that prologue-skipping
    // `BSR +8` callers enter at a fixed offset — they now land mid-pair.
    // The UNOP is counted like any alignment UNOP, so the accounting stays
    // balanced and only execution can notice.
    if let Some(plan) = options.fault.as_ref() {
        let mut skip_targets: Vec<(usize, usize)> = Vec::new();
        for m in &program.modules {
            for p in &m.procs {
                for i in &p.insts {
                    if let SMark::BrSym { target, addend: 8 } = &i.mark {
                        if let Some(coord) = program.proc_of(target) {
                            if !skip_targets.contains(&coord) {
                                skip_targets.push(coord);
                            }
                        }
                    }
                }
            }
        }
        skip_targets.sort_unstable();
        for (mi, pi) in skip_targets {
            if plan.arm(crate::fault::FaultKind::EntryPad) {
                let p = &mut program.modules[mi].procs[pi];
                let id = p.fresh_id();
                p.insts.insert(0, SInst { id, inst: Inst::unop(), mark: SMark::None });
                stats.unops_inserted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProcProfile;

    fn profile_with(procs: Vec<ProcProfile>) -> Profile {
        let mut p = Profile { total_insts: 0, procs, edges: Vec::new() };
        p.normalize();
        p
    }

    #[test]
    fn proc_key_qualifies_locals_like_the_linker() {
        assert_eq!(proc_key("f", Visibility::Exported, "m"), "f");
        assert_eq!(proc_key("f", Visibility::Local, "m"), "f.m");
    }

    #[test]
    fn hot_threshold_splits_targets() {
        let prof = profile_with(vec![ProcProfile {
            name: "f".into(),
            calls: 10,
            insts: 100,
            back_targets: vec![0, 5, 1],
        }]);
        let pp = prof.proc("f").unwrap();
        let hot: Vec<bool> = pp.back_targets.iter().map(|&c| c >= 2).collect();
        assert_eq!(hot, vec![false, true, false]);
    }
}

//! OM-full: the whole set of address-calculation optimizations, enabled by
//! OM's ability to delete and reorder instructions (§3, §4).
//!
//! Beyond OM-simple:
//!
//! * prologue GPDISP pairs that compile-time scheduling sank into the body
//!   are restored "to their logical place at the beginning of the procedure";
//! * a procedure whose address never escapes and whose every call site is a
//!   same-GAT BSR loses its prologue GP setup entirely, and every call site
//!   loses its PV load;
//! * removed instructions are deleted (the code shrinks), not nullified;
//! * the GAT is reduced to a fixpoint: dropping dead slots pulls small data
//!   closer to GP, which lets more address loads be nullified, which kills
//!   more slots — "perhaps enabling a fresh round of the other improvements".

use crate::analysis::{
    address_taken, call_sites, find_entry_pair, prologue_pair_at_entry, reads_pv_outside,
    use_index, CallKind, Snapshot, UseKind,
};
use crate::fault::{armed, FaultKind, FaultPlan};
use crate::pipeline::CallBook;
use crate::simple::{bsr_reachable, transform_address_loads};
use crate::stats::OmStats;
use crate::sym::{GlobalRef, InstId, OmError, SMark, SymProgram};
use om_alpha::{BrOp, Effects, Inst, Reg};
use std::collections::{HashMap, HashSet};

/// Runs OM-full over the program under `options` (layout policy, fixpoint
/// budget, preemptible symbols, fault plan).
///
/// # Errors
///
/// Propagates snapshot (layout) failures.
pub fn run_with(
    program: &mut SymProgram,
    stats: &mut OmStats,
    book: &mut CallBook,
    options: &crate::pipeline::OmOptions,
) -> Result<(), OmError> {
    program.preserve_gat = false;
    restore_prologues(program);

    // Iterate to the GAT-reduction fixpoint. Each round makes decisions
    // against a fresh layout of the *current* (already shrunk) program;
    // distances only shrink, so earlier decisions stay valid.
    let preempt: HashSet<&str> = options.preemptible.iter().map(String::as_str).collect();
    for _round in 0..options.max_rounds {
        let snap = Snapshot::capture_with(program, options.sort_commons)?;
        let mut changed = false;
        let m = crate::obs::PassMeter::begin("calls", stats);
        changed |= remove_prologues_and_convert_calls(
            program,
            &snap,
            stats,
            book,
            &preempt,
            options.fault.as_ref(),
        );
        m.end(stats);
        let before = (stats.addr_loads_converted, stats.addr_loads_nullified);
        let m = crate::obs::PassMeter::begin("convert", stats);
        transform_address_loads(program, &snap, stats, &preempt, options.fault.as_ref());
        m.end(stats);
        changed |= (stats.addr_loads_converted, stats.addr_loads_nullified) != before;
        // Deletion: in OM-full every nullified instruction is actually
        // removed from the code.
        let m = crate::obs::PassMeter::begin("nullify", stats);
        changed |= delete_nops(program, stats);
        m.end(stats);
        om_obs::count("pipeline.full_rounds", 1);
        if !changed {
            break;
        }
    }
    Ok(())
}

/// Moves each procedure's entry GPDISP pair back to instructions 0 and 1,
/// when it is safe: nothing before the pair may read GP or write PV, and no
/// branch may target the skipped-over region (never the case for a prologue
/// region).
pub fn restore_prologues(program: &mut SymProgram) {
    for m in &mut program.modules {
        for p in &mut m.procs {
            let Some((hi_idx, lo_idx)) = find_entry_pair(p) else { continue };
            if hi_idx == 0 && lo_idx == 1 {
                continue;
            }
            // Safety: instructions currently before the pair must not read
            // GP (they would now see the new value) or write PV/GP, and must
            // not be branch targets or control transfers.
            let limit = hi_idx.max(lo_idx);
            let targeted: HashSet<InstId> = p
                .insts
                .iter()
                .filter_map(|i| match i.mark {
                    SMark::BrLocal { target } => Some(target),
                    _ => None,
                })
                .collect();
            let movable = p.insts[..limit].iter().enumerate().all(|(k, i)| {
                if k == hi_idx || k == lo_idx {
                    return true;
                }
                let e = Effects::of(&i.inst);
                !e.reads_int(Reg::GP)
                    && !e.writes_int(Reg::GP)
                    && !e.writes_int(Reg::PV)
                    && !e.control
                    && !targeted.contains(&i.id)
            });
            if !movable {
                continue;
            }
            let lo = p.insts.remove(lo_idx);
            let hi = p.insts.remove(if hi_idx > lo_idx { hi_idx - 1 } else { hi_idx });
            p.insts.insert(0, hi);
            p.insts.insert(1, lo);
        }
    }
}

/// One round of call-site optimization with whole-program knowledge.
/// Returns true if anything changed.
fn remove_prologues_and_convert_calls(
    program: &mut SymProgram,
    snap: &Snapshot,
    stats: &mut OmStats,
    book: &mut CallBook,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) -> bool {
    let single_group = snap.single_group();
    let taken = address_taken(program);

    // Collect every call site with its caller coordinates and its address
    // under the snapshot (mutations below shift indices, so addresses are
    // frozen now).
    struct Site {
        mi: usize,
        pi: usize,
        addr: u64,
        jsr_id: InstId,
        kind: CallKind,
        gp_reset: Option<(InstId, InstId)>,
    }
    let mut sites: Vec<Site> = Vec::new();
    for (mi, m) in program.modules.iter().enumerate() {
        for (pi, p) in m.procs.iter().enumerate() {
            for s in call_sites(p) {
                sites.push(Site {
                    mi,
                    pi,
                    addr: snap.inst_addr(program, mi, pi, s.at),
                    jsr_id: p.insts[s.at].id,
                    kind: s.kind,
                    gp_reset: s.gp_reset,
                });
            }
        }
    }

    // Group call sites per target procedure.
    let mut callers: HashMap<GlobalRef, Vec<usize>> = HashMap::new();
    for (si, s) in sites.iter().enumerate() {
        if let CallKind::DirectJsr { target, .. } | CallKind::Bsr { target, .. } = &s.kind {
            callers.entry(target.clone()).or_default().push(si);
        }
    }

    // Which procedures can lose their prologue GP setup entirely?
    let mut drop_prologue: HashSet<GlobalRef> = HashSet::new();
    for (mi, m) in program.modules.iter().enumerate() {
        for p in &m.procs {
            let r = GlobalRef::Def { module: mi, sym: p.sym };
            let Some((hi, lo)) = prologue_pair_at_entry(p) else { continue };
            // A preemptible procedure may be entered by callers OM cannot
            // see (or replace a definition elsewhere): keep its prologue.
            if preempt.contains(p.name.as_str())
                || taken.contains(&r)
                || reads_pv_outside(p, &[hi, lo])
            {
                continue;
            }
            let entry_addr = snap.addr(&r);
            let all_ok = callers.get(&r).map(|list| {
                list.iter().all(|&si| {
                    let s = &sites[si];
                    // An existing prologue-skipping BSR pins the prologue in
                    // place (it enters at entry+8).
                    let skips = matches!(s.kind, CallKind::Bsr { addend, .. } if addend != 0);
                    snap.group(s.mi) == snap.group(mi)
                        && !skips
                        && bsr_reachable(s.addr, entry_addr)
                })
            });
            // A procedure with no callers at all (dead) also qualifies.
            if all_ok.unwrap_or(true) {
                drop_prologue.insert(r);
            }
        }
    }

    let mut changed = false;

    // Delete the prologues of the chosen procedures.
    for r in &drop_prologue {
        let GlobalRef::Def { module, .. } = r else { unreachable!() };
        let Some((_, pi)) = program.proc_of(r) else { continue };
        let p = &mut program.modules[*module].procs[pi];
        let (hi, lo) = prologue_pair_at_entry(p).expect("checked above");
        let doomed: HashSet<InstId> = [hi, lo].into_iter().collect();
        p.delete(&doomed);
        stats.insts_deleted += 2;
        changed = true;
    }

    // Rewrite call sites.
    for s in &sites {
        let key = (s.mi, s.pi, s.jsr_id);

        // GP-reset deletion.
        let same_gp_target = match &s.kind {
            CallKind::DirectJsr { target, .. } | CallKind::Bsr { target, .. } => {
                if preempt.contains(crate::analysis::ref_name(program, target)) {
                    false
                } else {
                    match target {
                        GlobalRef::Def { module, .. } => snap.group(s.mi) == snap.group(*module),
                        GlobalRef::Common { .. } => single_group,
                    }
                }
            }
            CallKind::Indirect => single_group,
        };
        if let Some((hi, lo)) = s.gp_reset {
            if same_gp_target {
                let p = &mut program.modules[s.mi].procs[s.pi];
                let doomed: HashSet<InstId> = [hi, lo].into_iter().collect();
                p.delete(&doomed);
                stats.insts_deleted += 2;
                book.entry(key).or_insert((false, true)).1 = false;
                changed = true;
            }
        }

        // JSR → BSR with PV-load removal (never for preemptible targets).
        let CallKind::DirectJsr { load, target } = &s.kind else { continue };
        if preempt.contains(crate::analysis::ref_name(program, target))
            || program.proc_of(target).is_none()
        {
            continue;
        }
        let target_addr = snap.addr(target);
        if !bsr_reachable(s.addr, target_addr) {
            continue;
        }
        let same_gp = same_gp_target;

        let uses = use_index(&program.modules[s.mi].procs[s.pi]);
        let sole_use = uses
            .get(load)
            .map(|u| u.len() == 1 && u[0].1 == UseKind::Jsr)
            .unwrap_or(false);

        // Decide the entry point and whether PV dies.
        let (mut addend, kill_load) = if drop_prologue.contains(target) {
            (0, sole_use)
        } else if same_gp {
            let (tm, tp) = program.proc_of(target).expect("checked");
            let tproc = &program.modules[tm].procs[tp];
            match prologue_pair_at_entry(tproc) {
                Some((hi, lo)) if sole_use && !reads_pv_outside(tproc, &[hi, lo]) => (8, true),
                _ => (0, false),
            }
        } else {
            // Different GP group: the callee still derives its GP from PV,
            // so the PV load must stay; BSR is still profitable.
            (0, false)
        };

        // Fault point: a `BSR target+8` against a callee whose entry holds
        // real code (no GPDISP pair left to skip) silently drops two
        // instructions from the callee's execution.
        if addend == 0 {
            let entry_is_real_code = program
                .proc_of(target)
                .map(|(tm, tp)| prologue_pair_at_entry(&program.modules[tm].procs[tp]).is_none())
                .unwrap_or(false);
            if entry_is_real_code && armed(fault, FaultKind::BsrSkew) {
                addend = 8;
            }
        }
        // Fault point: the PV load dies below, but the branch forgets the
        // +8 prologue skip that compensates — the callee rebuilds GP from a
        // stale PV.
        if addend == 8 && kill_load && armed(fault, FaultKind::PvLoadDrop) {
            addend = 0;
        }

        let p = &mut program.modules[s.mi].procs[s.pi];
        let at = p.index_of(s.jsr_id);
        p.insts[at].inst = Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 };
        p.insts[at].mark = SMark::BrSym { target: target.clone(), addend };
        stats.calls_jsr_to_bsr += 1;
        changed = true;
        if kill_load {
            let doomed: HashSet<InstId> = [*load].into_iter().collect();
            p.delete(&doomed);
            stats.insts_deleted += 1;
            stats.addr_loads_nullified += 1;
            book.entry(key).or_insert((true, false)).0 = false;
        }
    }

    changed
}

/// Deletes all no-op instructions (OM-full turns transform residue into
/// actual code shrinkage). Returns true if anything was deleted.
///
/// Only no-ops that are not branch targets are deleted directly; targeted
/// ones are retargeted by [`crate::sym::SymProc::delete`] automatically.
fn delete_nops(program: &mut SymProgram, stats: &mut OmStats) -> bool {
    let mut any = false;
    for m in &mut program.modules {
        for p in &mut m.procs {
            let doomed: HashSet<InstId> = p
                .insts
                .iter()
                .enumerate()
                .filter(|&(k, i)| {
                    // Never delete a trailing instruction (branch retarget
                    // needs a survivor after it); procedures end in RET/HALT
                    // anyway.
                    i.inst.is_nop() && matches!(i.mark, SMark::None) && k + 1 < p.insts.len()
                })
                .map(|(_, i)| i.id)
                .collect();
            if doomed.is_empty() {
                continue;
            }
            // Note: transform passes count each nullification once; nops
            // deleted here were already counted as `insts_nullified` by the
            // shared transform body. Reclassify them as deletions.
            stats.insts_nullified = stats.insts_nullified.saturating_sub(doomed.len());
            stats.insts_deleted += doomed.len();
            p.delete(&doomed);
            any = true;
        }
    }
    any
}

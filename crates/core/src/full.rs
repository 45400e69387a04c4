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
//! * removed instructions are deleted (the code shrinks), not nullified —
//!   the call sites go through OM-simple's rewriter
//!   ([`crate::simple::convert_calls`]) with [`Removal::Delete`], and the
//!   no-ops the address-load pass leaves are deleted after it;
//! * the GAT is reduced to a fixpoint: dropping dead slots pulls small data
//!   closer to GP, which lets more address loads be nullified, which kills
//!   more slots — "perhaps enabling a fresh round of the other improvements".

use crate::analysis::{
    address_taken, find_entry_pair, prologue_pair_at_entry, reads_pv_outside, CallKind, Snapshot,
};
use crate::pipeline::CallBook;
use crate::simple::{
    bsr_reachable, collect_sites, convert_calls, transform_address_loads, Removal, Site,
};
use crate::stats::OmStats;
use crate::sym::{GlobalRef, InstId, OmError, SMark, SymProgram};
use om_alpha::{Effects, Reg};
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
        let m = crate::obs::PassMeter::begin("calls", stats);
        let sites = collect_sites(program, &snap);
        let dropped = drop_prologues(program, &snap, &sites, stats, &preempt);
        let mut changed = !dropped.is_empty();
        changed |= convert_calls(
            program,
            &snap,
            &sites,
            &dropped,
            Removal::Delete,
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

/// Deletes the prologue GP setup of every procedure that can lose it: its
/// address never escapes, it does not read the incoming PV elsewhere, and
/// every call site (`sites`, frozen under `snap`) is a same-GP BSR candidate
/// within reach that does not already skip the prologue. Returns the
/// procedures whose prologues were deleted.
fn drop_prologues(
    program: &mut SymProgram,
    snap: &Snapshot,
    sites: &[Site],
    stats: &mut OmStats,
    preempt: &HashSet<&str>,
) -> HashSet<GlobalRef> {
    let taken = address_taken(program);

    // Group call sites per target procedure.
    let mut callers: HashMap<GlobalRef, Vec<usize>> = HashMap::new();
    for (si, s) in sites.iter().enumerate() {
        if let CallKind::DirectJsr { target, .. } | CallKind::Bsr { target, .. } = &s.kind {
            callers.entry(target.clone()).or_default().push(si);
        }
    }

    let mut dropped: HashSet<GlobalRef> = HashSet::new();
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
                dropped.insert(r);
            }
        }
    }

    for r in &dropped {
        let (mi, pi) = program.proc_of(r).expect("built from a defined procedure");
        let p = &mut program.modules[mi].procs[pi];
        let (hi, lo) = prologue_pair_at_entry(p).expect("checked above");
        p.delete(&[hi, lo].into_iter().collect());
        stats.insts_deleted += 2;
    }
    dropped
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

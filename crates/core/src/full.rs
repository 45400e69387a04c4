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
//!   the call sites and address loads go through OM-simple's passes
//!   (`simple::convert_calls`, `simple::transform_address_loads`) with
//!   [`Removal::Delete`], so the pass that decides a removal also performs
//!   it, one batch per procedure;
//! * the GAT is reduced to a fixpoint: dropping dead slots pulls small data
//!   closer to GP, which lets more address loads be nullified, which kills
//!   more slots — "perhaps enabling a fresh round of the other improvements".
//!   Each round after the first visits only the call sites, prologues and
//!   loads the previous one left (`analysis::Residue`).

use crate::analysis::{
    find_entry_pair, prologue_pair_at_entry, reads_pv_outside, CallKind, Residue, Snapshot,
};
use crate::pipeline::CallBook;
use crate::simple::{convert_calls, transform_address_loads, Removal};
use crate::stats::OmStats;
use crate::sym::{Addend, GlobalRef, OmError, SymProgram};
use om_alpha::{field, Effects, Reg};
use std::collections::HashSet;

/// Runs OM-full over the program under `options` (layout policy, fixpoint
/// budget, preemptible symbols, fault plan). `book` gets each call site's
/// `(needs PV load, needs GP reset)` as the rounds left it, keyed by
/// `(module, procedure, call id)`.
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
    run_observed(program, stats, book, options, &mut |_, _| {})
}

/// [`run_with`], handing `each_round` the program and the snapshot each
/// round decides against, before the round changes anything (a test
/// compares it with a fresh [`Snapshot::capture_with`]).
///
/// # Errors
///
/// Propagates snapshot (layout) failures.
pub fn run_observed(
    program: &mut SymProgram,
    stats: &mut OmStats,
    book: &mut CallBook,
    options: &crate::pipeline::OmOptions,
    each_round: &mut dyn FnMut(&SymProgram, &Snapshot),
) -> Result<(), OmError> {
    run(program, stats, options, each_round)?.fill_book(book);
    Ok(())
}

/// [`run_observed`], returning the residue the rounds left instead of
/// filling a call book.
pub(crate) fn run(
    program: &mut SymProgram,
    stats: &mut OmStats,
    options: &crate::pipeline::OmOptions,
    each_round: &mut dyn FnMut(&SymProgram, &Snapshot),
) -> Result<Residue, OmError> {
    program.preserve_gat = false;
    {
        let _s = om_obs::span("pass.restore");
        restore_prologues(program);
    }

    // Iterate to the GAT-reduction fixpoint. Each round makes decisions
    // against a fresh layout of the *current* (already shrunk) program;
    // distances only shrink, so earlier decisions stay valid and a round
    // visits only what the previous one left.
    let preempt: HashSet<&str> = options.preemptible.iter().map(String::as_str).collect();
    let (mut residue, mut prologues) = {
        let _s = om_obs::span("residue");
        let residue = Residue::collect(program);
        let prologues = prologue_candidates(program, &residue, &preempt);
        (residue, prologues)
    };
    for _round in 0..options.max_rounds {
        let snap = Snapshot::of_residue(program, &residue, options.sort_commons)?;
        each_round(program, &snap);
        let mut m = crate::obs::PassMeter::begin("calls", stats);
        m.arg("sites", residue.live_sites.len());
        m.arg("prologues", prologues.len());
        let dropped = drop_prologues(program, &snap, &residue, &mut prologues);
        let mut changed = !dropped.is_empty();
        changed |= convert_calls(
            program,
            &snap,
            &mut residue,
            &dropped,
            Removal::Delete,
            stats,
            &preempt,
            options.fault.as_ref(),
        );
        m.end(stats);
        let mut m = crate::obs::PassMeter::begin("convert", stats);
        m.arg("loads", residue.live_loads.len());
        changed |= transform_address_loads(
            program,
            &snap,
            &mut residue,
            Removal::Delete,
            stats,
            &preempt,
            options.fault.as_ref(),
        );
        m.end(stats);
        om_obs::count("pipeline.full_rounds", 1);
        if !changed {
            break;
        }
    }
    Ok(residue)
}

/// Moves each procedure's entry GPDISP pair back to instructions 0 and 1,
/// when it is safe: nothing before the pair may read GP or write PV, and no
/// branch may target the skipped-over region (never the case for a prologue
/// region).
///
/// Which pairs a branch pins is what `translate_module` recorded
/// (`SymModule::pinned_pairs`), so `program` must hold its translations'
/// instructions in their order: OM-full restores before any other pass. A
/// deletion since keeps the record safe, as it retargets a branch forward,
/// never into the region.
pub fn restore_prologues(program: &mut SymProgram) {
    for m in &mut program.modules {
        let mut pinned = m.pinned_pairs.iter().peekable();
        for p in &mut m.procs {
            if pinned.next_if(|&&sym| sym == p.sym).is_some() {
                continue;
            }
            let Some((hi_idx, lo_idx)) = find_entry_pair(p) else { continue };
            if hi_idx == 0 && lo_idx == 1 {
                continue;
            }
            // Safety: instructions currently before the pair must not read
            // GP (they would now see the new value) or write PV/GP, and must
            // not be control transfers.
            let limit = hi_idx.max(lo_idx);
            let movable = p.insts[..limit].iter().enumerate().all(|(k, i)| {
                if k == hi_idx || k == lo_idx {
                    return true;
                }
                let e = Effects::of(&i.inst);
                !e.reads_int(Reg::GP)
                    && !e.writes_int(Reg::GP)
                    && !e.writes_int(Reg::PV)
                    && !e.control
            });
            if !movable {
                continue;
            }
            // The pair goes to the front and the region after it, in order;
            // nothing past the pair moves.
            let (hi, lo) = (p.insts[hi_idx], p.insts[lo_idx]);
            let mut to = limit + 1;
            for k in (0..=limit).rev().filter(|&k| k != hi_idx && k != lo_idx) {
                to -= 1;
                p.insts[to] = p.insts[k];
            }
            p.insts[0] = hi;
            p.insts[1] = lo;
        }
    }
}

/// The procedures whose prologue GP setup OM-full may ever drop, as dense
/// indices of `residue`: those with an entry GPDISP pair whose address is
/// not taken and whose symbol no dynamic link can preempt.
fn prologue_candidates(
    program: &SymProgram,
    residue: &Residue,
    preempt: &HashSet<&str>,
) -> Vec<usize> {
    (0..residue.taken.len())
        .filter(|&proc| {
            let (mi, pi) = residue.coords(proc);
            let m = &program.modules[mi];
            // A preemptible procedure may be entered by callers OM cannot
            // see (or replace a definition elsewhere): keep its prologue.
            residue.entry_pair[proc]
                && !residue.taken[proc]
                && !preempt.contains(m.proc_name(&m.procs[pi]))
        })
        .collect()
}

/// Decides which `candidates` lose their prologue GP setup this round: the
/// entry pair is the first two instructions, the procedure does not read the
/// incoming PV elsewhere, and every site that names it (under `snap`) is a
/// same-GP call within BSR reach that does not skip the prologue. Returns
/// them sorted; the call pass deletes them. A candidate leaves the list when
/// it is dropped, or when a prologue-skipping BSR pins its prologue in place
/// for good.
fn drop_prologues(
    program: &SymProgram,
    snap: &Snapshot,
    residue: &Residue,
    candidates: &mut Vec<usize>,
) -> Vec<usize> {
    let mut dropped = Vec::new();
    candidates.retain(|&proc| {
        let callers = residue.callers(proc);
        let skips = |&si: &u32| match residue.sites[si as usize].kind {
            CallKind::Bsr { addend, .. } => addend != Addend::ZERO,
            _ => false,
        };
        if callers.iter().any(skips) {
            return false;
        }
        let (mi, pi) = residue.coords(proc);
        let p = &program.modules[mi].procs[pi];
        let Some((hi, lo)) = prologue_pair_at_entry(p) else { return true };
        let entry = snap.addr(GlobalRef::Def { module: mi, sym: p.sym }).expect("a procedure");
        // A procedure with no callers at all (dead) also qualifies.
        let all_ok = callers.iter().all(|&si| {
            let site_mi = residue.coords(residue.sites[si as usize].proc).0;
            snap.group(site_mi) == snap.group(mi)
                && field::branch_reaches(residue.site_addr(snap, si as usize), entry)
        });
        let drop = all_ok && !reads_pv_outside(p, &[hi, lo]);
        if drop {
            dropped.push(proc);
        }
        !drop
    });
    dropped
}

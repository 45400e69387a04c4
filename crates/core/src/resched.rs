//! Final rescheduling: per-basic-block list scheduling after all the
//! address-calculation optimizations, plus quadword alignment of
//! backward-branch targets (§4: "Rescheduling includes quadword-aligning
//! instructions that are the targets of backward branches, which is intended
//! to improve the behavior of the AXP's dual-issue and cache").
//!
//! The input was scheduled at compile time "in the presence of a large number
//! of address loads that OM later removed"; rescheduling lets the freed
//! latency slots be reused. Each block goes through
//! [`om_alpha::timing::list_schedule`], the same list scheduler the compiler
//! ran; what this pass adds is OM's block boundaries, the pinned entry
//! GPDISP pair and pinned branch targets. The paper found the payoff small —
//! our harness measures the same experiment.

use crate::fault::{FaultKind, FaultPlan};
use crate::stats::OmStats;
use crate::sym::{InstId, SInst, SMark, SymProc, SymProgram};
use om_alpha::timing::list_schedule;
use om_alpha::{Effects, Inst};
use std::collections::{HashMap, HashSet};

/// Reschedules every procedure and, when `align` is set, aligns
/// backward-branch targets (the paper itself ablated alignment on `ear`:
/// "when we scheduled it without alignment the performance was improved").
/// `fault` is an optional mutation-testing fault plan.
pub fn run_with(
    program: &mut SymProgram,
    stats: &mut OmStats,
    align: bool,
    fault: Option<&FaultPlan>,
) {
    for m in &mut program.modules {
        for p in &mut m.procs {
            schedule_proc(&mut p.insts);
            // Fault point: procedures with an adjacent truly-dependent pair
            // are the candidate sites for a dependence-violating swap.
            if let Some(k) = dependent_adjacent_pair(&p.insts) {
                if crate::fault::armed(fault, FaultKind::SchedSwap) {
                    p.insts.swap(k, k + 1);
                }
            }
        }
    }
    if align {
        align_backward_targets(program, stats);
    }
}

/// First position `k` where instruction `k+1` truly depends on `k` (reads
/// an integer register `k` writes), neither is a control transfer, and
/// `k+1` is not a branch target — the site the [`FaultKind::SchedSwap`]
/// mutation inverts.
fn dependent_adjacent_pair(insts: &[SInst]) -> Option<usize> {
    let targets: HashSet<InstId> = insts
        .iter()
        .filter_map(|i| match i.mark {
            SMark::BrLocal { target } => Some(target),
            _ => None,
        })
        .collect();
    insts.windows(2).position(|w| {
        let (a, b) = (Effects::of(&w[0].inst), Effects::of(&w[1].inst));
        !a.control
            && !b.control
            && a.int_defs & b.int_uses != 0
            && !targets.contains(&w[1].id)
            && !targets.contains(&w[0].id)
    })
}

/// Splits `insts` into basic blocks and list-schedules each block.
pub fn schedule_proc(insts: &mut Vec<SInst>) {
    // Block leaders: position 0, branch targets, and instructions after a
    // control transfer.
    let mut leaders: HashSet<usize> = HashSet::new();
    leaders.insert(0);
    let pos_of: HashMap<InstId, usize> =
        insts.iter().enumerate().map(|(k, i)| (i.id, k)).collect();
    for (k, i) in insts.iter().enumerate() {
        if i.inst.is_control() {
            leaders.insert(k + 1);
        }
        if let SMark::BrLocal { target } = i.mark {
            leaders.insert(pos_of[&target]);
        }
    }
    let mut starts: Vec<usize> = leaders.into_iter().filter(|&k| k < insts.len()).collect();
    starts.sort_unstable();

    // The entry GPDISP pair is pinned: OM-full restored it to the procedure
    // entry precisely so call sites can skip it (BSR to entry+8), and some
    // already do — rescheduling must not sink it again.
    let pinned = match (insts.first(), insts.get(1)) {
        (Some(first), Some(second)) => match first.mark {
            crate::sym::SMark::GpdispHi { lo, anchor: crate::sym::SAnchor::Entry }
                if second.id == lo =>
            {
                2
            }
            _ => 0,
        },
        _ => 0,
    };

    // Branch-target instructions must stay at their block heads: a branch
    // jumps to a specific instruction id, and anything the scheduler hoisted
    // above it would be skipped on the branch path.
    let targets: HashSet<InstId> = insts
        .iter()
        .filter_map(|i| match i.mark {
            SMark::BrLocal { target } => Some(target),
            _ => None,
        })
        .collect();

    let mut out: Vec<SInst> = insts[..pinned.min(insts.len())].to_vec();
    for (bi, &s) in starts.iter().enumerate() {
        let e = starts.get(bi + 1).copied().unwrap_or(insts.len());
        if e <= pinned {
            continue;
        }
        let mut s = s.max(pinned);
        // Pin the leader while it is a branch target.
        while s < e && targets.contains(&insts[s].id) {
            out.push(insts[s]);
            s += 1;
        }
        // Marks need no ordering edges of their own: a GPDISP pair keeps its
        // internal order through the GP dependence, and LITUSE consumers
        // follow their load through its destination register.
        let mut block: Vec<SInst> = insts[s..e].to_vec();
        list_schedule(&mut block, |i| &i.inst);
        out.extend(block);
    }
    *insts = out;
}

/// The distinct backward-branch targets of `p` (target position ≤ branch
/// position), in target code order. The index of a target in this list is
/// its *rank* — the key the profile format uses to match targets across
/// relinks (scheduling is deterministic and padding never adds targets, so
/// ranks are stable where instruction ids and addresses are not).
pub fn backward_target_ids(p: &SymProc) -> Vec<InstId> {
    let pos_of: HashMap<InstId, usize> =
        p.insts.iter().enumerate().map(|(k, i)| (i.id, k)).collect();
    let mut positions: Vec<usize> = p
        .insts
        .iter()
        .enumerate()
        .filter_map(|(k, i)| match i.mark {
            SMark::BrLocal { target } if pos_of[&target] <= k => Some(pos_of[&target]),
            _ => None,
        })
        .collect();
    positions.sort_unstable();
    positions.dedup();
    positions.into_iter().map(|k| p.insts[k].id).collect()
}

/// Inserts UNOPs so that every backward-branch target lands on an 8-byte
/// boundary in the final image (procedure start offsets are 16-aligned at
/// layout time, so intra-module offsets determine alignment).
fn align_backward_targets(program: &mut SymProgram, stats: &mut OmStats) {
    align_backward_targets_where(program, stats, |_, _, _| true);
}

/// [`align_backward_targets`] restricted to the targets `keep` selects by
/// `(module index, proc index, target rank)` — the profile-guided layout
/// pass aligns only *hot* targets through this hook.
pub fn align_backward_targets_where(
    program: &mut SymProgram,
    stats: &mut OmStats,
    mut keep: impl FnMut(usize, usize, usize) -> bool,
) {
    for (mi, m) in program.modules.iter_mut().enumerate() {
        // Offset of each proc start within the module, updated as UNOPs are
        // inserted (procedures are laid out back to back).
        let mut base = 0u64;
        for (pi, p) in m.procs.iter_mut().enumerate() {
            let rank_of: HashMap<InstId, usize> = backward_target_ids(p)
                .into_iter()
                .enumerate()
                .map(|(rank, id)| (id, rank))
                .collect();

            // Walk front to back, padding before each selected target until
            // its offset is quadword-aligned. Padding shifts later targets,
            // so process in position order.
            let mut k = 0;
            while k < p.insts.len() {
                let id = p.insts[k].id;
                let wanted = rank_of.get(&id).is_some_and(|&rank| keep(mi, pi, rank));
                if wanted && !(base + 4 * k as u64).is_multiple_of(8) {
                    let fresh = p.fresh_id();
                    p.insts.insert(k, SInst { id: fresh, inst: Inst::unop(), mark: SMark::None });
                    stats.unops_inserted += 1;
                    k += 1; // the target moved one slot later and is now aligned
                }
                k += 1;
            }
            base += 4 * p.insts.len() as u64;
        }
    }
}

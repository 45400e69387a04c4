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
//!
//! Every walk here is linear in the procedure: branch targets are found by
//! position through a table indexed by instruction id, which is dense
//! (`0..next_id`, DESIGN §4.4).

use crate::fault::{FaultKind, FaultPlan};
use crate::stats::OmStats;
use crate::sym::{InstId, SInst, SMark, SymProc, SymProgram};
use om_alpha::timing::ListScheduler;
use om_alpha::{Effects, Inst};

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
    let mut scratch = Scratch::default();
    for m in &mut program.modules {
        for p in &mut m.procs {
            scratch.schedule(&mut p.insts);
            // Fault point: procedures with an adjacent truly-dependent pair
            // are the candidate sites for a dependence-violating swap.
            if fault.is_some() {
                if let Some(k) = dependent_adjacent_pair(&p.insts, &mut scratch) {
                    if crate::fault::armed(fault, FaultKind::SchedSwap) {
                        p.insts.swap(k, k + 1);
                    }
                }
            }
        }
    }
    if align {
        align_backward_targets(program, stats);
    }
}

/// Per-position flags of a procedure (see [`Scratch::mark`]).
const LEADER: u8 = 1;
const TARGET: u8 = 2;
const BACKWARD_TARGET: u8 = 4;

/// Buffers reused across procedures: no walk allocates per procedure or
/// per block.
#[derive(Default)]
struct Scratch {
    /// Position of each instruction id, [`NO_POS`] where the id is gone.
    pos: Vec<u32>,
    /// [`LEADER`] / [`TARGET`] / [`BACKWARD_TARGET`] bits by position.
    flags: Vec<u8>,
    sched: ListScheduler,
    /// Positions alignment puts a UNOP in front of, ascending.
    pads: Vec<usize>,
    /// The buffer alignment rebuilds a procedure into.
    insts: Vec<SInst>,
}

const NO_POS: u32 = u32::MAX;

impl Scratch {
    /// Fills `flags` for `insts`: block leaders (position 0, the
    /// instruction after each control transfer, each branch target), branch
    /// targets, and targets of a branch at or after them.
    ///
    /// # Panics
    ///
    /// Panics on a branch to an id the procedure does not hold (a dangling
    /// symbolic reference: an optimizer bug, never malformed input).
    fn mark(&mut self, insts: &[SInst]) {
        let bound = insts.iter().map(|i| i.id as usize + 1).max().unwrap_or(0);
        self.pos.clear();
        self.pos.resize(bound, NO_POS);
        for (k, i) in insts.iter().enumerate() {
            self.pos[i.id as usize] = k as u32;
        }
        self.flags.clear();
        self.flags.resize(insts.len() + 1, 0);
        self.flags[0] |= LEADER;
        for (k, i) in insts.iter().enumerate() {
            if i.inst.is_control() {
                self.flags[k + 1] |= LEADER;
            }
            if let SMark::BrLocal { target } = i.mark {
                let t = self.pos.get(target as usize).copied().unwrap_or(NO_POS);
                assert!(t != NO_POS, "dangling branch target {target}");
                let t = t as usize;
                self.flags[t] |= LEADER | TARGET;
                if t <= k {
                    self.flags[t] |= BACKWARD_TARGET;
                }
            }
        }
    }

    /// Splits `insts` into basic blocks and list-schedules each block in
    /// place.
    fn schedule(&mut self, insts: &mut [SInst]) {
        self.mark(insts);
        // The entry GPDISP pair is pinned: OM-full restored it to the
        // procedure entry precisely so call sites can skip it (BSR to
        // entry+8), and some already do — rescheduling must not sink it
        // again.
        let pinned = match insts {
            [first, second, ..] => match first.mark {
                SMark::GpdispEntry { lo } if second.id == lo => 2,
                _ => 0,
            },
            _ => 0,
        };
        let n = insts.len();
        let mut s = 0;
        while s < n {
            let mut e = s + 1;
            while e < n && self.flags[e] & LEADER == 0 {
                e += 1;
            }
            // Branch-target instructions stay at their block heads: a
            // branch jumps to a specific instruction id, and anything the
            // scheduler hoisted above it would be skipped on the branch
            // path. Marks need no ordering edges of their own: a GPDISP pair
            // keeps its internal order through the GP dependence, and LITUSE
            // consumers follow their load through its destination register.
            let mut head = s.max(pinned);
            while head < e && self.flags[head] & TARGET != 0 {
                head += 1;
            }
            if head < e {
                self.sched.schedule(&mut insts[head..e], |i| &i.inst);
            }
            s = e;
        }
    }
}

/// Splits `insts` into basic blocks and list-schedules each block.
pub fn schedule_proc(insts: &mut [SInst]) {
    Scratch::default().schedule(insts);
}

/// First position `k` where instruction `k+1` truly depends on `k` (reads
/// an integer register `k` writes), neither is a control transfer, and
/// neither is a branch target — the site the [`FaultKind::SchedSwap`]
/// mutation inverts.
fn dependent_adjacent_pair(insts: &[SInst], scratch: &mut Scratch) -> Option<usize> {
    scratch.mark(insts);
    let flags = &scratch.flags;
    insts.windows(2).enumerate().position(|(k, w)| {
        let (a, b) = (Effects::of(&w[0].inst), Effects::of(&w[1].inst));
        !a.control
            && !b.control
            && a.int_defs & b.int_uses != 0
            && (flags[k] | flags[k + 1]) & TARGET == 0
    })
}

/// The distinct backward-branch targets of `p` (target position ≤ branch
/// position), in target code order. The index of a target in this list is
/// its *rank* — the key the profile format uses to match targets across
/// relinks (scheduling is deterministic and padding never adds targets, so
/// ranks are stable where instruction ids and addresses are not).
pub fn backward_target_ids(p: &SymProc) -> Vec<InstId> {
    let mut scratch = Scratch::default();
    scratch.mark(&p.insts);
    (p.insts.iter().zip(&scratch.flags))
        .filter(|(_, &f)| f & BACKWARD_TARGET != 0)
        .map(|(i, _)| i.id)
        .collect()
}

/// Inserts UNOPs so that every backward-branch target lands on an 8-byte
/// boundary in the final image (procedure start offsets are 16-aligned at
/// layout time, so intra-module offsets determine alignment).
fn align_backward_targets(program: &mut SymProgram, stats: &mut OmStats) {
    align_backward_targets_where(program, stats, |_, _, _| true);
}

/// `align_backward_targets` restricted to the targets `keep` selects by
/// `(module index, proc index, target rank)` — the profile-guided layout
/// pass aligns only *hot* targets through this hook.
pub fn align_backward_targets_where(
    program: &mut SymProgram,
    stats: &mut OmStats,
    mut keep: impl FnMut(usize, usize, usize) -> bool,
) {
    let mut scratch = Scratch::default();
    for (mi, m) in program.modules.iter_mut().enumerate() {
        // Offset of each proc start within the module, updated as UNOPs are
        // inserted (procedures are laid out back to back).
        let mut base = 0u64;
        for (pi, p) in m.procs.iter_mut().enumerate() {
            // Decide front to back which selected targets need a UNOP in
            // front to land quadword-aligned: padding shifts later targets.
            scratch.mark(&p.insts);
            scratch.pads.clear();
            let targets = (scratch.flags.iter().enumerate())
                .filter(|(_, &f)| f & BACKWARD_TARGET != 0)
                .map(|(k, _)| k);
            for (rank, k) in targets.enumerate() {
                let offset = base + 4 * (k + scratch.pads.len()) as u64;
                if keep(mi, pi, rank) && !offset.is_multiple_of(8) {
                    scratch.pads.push(k);
                }
            }
            // Then rebuild the procedure once.
            if !scratch.pads.is_empty() {
                let old = std::mem::replace(&mut p.insts, std::mem::take(&mut scratch.insts));
                let mut pads = scratch.pads.iter().peekable();
                for (k, &i) in old.iter().enumerate() {
                    if pads.next_if_eq(&&k).is_some() {
                        let fresh = p.fresh_id();
                        p.insts.push(SInst { id: fresh, inst: Inst::unop(), mark: SMark::None });
                    }
                    p.insts.push(i);
                }
                stats.unops_inserted += scratch.pads.len();
                scratch.insts = old;
                scratch.insts.clear();
            }
            base += 4 * p.insts.len() as u64;
        }
    }
}

//! Deliberate fault injection into the OM passes, for mutation-testing the
//! repo's safety nets (`omkill`, DESIGN.md §14).
//!
//! A [`FaultPlan`] names one *kind* of miscompile and one *site* (the n-th
//! opportunity the pass encounters, in deterministic pass order). Threading
//! it through [`OmOptions`] lets the mutation harness make the optimizer
//! itself emit wrong code mid-pass — a strictly harder class of fault than
//! post-hoc image corruption, because all the bookkeeping that emission and
//! relocation rely on is updated consistently with the lie.
//!
//! The plan is zero-cost when absent: every fault point is a single
//! `Option` check on a path that already branches.
//!
//! [`OmOptions`]: crate::pipeline::OmOptions

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The kinds of wrong code a fault plan can make the optimizer emit. Each
/// variant is armed at exactly one pass (listed below), so candidate-site
/// numbering is deterministic for a given program and option set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `simple::transform_address_loads`: nullify an address load but skew
    /// the rewritten uses' addend by +8 — every consumer addresses 8 bytes
    /// past the intended object. The emitted relocations carry the skewed
    /// addend *consistently*, so the static verifier recomputes the same
    /// wrong answer and passes: only differential execution can catch it.
    AddendSkew,
    /// `simple::transform_address_loads` (armed at OM-simple and OM-full
    /// alike): delete a load whose uses absorbed its displacement, but
    /// count it as nullified, whatever the level's `Removal` — the
    /// instruction accounting no longer balances.
    NullifyDelete,
    /// `simple::convert_calls` (armed at OM-simple and OM-full alike): at a
    /// conversion that removes the PV load *and* compensates by entering the
    /// callee at `entry+8` (skipping its GP-from-PV prologue), drop the
    /// compensation: branch to `entry+0`. The callee's GPDISP pair then
    /// rebuilds GP from whatever stale value PV happens to hold.
    PvLoadDrop,
    /// `simple::convert_calls` (armed at OM-simple and OM-full alike): emit a
    /// prologue-skipping `BSR target+8` for a callee whose first two
    /// instructions are real code (its GPDISP pair was deleted, or
    /// compile-time scheduling moved it), silently skipping them.
    BsrSkew,
    /// `resched::schedule_proc`: after scheduling, swap the first adjacent
    /// truly-dependent instruction pair of the procedure — the consumer now
    /// reads its operand before the producer writes it.
    SchedSwap,
    /// `pgo::run_with`: insert an alignment UNOP *before* the entry GPDISP
    /// pair of a procedure that prologue-skipping `BSR +8` callers enter at
    /// a fixed offset — those callers now land mid-pair.
    EntryPad,
    /// `pipeline::optimize_and_link_with`: claim one deletion that never
    /// happened in the transformation statistics.
    CountSkew,
}

impl FaultKind {
    /// Every kind, in a stable order (the harness iterates this).
    pub const ALL: [FaultKind; 7] = [
        FaultKind::AddendSkew,
        FaultKind::NullifyDelete,
        FaultKind::PvLoadDrop,
        FaultKind::BsrSkew,
        FaultKind::SchedSwap,
        FaultKind::EntryPad,
        FaultKind::CountSkew,
    ];

    /// Stable scorecard name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AddendSkew => "fault-addend-skew",
            FaultKind::NullifyDelete => "fault-nullify-delete",
            FaultKind::PvLoadDrop => "fault-pv-drop",
            FaultKind::BsrSkew => "fault-bsr-skew",
            FaultKind::SchedSwap => "fault-sched-swap",
            FaultKind::EntryPad => "fault-entry-pad",
            FaultKind::CountSkew => "fault-count-skew",
        }
    }
}

/// One planned fault: inject `kind` at its `site`-th candidate. The
/// candidate cursor spans the whole pipeline run (including fixpoint
/// re-runs of a pass), and the fault fires at most once.
///
/// Equality ignores the runtime firing state, so [`OmOptions`] stays
/// comparable.
///
/// [`OmOptions`]: crate::pipeline::OmOptions
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub kind: FaultKind,
    pub site: usize,
    cursor: Arc<AtomicUsize>,
    fired: Arc<AtomicBool>,
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.site == other.site
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// A fresh, un-fired plan. Plans are single-use: build a new one per
    /// pipeline run (clones share the firing state).
    pub fn new(kind: FaultKind, site: usize) -> FaultPlan {
        FaultPlan {
            kind,
            site,
            cursor: Arc::new(AtomicUsize::new(0)),
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Reports a candidate site for `kind`; true exactly when this candidate
    /// is the planned one. Call this at every opportunity the pass sees —
    /// the internal cursor is what makes site numbering deterministic.
    pub fn arm(&self, kind: FaultKind) -> bool {
        if self.kind != kind {
            return false;
        }
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        if at == self.site {
            self.fired.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// True once the planned site has been reached. A plan that never fires
    /// means the site index exceeds the program's candidate count — the
    /// harness treats such mutants as inert and excludes them.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// How many candidate sites for this plan's kind were encountered.
    pub fn candidates_seen(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }
}

/// `plan.arm(kind)` on an optional plan — the one-liner every fault point
/// uses so the `None` path stays a single branch.
pub fn armed(plan: Option<&FaultPlan>, kind: FaultKind) -> bool {
    plan.is_some_and(|p| p.arm(kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_the_planned_site() {
        let p = FaultPlan::new(FaultKind::AddendSkew, 2);
        let hits: Vec<bool> = (0..5).map(|_| p.arm(FaultKind::AddendSkew)).collect();
        assert_eq!(hits, vec![false, false, true, false, false]);
        assert!(p.fired());
        assert_eq!(p.candidates_seen(), 5);
    }

    #[test]
    fn other_kinds_do_not_advance_the_cursor() {
        let p = FaultPlan::new(FaultKind::BsrSkew, 0);
        assert!(!p.arm(FaultKind::AddendSkew));
        assert!(!p.fired());
        assert_eq!(p.candidates_seen(), 0);
        assert!(p.arm(FaultKind::BsrSkew));
        assert!(p.fired());
    }

    #[test]
    fn equality_ignores_firing_state() {
        let a = FaultPlan::new(FaultKind::CountSkew, 1);
        let b = FaultPlan::new(FaultKind::CountSkew, 1);
        assert!(!a.arm(FaultKind::CountSkew));
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::new(FaultKind::CountSkew, 2));
    }
}

//! Execution profiling: a cheap [`Observer`] that attributes retired
//! instructions, call edges, and backward-branch-target executions to the
//! procedures of a linked image, and converts the counts into an
//! [`om_core::Profile`] for profile-guided relinking.
//!
//! Attribution works from the image's symbol map: every text symbol opens a
//! procedure range (local procedures are already qualified `"name.module"`
//! by the linker, so range names equal profile keys). Transfer targets are
//! not part of [`Retired`] — the observer instead remembers the previously
//! retired instruction, and when it was a taken transfer, the *current* pc
//! is the target: a call edge if the transfer was a BSR/JSR, a
//! backward-branch-target execution if it was an intra-procedure branch that
//! jumped backwards.
//!
//! Backward-branch targets are identified *statically* at construction by
//! scanning each procedure's code (every `Br`-format instruction except BSR
//! whose target lies at or before it, within the same procedure), so the
//! emitted profile knows the full target list — including targets that
//! never ran — and can number them by rank in code order, the key the
//! profile format uses across relinks.
//!
//! The range map and counter store are split out (`ProcMap`,
//! `ProfCounts`) so the block engine's block-granularity profiler
//! (`om_sim::block`) shares the exact attribution rules and produces
//! byte-identical profiles.

use crate::exec::{Observer, Retired};
use om_alpha::{decode, BrOp, Inst, JmpOp};
use om_core::profile::{CallEdge, ProcProfile, Profile};
use om_linker::Image;
use std::collections::HashMap;

/// Procedure ranges of a linked image, sorted by start address, plus each
/// range's statically discovered backward-branch targets (sorted by
/// address, so rank lookup is a binary search instead of a `HashMap` probe).
pub(crate) struct ProcMap {
    pub(crate) starts: Vec<u64>,
    pub(crate) ends: Vec<u64>,
    pub(crate) names: Vec<String>,
    /// Per procedure: backward-branch targets in code order (index = rank).
    pub(crate) targets: Vec<Vec<u64>>,
}

impl ProcMap {
    /// Extracts procedure ranges from the symbol map and statically scans
    /// each for backward-branch targets.
    pub(crate) fn new(image: &Image) -> ProcMap {
        let text = &image.segments[0];
        let text_end = text.base + text.bytes.len() as u64;
        let mut syms: Vec<(u64, String)> = image
            .symbols
            .iter()
            .filter(|&(_, &addr)| addr >= text.base && addr < text_end)
            .map(|(name, &addr)| (addr, name.clone()))
            .collect();
        // Deterministic ranges: sort by (address, name), one range per
        // address (aliased symbols collapse to the first name).
        syms.sort();
        syms.dedup_by_key(|(addr, _)| *addr);
        if syms.first().map(|&(a, _)| a) != Some(text.base) {
            // Code below the first symbol (or a symbol-less image) still
            // needs an owner.
            syms.insert(0, (text.base, "__text".to_string()));
        }

        let starts: Vec<u64> = syms.iter().map(|&(a, _)| a).collect();
        let names: Vec<String> = syms.into_iter().map(|(_, n)| n).collect();
        let n = starts.len();
        let ends: Vec<u64> =
            (0..n).map(|i| starts.get(i + 1).copied().unwrap_or(text_end)).collect();

        let targets = (0..n)
            .map(|i| scan_backward_targets(text.base, &text.bytes, starts[i], ends[i]))
            .collect();

        ProcMap { starts, ends, names, targets }
    }

    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    /// Locates the range covering `pc`, preferring the cached index `cur`
    /// (the current fetch stream) before binary-searching.
    pub(crate) fn locate_from(&self, cur: usize, pc: u64) -> usize {
        if pc >= self.starts[cur] && pc < self.ends[cur] {
            return cur;
        }
        self.starts.partition_point(|&s| s <= pc).saturating_sub(1)
    }

    /// Rank of `pc` among range `idx`'s backward-branch targets.
    pub(crate) fn rank(&self, idx: usize, pc: u64) -> Option<usize> {
        self.targets[idx].binary_search(&pc).ok()
    }
}

/// The raw profile counters, attribution rules included — shared verbatim
/// by the per-instruction observer and the block-granularity profiler.
pub(crate) struct ProfCounts {
    /// Per procedure: execution count per backward-target rank.
    back_counts: Vec<Vec<u64>>,
    insts: Vec<u64>,
    calls: Vec<u64>,
    /// `(caller range, callee range) → count`.
    edges: HashMap<(usize, usize), u64>,
    total: u64,
}

impl ProfCounts {
    pub(crate) fn new(map: &ProcMap) -> ProfCounts {
        ProfCounts {
            back_counts: map.targets.iter().map(|t| vec![0u64; t.len()]).collect(),
            insts: vec![0; map.len()],
            calls: vec![0; map.len()],
            edges: HashMap::new(),
            total: 0,
        }
    }

    pub(crate) fn add_insts(&mut self, idx: usize, n: u64) {
        self.insts[idx] = self.insts[idx].saturating_add(n);
        self.total = self.total.saturating_add(n);
    }

    /// Attributes the arrival of a taken transfer `prev = (pc, inst, range)`
    /// at target `pc` whose range is `idx`: a call edge for BSR/JSR, a
    /// backward-target execution for an intra-procedure backward branch.
    pub(crate) fn arrive(
        &mut self,
        map: &ProcMap,
        prev: (u64, Inst, usize),
        pc: u64,
        idx: usize,
    ) {
        let (ppc, pinst, pidx) = prev;
        let is_call = matches!(pinst, Inst::Br { op: BrOp::Bsr, .. })
            || matches!(pinst, Inst::Jmp { op: JmpOp::Jsr, .. });
        if is_call {
            self.calls[idx] = self.calls[idx].saturating_add(1);
            *self.edges.entry((pidx, idx)).or_insert(0) += 1;
        } else if matches!(pinst, Inst::Br { .. }) && pidx == idx && pc <= ppc {
            if let Some(rank) = map.rank(idx, pc) {
                self.back_counts[idx][rank] = self.back_counts[idx][rank].saturating_add(1);
            }
        }
    }

    /// Converts the accumulated counts into a normalized [`Profile`].
    pub(crate) fn finish(self, map: &ProcMap) -> Profile {
        let procs = map
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| ProcProfile {
                name: name.clone(),
                calls: self.calls[i],
                insts: self.insts[i],
                back_targets: self.back_counts[i].clone(),
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|(&(from, to), &count)| CallEdge {
                caller: map.names[from].clone(),
                callee: map.names[to].clone(),
                count,
            })
            .collect();
        let mut profile = Profile { total_insts: self.total, procs, edges };
        profile.normalize();
        profile
    }
}

/// The profiling observer. Construct with [`ProfileObserver::new`], pass to
/// [`crate::Machine::run`], then call [`ProfileObserver::finish`].
pub struct ProfileObserver {
    map: ProcMap,
    counts: ProfCounts,
    /// Cached range index of the current fetch stream.
    cur: usize,
    /// The last retired instruction when it was a taken transfer:
    /// `(pc, inst, range index)`.
    prev_taken: Option<(u64, Inst, usize)>,
}

impl ProfileObserver {
    /// Builds the observer for `image`: extracts procedure ranges from the
    /// symbol map and statically scans each for backward-branch targets.
    pub fn new(image: &Image) -> ProfileObserver {
        let map = ProcMap::new(image);
        let counts = ProfCounts::new(&map);
        ProfileObserver { map, counts, cur: 0, prev_taken: None }
    }

    /// Converts the accumulated counts into a normalized [`Profile`].
    pub fn finish(self) -> Profile {
        self.counts.finish(&self.map)
    }
}

/// Statically finds the backward-branch targets of the code in
/// `[start, end)`: targets of non-BSR `Br`-format instructions that lie at
/// or before the branch, within the same range. Returned sorted (code
/// order), deduplicated — index = rank.
fn scan_backward_targets(text_base: u64, bytes: &[u8], start: u64, end: u64) -> Vec<u64> {
    let mut targets = Vec::new();
    let lo = (start - text_base) as usize;
    let hi = (end - text_base) as usize;
    for (k, w) in bytes[lo..hi].chunks_exact(4).enumerate() {
        let pc = start + 4 * k as u64;
        let word = u32::from_le_bytes(w.try_into().expect("4-byte chunk"));
        if let Ok(Inst::Br { op, disp, .. }) = decode(word) {
            if op != BrOp::Bsr {
                let target = pc.wrapping_add(4).wrapping_add((disp as i64 * 4) as u64);
                if target <= pc && target >= start {
                    targets.push(target);
                }
            }
        }
    }
    targets.sort_unstable();
    targets.dedup();
    targets
}

impl Observer for ProfileObserver {
    fn retire(&mut self, r: &Retired) {
        let idx = self.map.locate_from(self.cur, r.pc);
        self.cur = idx;
        self.counts.add_insts(idx, 1);

        if let Some(prev) = self.prev_taken.take() {
            // The previous instruction transferred control here: r.pc is the
            // target the Retired record itself cannot carry.
            self.counts.arrive(&self.map, prev, r.pc, idx);
        }
        if r.taken {
            self.prev_taken = Some((r.pc, r.inst, idx));
        }
    }
}

/// Fans one retirement stream out to two observers (e.g. timing + profile
/// in a single simulated run, as `asim --timing --profile` does).
pub struct Tee<'a> {
    pub a: &'a mut dyn Observer,
    pub b: &'a mut dyn Observer,
}

impl Observer for Tee<'_> {
    fn retire(&mut self, r: &Retired) {
        self.a.retire(r);
        self.b.retire(r);
    }
}

//! Basic-block cached execution with fused block timing — the simulator's
//! fast path.
//!
//! The reference interpreter ([`crate::Machine::run`]) pays a fetch, a
//! decode-dispatch, and a virtual `Observer::retire` per instruction, and
//! the timing observer re-derives register effects and re-evaluates the
//! pairing rule every retire. This module removes all of that from steady
//! state: on first entry to a pc, the text is partitioned into a [`Block`]
//! (instructions up to and including the next control transfer) carrying
//!
//! * a compact micro-op trace — pre-derived [`Effects`] masks, latencies,
//!   D-cache access kinds, nop/load flags — for architectural execution, and
//! * a precomputed *static schedule* — dual-issue pairing, quadword
//!   alignment, latencies by static dependence distance, I-cache line runs —
//!   fused into a handful of offsets.
//!
//! Per dispatch the engine executes the whole block architecturally
//! (recording effective addresses), then settles timing in one of two ways:
//!
//! * **fused fast path**: if no cross-block pairing is possible at entry,
//!   every live-in register is quiescent, every fetched I-cache line hits,
//!   and every load hits the D-cache (stores may miss: they neither
//!   allocate nor add latency), the static schedule is provably the real
//!   schedule shifted by the entry cycle, so the block commits with a few
//!   counter additions;
//! * **per-uop slow path**: otherwise the exact issue recurrence of
//!   [`crate::Pipeline`] runs over the precomputed micro-ops (still several
//!   times cheaper than the observer: no effect derivation, no 32-register
//!   scans, no virtual dispatch).
//!
//! Only the dynamic residue — taken-branch bubbles, I-cache line
//! transitions, cross-block load-use stalls — is ever computed at run time,
//! and the result is **byte-identical** to the reference model: the
//! equivalence battery (`tests/block_equiv.rs`) and the omfuzz differential
//! oracle pin cycle counts, checksums, and profile JSON against the
//! interpreter.
//!
//! Profiling and coverage ride the same dispatch loop at block granularity:
//! a block resolves once to per-procedure count segments
//! ([`BlockProfiler`]) or to a block-id bitmap expanded to pcs at report
//! time (coverage), so neither pays a per-instruction range lookup.

use crate::exec::{ExecError, Machine, RunResult};
use crate::profile::{ProcMap, ProfCounts};
use crate::timing::{Cache, TimingStats};
use om_alpha::timing::{can_dual_issue, latency};
use om_alpha::{Effects, Inst, MemOp, PalOp, Reg};
use om_core::profile::Profile;
use om_linker::Image;
use std::collections::HashSet;

/// Hard cap on block length. Any contiguous region no larger than the
/// I-cache maps to distinct sets, so a block never conflicts with itself;
/// 256 instructions (1KB) is far below that bound and keeps first-touch
/// decode cost flat.
const MAX_BLOCK: usize = 256;

/// One predecoded instruction: everything the timing recurrence needs,
/// derived once at block-build time.
#[derive(Clone, Copy)]
struct Uop {
    inst: Inst,
    eff: Effects,
    /// Base result latency in cycles.
    lat: u64,
    /// `Some(is_store)` when the instruction performs a D-cache access
    /// (matches exactly when the interpreter reports an effective address).
    mem: Option<bool>,
    is_nop: bool,
    /// Counts toward [`TimingStats::loads`] (load opcodes except LDA/LDAH).
    is_load: bool,
    /// Opens a new I-cache line within the block (always true for uop 0).
    line_first: bool,
    /// Static dual-issue legality with the in-block predecessor: contiguous
    /// pcs, predecessor on a quadword boundary, compatible pipes.
    pair_static: bool,
}

/// The fused static schedule of a block: the timing recurrence evaluated
/// once at entry cycle 0 with quiescent registers, no stalls, and no entry
/// pairing. Under the fast-path preconditions the real schedule is exactly
/// this one shifted by the entry cycle.
struct Sched {
    /// Registers read before written in the block.
    live_int: u32,
    live_fp: u32,
    /// Distinct I-cache lines fetched, in order, with access counts.
    lines: Vec<(u64, u32)>,
    dual: u64,
    nops: u64,
    loads: u64,
    /// Issue-cycle offset of the final instruction.
    term_issue: u64,
    /// Cycle offset after the block falls through.
    exit_ft: u64,
    /// Cycle offset after a taken terminator (`term_issue` + bubble).
    exit_taken: u64,
    /// Final result-availability offsets: `(is_fp, reg, offset)`.
    defs: Vec<(bool, u8, u64)>,
}

/// A decoded basic block: micro-op trace plus fused static timing.
struct Block {
    start: u64,
    uops: Vec<Uop>,
    sched: Sched,
}

impl Block {
    fn len(&self) -> usize {
        self.uops.len()
    }

    fn pc_of(&self, i: usize) -> u64 {
        self.start + 4 * i as u64
    }
}

/// Evaluates the issue recurrence statically (entry cycle 0, all registers
/// ready, perfect caches, `last = None`).
fn schedule(start: u64, uops: &[Uop], line_shift: u32, bubble: u64) -> Sched {
    let mut int_ready = [0u64; 32];
    let mut fp_ready = [0u64; 32];
    let mut written_int: u32 = 0;
    let mut written_fp: u32 = 0;
    let mut live_int: u32 = 0;
    let mut live_fp: u32 = 0;
    let mut lines: Vec<(u64, u32)> = Vec::new();
    let mut cycle = 0u64;
    let mut last_issue: Option<u64> = None;
    let mut dual = 0u64;
    let mut nops = 0u64;
    let mut loads = 0u64;
    let mut term_issue = 0u64;

    for (i, u) in uops.iter().enumerate() {
        let pc = start + 4 * i as u64;
        let line = pc >> line_shift;
        match lines.last_mut() {
            Some(l) if l.0 == line => l.1 += 1,
            _ => lines.push((line, 1)),
        }
        if u.is_nop {
            nops += 1;
        }
        if u.is_load {
            loads += 1;
        }
        live_int |= u.eff.int_uses & !written_int;
        live_fp |= u.eff.fp_uses & !written_fp;

        let mut ready = 0u64;
        let mut m = u.eff.int_uses;
        while m != 0 {
            ready = ready.max(int_ready[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        let mut m = u.eff.fp_uses;
        while m != 0 {
            ready = ready.max(fp_ready[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        let mut issue = cycle.max(ready);
        if let Some(lc) = last_issue {
            if u.pair_static && issue <= lc {
                issue = lc;
                dual += 1;
            } else if issue == cycle {
                issue = cycle + 1;
            }
        }
        let avail = issue + u.lat;
        let mut m = u.eff.int_defs;
        while m != 0 {
            int_ready[m.trailing_zeros() as usize] = avail;
            m &= m - 1;
        }
        written_int |= u.eff.int_defs;
        let mut m = u.eff.fp_defs;
        while m != 0 {
            fp_ready[m.trailing_zeros() as usize] = avail;
            m &= m - 1;
        }
        written_fp |= u.eff.fp_defs;
        cycle = issue.max(cycle);
        last_issue = Some(issue);
        term_issue = issue;
    }

    let mut defs = Vec::new();
    let mut m = written_int;
    while m != 0 {
        let r = m.trailing_zeros();
        defs.push((false, r as u8, int_ready[r as usize]));
        m &= m - 1;
    }
    let mut m = written_fp;
    while m != 0 {
        let r = m.trailing_zeros();
        defs.push((true, r as u8, fp_ready[r as usize]));
        m &= m - 1;
    }

    Sched {
        live_int,
        live_fp,
        lines,
        dual,
        nops,
        loads,
        term_issue,
        exit_ft: cycle,
        exit_taken: term_issue + bubble,
        defs,
    }
}

/// Lazily built pc→block index over an image's text.
struct BlockCache {
    /// Text word index → block id (`u32::MAX` = not yet built).
    map: Vec<u32>,
    blocks: Vec<Block>,
    line_shift: u32,
    bubble: u64,
    /// Total micro-ops across all resident blocks (occupancy reporting).
    uops_total: u64,
    /// Wall time spent decoding blocks, accumulated only while a trace is
    /// installed (report-only; split out of dispatch time by `run_blocks`).
    decode_ns: u64,
}

impl BlockCache {
    fn new(m: &Machine, line_shift: u32, bubble: u64) -> BlockCache {
        BlockCache {
            map: vec![u32::MAX; m.text.len()],
            blocks: Vec::new(),
            line_shift,
            bubble,
            uops_total: 0,
            decode_ns: 0,
        }
    }

    /// Resolves `pc` to a block id, building the block on first entry.
    /// Mirrors `Machine::fetch`'s error cases exactly.
    fn lookup(&mut self, m: &Machine, pc: u64) -> Result<u32, ExecError> {
        if pc < m.text_base || !pc.is_multiple_of(4) {
            return Err(ExecError::BadPc { pc });
        }
        let idx = ((pc - m.text_base) / 4) as usize;
        match self.map.get(idx) {
            Some(&id) if id != u32::MAX => Ok(id),
            Some(_) => self.build(m, pc, idx),
            None => Err(ExecError::BadPc { pc }),
        }
    }

    fn build(&mut self, m: &Machine, pc: u64, idx: usize) -> Result<u32, ExecError> {
        let t0 = om_obs::enabled().then(std::time::Instant::now);
        let r = self.build_inner(m, pc, idx);
        if let Some(t0) = t0 {
            self.decode_ns += t0.elapsed().as_nanos() as u64;
        }
        r
    }

    fn build_inner(&mut self, m: &Machine, pc: u64, idx: usize) -> Result<u32, ExecError> {
        let mut uops: Vec<Uop> = Vec::new();
        for k in idx..m.text.len() {
            if uops.len() == MAX_BLOCK {
                break;
            }
            let inst = match &m.text[k] {
                Ok(inst) => *inst,
                // Undecodable padding: end the block before it, so the next
                // dispatch faults exactly like the reference fetch.
                Err(_) => break,
            };
            let upc = pc + 4 * uops.len() as u64;
            let mem = match inst {
                Inst::Mem { op, ra, .. } => match op {
                    MemOp::Ldl | MemOp::Ldq | MemOp::Ldt => Some(false),
                    MemOp::LdqU => (!ra.is_zero()).then_some(false),
                    MemOp::Stl | MemOp::Stq | MemOp::Stt => Some(true),
                    MemOp::Lda | MemOp::Ldah => None,
                },
                _ => None,
            };
            let is_load = matches!(inst, Inst::Mem { op, .. }
                if op.is_load() && !matches!(op, MemOp::Lda | MemOp::Ldah));
            let pair_static = match uops.last() {
                Some(prev) => (upc - 4) % 8 == 0 && can_dual_issue(&prev.inst, &inst),
                None => false,
            };
            let line_first =
                uops.is_empty() || (upc >> self.line_shift) != ((upc - 4) >> self.line_shift);
            uops.push(Uop {
                inst,
                eff: Effects::of(&inst),
                lat: latency(&inst) as u64,
                mem,
                is_nop: inst.is_nop(),
                is_load,
                line_first,
                pair_static,
            });
            if matches!(inst, Inst::Br { .. } | Inst::Jmp { .. } | Inst::Pal { op: PalOp::Halt })
            {
                break;
            }
        }
        if uops.is_empty() {
            return match &m.text[idx] {
                Err(word) => Err(ExecError::BadInstruction { pc, word: *word }),
                Ok(_) => unreachable!("non-empty block for a decodable word"),
            };
        }
        let sched = schedule(pc, &uops, self.line_shift, self.bubble);
        let id = u32::try_from(self.blocks.len()).expect("block count fits u32");
        self.uops_total += uops.len() as u64;
        self.blocks.push(Block { start: pc, uops, sched });
        self.map[idx] = id;
        Ok(id)
    }
}

/// Per-block sink driven by the dispatch loop: timing, profiling and
/// coverage all hang off this one hook.
trait BlockHook {
    /// `done` instructions of `b` retired (a prefix unless the block
    /// completed); `taken` reports whether a completed terminator
    /// transferred control. `eas` holds the recorded effective addresses of
    /// the executed prefix, in order.
    fn block(&mut self, b: &Block, id: u32, done: usize, eas: &[u64], taken: bool);
}

/// The block-granularity twin of [`crate::Pipeline`]: same caches, same
/// recurrence, but advanced a block at a time.
struct BlockTiming {
    icache: Cache,
    dcache: Cache,
    int_ready: [u64; 32],
    fp_ready: [u64; 32],
    cycle: u64,
    /// Last issued instruction (for cross-block pairing), with its pc.
    last: Option<(u64, Inst, u64)>,
    insts: u64,
    dual: u64,
    nops: u64,
    loads: u64,
    bubble: u64,
}

impl Default for BlockTiming {
    /// Must match [`crate::Pipeline::default`] parameter-for-parameter.
    fn default() -> Self {
        BlockTiming {
            icache: Cache::new(8 << 10, 32, 8),
            dcache: Cache::new(8 << 10, 32, 8),
            int_ready: [0; 32],
            fp_ready: [0; 32],
            cycle: 0,
            last: None,
            insts: 0,
            dual: 0,
            nops: 0,
            loads: 0,
            bubble: 1,
        }
    }
}

impl BlockTiming {
    fn stats(&self) -> TimingStats {
        TimingStats {
            cycles: self.cycle,
            insts: self.insts,
            dual_issued: self.dual,
            icache_misses: self.icache.misses,
            dcache_misses: self.dcache.misses,
            nops: self.nops,
            loads: self.loads,
        }
    }

    /// Commits a whole block from its static schedule if the dynamic state
    /// provably cannot perturb it. Mutates nothing on failure.
    fn try_fused(&mut self, b: &Block, eas: &[u64], taken: bool) -> bool {
        let s = &b.sched;
        // Entry pairing: a cross-boundary dual issue needs the per-uop path.
        let base = match self.last {
            None => self.cycle,
            Some((lpc, linst, _)) => {
                if b.start == lpc.wrapping_add(4)
                    && lpc % 8 == 0
                    && can_dual_issue(&linst, &b.uops[0].inst)
                {
                    return false;
                }
                // With quiescent live-ins and a fetch hit the first issue
                // would land on `cycle`, so in-order single issue bumps the
                // whole schedule one cycle.
                self.cycle + 1
            }
        };
        // Every live-in register must be ready at or before entry.
        let mut m = s.live_int;
        while m != 0 {
            if self.int_ready[m.trailing_zeros() as usize] > self.cycle {
                return false;
            }
            m &= m - 1;
        }
        let mut m = s.live_fp;
        while m != 0 {
            if self.fp_ready[m.trailing_zeros() as usize] > self.cycle {
                return false;
            }
            m &= m - 1;
        }
        // Every fetched line must hit (a miss both stalls and allocates).
        for &(line, _) in &s.lines {
            if !self.icache.peek_line(line) {
                return false;
            }
        }
        // Loads must hit; stores may miss (no allocation, no added latency),
        // so the probe sequence over frozen tags equals the real sequence.
        let mut d_hits = 0u64;
        let mut d_misses = 0u64;
        let mut ea_i = 0;
        for u in &b.uops {
            let Some(is_store) = u.mem else { continue };
            if self.dcache.peek(eas[ea_i]) {
                d_hits += 1;
            } else if is_store {
                d_misses += 1;
            } else {
                return false;
            }
            ea_i += 1;
        }

        // All preconditions hold: commit the fused schedule.
        self.icache.hits += b.len() as u64;
        self.dcache.hits += d_hits;
        self.dcache.misses += d_misses;
        self.insts += b.len() as u64;
        self.dual += s.dual;
        self.nops += s.nops;
        self.loads += s.loads;
        for &(fp, r, off) in &s.defs {
            if fp {
                self.fp_ready[r as usize] = base + off;
            } else {
                self.int_ready[r as usize] = base + off;
            }
        }
        if taken {
            self.cycle = base + s.exit_taken;
            self.last = None;
        } else {
            self.cycle = base + s.exit_ft;
            let t = b.len() - 1;
            self.last = Some((b.pc_of(t), b.uops[t].inst, base + s.term_issue));
        }
        true
    }

    /// The exact per-instruction recurrence of [`crate::Pipeline::retire`]
    /// over the precomputed micro-ops.
    fn slow(&mut self, b: &Block, done: usize, eas: &[u64], taken: bool) {
        let mut ea_i = 0;
        for i in 0..done {
            let u = &b.uops[i];
            let pc = b.pc_of(i);
            self.insts += 1;
            if u.is_nop {
                self.nops += 1;
            }
            if u.is_load {
                self.loads += 1;
            }
            let ifetch_stall = if u.line_first {
                self.icache.access(pc, true)
            } else {
                // Same line as the previous uop, which just allocated it.
                self.icache.hits += 1;
                0
            };

            let mut ready = 0u64;
            let mut m = u.eff.int_uses;
            while m != 0 {
                ready = ready.max(self.int_ready[m.trailing_zeros() as usize]);
                m &= m - 1;
            }
            let mut m = u.eff.fp_uses;
            while m != 0 {
                ready = ready.max(self.fp_ready[m.trailing_zeros() as usize]);
                m &= m - 1;
            }

            let mut issue = self.cycle.max(ready) + ifetch_stall;
            let mut paired = false;
            if let Some((lpc, linst, lcycle)) = self.last {
                let statically = if i == 0 {
                    pc == lpc.wrapping_add(4) && lpc % 8 == 0 && can_dual_issue(&linst, &u.inst)
                } else {
                    u.pair_static
                };
                if statically && issue <= lcycle && ifetch_stall == 0 {
                    issue = lcycle;
                    paired = true;
                    self.dual += 1;
                }
            }
            if !paired && issue == self.cycle && self.last.is_some() {
                issue = self.cycle + 1;
            }

            let mut lat = u.lat;
            if let Some(is_store) = u.mem {
                let stall = self.dcache.access(eas[ea_i], !is_store);
                ea_i += 1;
                if !is_store {
                    lat += stall;
                }
            }

            let avail = issue + lat;
            let mut m = u.eff.int_defs;
            while m != 0 {
                self.int_ready[m.trailing_zeros() as usize] = avail;
                m &= m - 1;
            }
            let mut m = u.eff.fp_defs;
            while m != 0 {
                self.fp_ready[m.trailing_zeros() as usize] = avail;
                m &= m - 1;
            }

            self.cycle = issue.max(self.cycle);
            if taken && i + 1 == done && done == b.len() {
                self.cycle = issue + self.bubble;
                self.last = None;
            } else {
                self.last = Some((pc, u.inst, issue));
            }
        }
    }
}

impl BlockHook for BlockTiming {
    fn block(&mut self, b: &Block, _id: u32, done: usize, eas: &[u64], taken: bool) {
        if done == b.len() && self.try_fused(b, eas, taken) {
            return;
        }
        self.slow(b, done, eas, taken);
    }
}

/// Per-block profile metadata: the block's instructions split into
/// `(procedure range, count)` segments, resolved once.
struct BlockMeta {
    segs: Vec<(u32, u32)>,
}

fn build_meta(map: &ProcMap, b: &Block) -> BlockMeta {
    let mut segs: Vec<(u32, u32)> = Vec::new();
    let mut cur = 0usize;
    for i in 0..b.len() {
        let j = map.locate_from(cur, b.pc_of(i));
        cur = j;
        match segs.last_mut() {
            Some(s) if s.0 == j as u32 => s.1 += 1,
            _ => segs.push((j as u32, 1)),
        }
    }
    BlockMeta { segs }
}

/// Block-granularity profiling: identical attribution rules to
/// [`crate::ProfileObserver`] (shared [`ProcMap`]/[`ProfCounts`]), but a
/// dispatched block touches one counter per covered procedure range instead
/// of one range lookup per instruction.
struct BlockProfiler {
    map: ProcMap,
    counts: ProfCounts,
    meta: Vec<Option<BlockMeta>>,
    /// The terminator of the last dispatched block when it was a taken
    /// transfer: `(pc, inst, range index)`.
    prev_taken: Option<(u64, Inst, usize)>,
}

impl BlockProfiler {
    fn new(image: &Image) -> BlockProfiler {
        let map = ProcMap::new(image);
        let counts = ProfCounts::new(&map);
        BlockProfiler { map, counts, meta: Vec::new(), prev_taken: None }
    }

    fn finish(self) -> Profile {
        self.counts.finish(&self.map)
    }
}

impl BlockHook for BlockProfiler {
    fn block(&mut self, b: &Block, id: u32, done: usize, _eas: &[u64], taken: bool) {
        if done == 0 {
            // Nothing retired (first instruction faulted): the reference
            // observer saw nothing either.
            return;
        }
        let id = id as usize;
        if self.meta.len() <= id {
            self.meta.resize_with(id + 1, || None);
        }
        if self.meta[id].is_none() {
            self.meta[id] = Some(build_meta(&self.map, b));
        }
        let meta = self.meta[id].as_ref().expect("meta just built");

        if let Some(prev) = self.prev_taken.take() {
            // The previous block's terminator transferred control here:
            // this block's start is the target.
            let first = meta.segs[0].0 as usize;
            self.counts.arrive(&self.map, prev, b.start, first);
        }

        let mut left = done as u32;
        for &(ri, c) in &meta.segs {
            if left == 0 {
                break;
            }
            let take = c.min(left);
            self.counts.add_insts(ri as usize, take as u64);
            left -= take;
        }

        if taken {
            let t = done - 1;
            let term_idx = meta.segs.last().expect("non-empty segs").0 as usize;
            self.prev_taken = Some((b.pc_of(t), b.uops[t].inst, term_idx));
        }
    }
}

/// Execution coverage at block granularity: the longest executed prefix per
/// block, expanded to a pc set at report time.
struct BlockCoverage {
    prefix: Vec<u32>,
}

impl BlockHook for BlockCoverage {
    fn block(&mut self, b: &Block, id: u32, done: usize, _eas: &[u64], _taken: bool) {
        let _ = b;
        let id = id as usize;
        if self.prefix.len() <= id {
            self.prefix.resize(id + 1, 0);
        }
        self.prefix[id] = self.prefix[id].max(done as u32);
    }
}

impl BlockCoverage {
    fn into_set(self, cache: &BlockCache) -> HashSet<u64> {
        let mut set = HashSet::new();
        for (id, &n) in self.prefix.iter().enumerate() {
            let b = &cache.blocks[id];
            for i in 0..n as usize {
                set.insert(b.pc_of(i));
            }
        }
        set
    }
}

/// Per-run dispatch tallies for observability (always cheap to keep; only
/// published to the installed trace, if any).
#[derive(Default)]
struct RunTally {
    dispatches: u64,
    insts: u64,
}

/// The dispatch loop: whole-block architectural execution with the
/// instruction budget checked once per block (an in-block remainder caps
/// the final partial block, so `StepLimit` still fires at the exact
/// instruction boundary the reference interpreter uses).
///
/// When a trace is installed this run becomes a `sim.run` span carrying
/// block-cache occupancy, with deterministic dispatch/decode counters and a
/// wall-clock decode vs dispatch time split.
fn run_blocks(
    m: &mut Machine,
    cache: &mut BlockCache,
    limit: u64,
    hooks: &mut [&mut dyn BlockHook],
) -> Result<RunResult, ExecError> {
    let mut tally = RunTally::default();
    if !om_obs::enabled() {
        return run_block_loop(m, cache, limit, hooks, &mut tally);
    }
    let mut span = om_obs::span("sim.run");
    let t0 = std::time::Instant::now();
    let blocks0 = cache.blocks.len() as u64;
    let uops0 = cache.uops_total;
    let decode0 = cache.decode_ns;
    let r = run_block_loop(m, cache, limit, hooks, &mut tally);
    let total_ns = t0.elapsed().as_nanos() as u64;
    let decode_ns = cache.decode_ns - decode0;
    // Deterministic facts of the execution (identical for identical images
    // and limits), safe to merge and gate.
    om_obs::count("sim.block_dispatches", tally.dispatches);
    om_obs::count("sim.insts_retired", tally.insts);
    om_obs::count("sim.blocks_decoded", cache.blocks.len() as u64 - blocks0);
    om_obs::count("sim.uops_decoded", cache.uops_total - uops0);
    // Wall-clock split: first-touch decode vs steady-state dispatch.
    om_obs::timer_ns("sim.decode", decode_ns);
    om_obs::timer_ns("sim.dispatch", total_ns.saturating_sub(decode_ns));
    // Block-cache occupancy at run end.
    span.arg("blocks_resident", cache.blocks.len() as u64);
    span.arg("uops_resident", cache.uops_total);
    span.arg("dispatches", tally.dispatches);
    r
}

fn run_block_loop(
    m: &mut Machine,
    cache: &mut BlockCache,
    limit: u64,
    hooks: &mut [&mut dyn BlockHook],
    tally: &mut RunTally,
) -> Result<RunResult, ExecError> {
    let mut insts: u64 = 0;
    let mut eas: Vec<u64> = Vec::with_capacity(MAX_BLOCK);
    loop {
        if insts >= limit {
            return Err(ExecError::StepLimit { limit });
        }
        let pc = m.pc;
        let id = cache.lookup(m, pc)?;
        let b = &cache.blocks[id as usize];
        let want = (b.len() as u64).min(limit - insts) as usize;

        eas.clear();
        let mut done = 0usize;
        let mut taken = false;
        let mut halted = false;
        let mut fault: Option<ExecError> = None;
        for i in 0..want {
            match m.exec_one(b.pc_of(i), b.uops[i].inst) {
                Ok(s) => {
                    done = i + 1;
                    if let Some(ea) = s.ea {
                        eas.push(ea);
                    }
                    if s.halted {
                        halted = true;
                        break;
                    }
                    taken = s.taken;
                    m.pc = s.next;
                }
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        insts += done as u64;
        tally.dispatches += 1;
        tally.insts += done as u64;
        let term_taken = taken && done == b.len();

        for h in hooks.iter_mut() {
            h.block(b, id, done, &eas, term_taken);
        }

        if halted {
            return Ok(RunResult {
                result: m.geti(Reg::V0) as i64,
                insts,
                output: std::mem::take(&mut m.output),
            });
        }
        if let Some(e) = fault {
            return Err(e);
        }
    }
}

fn engine(m: &Machine) -> (BlockCache, BlockTiming) {
    let t = BlockTiming::default();
    let cache = BlockCache::new(m, t.icache.line_shift(), t.bubble);
    (cache, t)
}

/// Runs `image` functionally on the block engine.
///
/// # Errors
///
/// See [`crate::Machine::run`]; the error cases are identical.
pub fn run_fast(image: &Image, limit: u64) -> Result<RunResult, ExecError> {
    let mut m = Machine::load(image)?;
    let (mut cache, _) = engine(&m);
    run_blocks(&mut m, &mut cache, limit, &mut [])
}

/// Runs `image` on the block engine with the default 21064-class timing
/// model. Produces byte-identical results and [`TimingStats`] to
/// [`crate::run_timed`].
///
/// # Errors
///
/// See [`crate::Machine::run`].
pub fn run_timed_fast(image: &Image, limit: u64) -> Result<(RunResult, TimingStats), ExecError> {
    let mut m = Machine::load(image)?;
    let (mut cache, mut timing) = engine(&m);
    let r = run_blocks(&mut m, &mut cache, limit, &mut [&mut timing])?;
    Ok((r, timing.stats()))
}

/// Runs `image` on the block engine collecting an execution [`Profile`]
/// byte-identical to [`crate::run_profiled`]'s.
///
/// # Errors
///
/// See [`crate::Machine::run`].
pub fn run_profiled_fast(image: &Image, limit: u64) -> Result<(RunResult, Profile), ExecError> {
    let mut m = Machine::load(image)?;
    let (mut cache, _) = engine(&m);
    let mut prof = BlockProfiler::new(image);
    let r = run_blocks(&mut m, &mut cache, limit, &mut [&mut prof])?;
    Ok((r, prof.finish()))
}

/// Runs `image` on the block engine collecting timing and a profile in one
/// pass (the `asim --timing --profile` combination).
///
/// # Errors
///
/// See [`crate::Machine::run`].
pub fn run_timed_profiled_fast(
    image: &Image,
    limit: u64,
) -> Result<(RunResult, TimingStats, Profile), ExecError> {
    let mut m = Machine::load(image)?;
    let (mut cache, mut timing) = engine(&m);
    let mut prof = BlockProfiler::new(image);
    let r = run_blocks(&mut m, &mut cache, limit, &mut [&mut timing, &mut prof])?;
    Ok((r, timing.stats(), prof.finish()))
}

/// Runs `image` on the block engine collecting the set of executed pcs
/// (the mutation harness's coverage oracle).
///
/// # Errors
///
/// See [`crate::Machine::run`].
pub fn run_covered_fast(
    image: &Image,
    limit: u64,
) -> Result<(RunResult, HashSet<u64>), ExecError> {
    let mut m = Machine::load(image)?;
    let (mut cache, _) = engine(&m);
    let mut cov = BlockCoverage { prefix: Vec::new() };
    let r = run_blocks(&mut m, &mut cache, limit, &mut [&mut cov])?;
    Ok((r, cov.into_set(&cache)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_codegen::{compile_source, crt0, CompileOpts};
    use om_linker::{link_modules, LayoutOpts};

    fn image(src: &str) -> Image {
        let obj = compile_source("m", src, &CompileOpts::o2()).expect("compile");
        let objects = [crt0::module().expect("crt0"), obj];
        let (image, _) = link_modules(&objects, &[], &LayoutOpts::default()).expect("link");
        image
    }

    const LOOP: &str = "int main() { int s = 0; int i = 0;
        for (i = 1; i <= 100; i = i + 1) { s = s + i; }
        return s; }";

    #[test]
    fn block_engine_matches_reference_functionally() {
        let img = image(LOOP);
        let a = crate::run_image(&img, 1_000_000).expect("reference");
        let b = run_fast(&img, 1_000_000).expect("block engine");
        assert_eq!(a, b);
    }

    #[test]
    fn block_engine_timing_matches_reference() {
        let img = image(LOOP);
        let (ra, ta) = crate::run_timed(&img, 1_000_000).expect("reference");
        let (rb, tb) = run_timed_fast(&img, 1_000_000).expect("block engine");
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
    }

    #[test]
    fn block_engine_profile_matches_reference() {
        let img = image(LOOP);
        let (_, pa) = crate::run_profiled(&img, 1_000_000).expect("reference");
        let (_, pb) = run_profiled_fast(&img, 1_000_000).expect("block engine");
        assert_eq!(pa.to_json(), pb.to_json());
    }

    #[test]
    fn step_limit_fires_at_exact_boundary() {
        let img = image(LOOP);
        let full = crate::run_image(&img, 1_000_000).expect("reference").insts;
        for limit in [1, 2, 3, full - 1] {
            let a = crate::run_image(&img, limit);
            let b = run_fast(&img, limit);
            assert_eq!(a, b, "limit {limit}");
            assert!(matches!(b, Err(ExecError::StepLimit { .. })));
        }
        // Limit exactly at the retirement count: the run completes.
        assert!(run_fast(&img, full).is_ok());
    }

    #[test]
    fn coverage_matches_per_instruction_reference() {
        let img = image(LOOP);
        struct Pcs(HashSet<u64>);
        impl crate::Observer for Pcs {
            fn retire(&mut self, r: &crate::Retired) {
                self.0.insert(r.pc);
            }
        }
        let mut obs = Pcs(HashSet::new());
        Machine::load(&img).unwrap().run(1_000_000, &mut obs).expect("reference");
        let (_, cov) = run_covered_fast(&img, 1_000_000).expect("block engine");
        assert_eq!(obs.0, cov);
    }

    #[test]
    fn tracing_observes_without_perturbing_the_run() {
        let img = image(LOOP);
        let (r_plain, t_plain) = run_timed_fast(&img, 1_000_000).expect("plain");
        let trace = om_obs::Trace::new();
        let (r_traced, t_traced) = {
            let _g = trace.install();
            run_timed_fast(&img, 1_000_000).expect("traced")
        };
        assert_eq!(r_plain, r_traced);
        assert_eq!(t_plain, t_traced);
        let counters = trace.counters();
        assert_eq!(counters.get("sim.insts_retired"), Some(&r_plain.insts));
        assert!(counters["sim.blocks_decoded"] > 0);
        assert!(counters["sim.uops_decoded"] >= counters["sim.blocks_decoded"]);
        assert!(counters["sim.block_dispatches"] >= counters["sim.blocks_decoded"]);
        let sink = trace.sink();
        let run_span = sink.spans.iter().find(|s| s.name == "sim.run").expect("sim.run span");
        assert!(run_span.args.iter().any(|(k, v)| k == "blocks_resident" && *v > 0));
        assert!(sink.timers_ns.contains_key("sim.decode"));
        assert!(sink.timers_ns.contains_key("sim.dispatch"));
    }
}

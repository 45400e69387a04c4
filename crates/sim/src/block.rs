//! Basic-block cached execution with fused block timing — the simulator's
//! fast path.
//!
//! The reference interpreter ([`crate::Machine::run`]) pays a fetch, a
//! lowering, and a virtual `Observer::retire` per instruction, and the
//! timing observer re-derives register effects and re-evaluates the
//! pairing rule every retire. This module removes all of that from steady
//! state: on first entry to a pc, the text is partitioned into a `Block`
//! (instructions up to and including the next control transfer) carrying
//!
//! * its instructions lowered once into records — pre-resolved operations
//!   for the executor the reference shares (`Machine::exec`) plus ready-file
//!   slots, latencies, issue classes and D-cache, nop and load flags for
//!   timing — and
//! * a precomputed *static schedule* — dual-issue pairing, quadword
//!   alignment, latencies by static dependence distance — fused into a
//!   handful of offsets and one ready offset per record.
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
//!   [`crate::Pipeline`] runs over the records (still several times cheaper
//!   than the observer: no effect derivation, no 32-register scans, no
//!   virtual dispatch).
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
//! (`BlockProfiler`) or to a block-id bitmap expanded to pcs at report
//! time (coverage), so neither pays a per-instruction range lookup.

use crate::exec::{End, ExecError, Machine, RunResult};
use crate::profile::{ProcMap, ProfCounts, Transfer};
use crate::timing::{Cache, TimingStats, BRANCH_BUBBLE};
use crate::uop::{lower, Uop, LINE_FIRST, NO_USE, PAIR, READY_SLOTS, SINK};
use om_alpha::timing::{can_dual_issue, issue_class};
use om_alpha::{decode, Inst, PalOp};
use om_core::profile::Profile;
use om_linker::Image;
use std::collections::HashSet;

/// Hard cap on block length. Any contiguous region no larger than the
/// I-cache maps to distinct sets, so a block never conflicts with itself;
/// 256 instructions (1KB) is far below that bound and keeps first-touch
/// decode cost flat.
const MAX_BLOCK: usize = 256;

/// The fused static schedule of a block: the timing recurrence evaluated
/// once at entry cycle 0 with quiescent registers, no stalls, and no entry
/// pairing. Under the fast-path preconditions the real schedule is exactly
/// this one shifted by the entry cycle. Each record's `avail` holds its
/// def's ready offset in this schedule.
struct Sched {
    /// Ready-file slots read before written in the block (bit = slot).
    live: u64,
    dual: u16,
    nops: u16,
    loads: u16,
    /// Issue-cycle offset of the final instruction.
    term_issue: u32,
    /// Cycle offset after the block falls through.
    exit_ft: u32,
}

/// A basic block: its lowered records (the block's one allocation) plus
/// the fused static timing.
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
/// ready, perfect caches, no predecessor), writing each record's `avail`.
fn schedule(uops: &mut [Uop]) -> Sched {
    let mut ready = [0u64; READY_SLOTS];
    let mut written: u64 = 0;
    let mut live: u64 = 0;
    let mut cycle = 0u64;
    let mut last_issue: Option<u64> = None;
    let (mut dual, mut nops, mut loads) = (0u16, 0u16, 0u16);

    for u in uops.iter_mut() {
        nops += u16::from(u.is_nop());
        loads += u16::from(u.is_load());
        let mut operands = 0u64;
        for &slot in &u.uses {
            if slot != NO_USE {
                live |= (1u64 << slot) & !written;
            }
            operands = operands.max(ready[slot as usize]);
        }
        let mut issue = cycle.max(operands);
        if let Some(lc) = last_issue {
            if u.flags & PAIR != 0 && issue <= lc {
                issue = lc;
                dual += 1;
            } else if issue == cycle {
                issue = cycle + 1;
            }
        }
        let avail = issue + u64::from(u.lat);
        ready[u.def as usize] = avail;
        if u.def != SINK {
            written |= 1u64 << u.def;
        }
        u.avail = u16::try_from(avail).expect("a 256-record schedule fits 16 bits");
        cycle = issue.max(cycle);
        last_issue = Some(issue);
    }

    let offset = |c: u64| u32::try_from(c).expect("a 256-record schedule fits 32 bits");
    Sched {
        live,
        dual,
        nops,
        loads,
        term_issue: offset(last_issue.unwrap_or(0)),
        exit_ft: offset(cycle),
    }
}

/// Lazily built pc→block index over an image's text.
struct BlockCache {
    /// Text word index → block id (`u32::MAX` = not yet built).
    map: Vec<u32>,
    blocks: Vec<Block>,
    line_shift: u32,
    /// Total micro-ops across all resident blocks (occupancy reporting).
    uops_total: u64,
    /// Wall time spent decoding blocks, accumulated only while a trace is
    /// installed (report-only; split out of dispatch time by `run_blocks`).
    decode_ns: u64,
    /// The block being built, decoded; reused from block to block.
    insts: Vec<Inst>,
}

impl BlockCache {
    fn new(m: &Machine, line_shift: u32) -> BlockCache {
        BlockCache {
            map: vec![u32::MAX; m.text.len()],
            blocks: Vec::new(),
            line_shift,
            uops_total: 0,
            decode_ns: 0,
            insts: Vec::new(),
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

    /// Builds the block at `pc`: the instructions up to and including the
    /// first control transfer (every branch, jump or HALT), ending before
    /// an undecodable word or at [`MAX_BLOCK`], lowered into one exactly
    /// sized allocation.
    fn build_inner(&mut self, m: &Machine, pc: u64, idx: usize) -> Result<u32, ExecError> {
        let text = &m.text[idx..];
        let insts = &mut self.insts;
        insts.clear();
        for &word in text.iter().take(MAX_BLOCK) {
            // Undecodable padding: end the block before it, so the next
            // dispatch faults exactly like the reference fetch.
            let Ok(inst) = decode(word) else { break };
            insts.push(inst);
            if inst.is_control() {
                break;
            }
        }
        if insts.is_empty() {
            return Err(ExecError::BadInstruction { pc, word: text[0] });
        }
        let n = insts.len();
        let mut uops: Vec<Uop> = Vec::with_capacity(n);
        let mut prev: Option<&Inst> = None;
        for (k, inst) in insts.iter().enumerate() {
            let upc = pc + 4 * k as u64;
            let mut u = lower(upc, inst);
            if k == 0 || (upc >> self.line_shift) != ((upc - 4) >> self.line_shift) {
                u.flags |= LINE_FIRST;
            }
            // Static dual-issue legality with the in-block predecessor:
            // contiguous pcs, predecessor on a quadword boundary, compatible
            // pipes.
            if prev.is_some_and(|p| (upc - 4).is_multiple_of(8) && can_dual_issue(p, inst)) {
                u.flags |= PAIR;
            }
            uops.push(u);
            prev = Some(inst);
        }
        let sched = schedule(&mut uops);
        let id = u32::try_from(self.blocks.len()).expect("block count fits u32");
        self.uops_total += n as u64;
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
    /// transferred control. `eas[i]` is record `i`'s effective address when
    /// it accessed memory.
    fn block(&mut self, b: &Block, id: u32, done: usize, eas: &[u64], taken: bool);
}

/// `can_dual_issue` tabulated by issue class, bit `4 * first + second`:
/// the rule reads only the two classes, so one instruction of each class
/// stands for all.
fn pair_table() -> u16 {
    let reps = [Inst::nop(), Inst::unop(), Inst::fnop(), Inst::Pal { op: PalOp::Halt }];
    let mut table = 0;
    for first in &reps {
        for second in &reps {
            if can_dual_issue(first, second) {
                table |= 1 << (4 * issue_class(first) as u16 + issue_class(second) as u16);
            }
        }
    }
    table
}

/// The block-granularity twin of [`crate::Pipeline`]: same caches, same
/// recurrence, but advanced a block at a time.
struct BlockTiming {
    icache: Cache,
    dcache: Cache,
    /// Cycle at which each ready-file slot's value is available.
    ready: [u64; READY_SLOTS],
    cycle: u64,
    /// Last issued instruction (for cross-block pairing): its pc, issue
    /// class and issue cycle.
    last: Option<(u64, u8, u64)>,
    /// [`pair_table`].
    pairs: u16,
    insts: u64,
    dual: u64,
    nops: u64,
    loads: u64,
}

impl Default for BlockTiming {
    fn default() -> Self {
        BlockTiming {
            icache: Cache::default(),
            dcache: Cache::default(),
            ready: [0; READY_SLOTS],
            cycle: 0,
            last: None,
            pairs: pair_table(),
            insts: 0,
            dual: 0,
            nops: 0,
            loads: 0,
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

    /// Whether an instruction of class `second` right after one of class
    /// `first` on a quadword boundary may dual-issue.
    fn pairs(&self, first: u8, second: u8) -> bool {
        self.pairs >> (4 * first + second) & 1 != 0
    }

    /// Commits a whole block from its static schedule if the dynamic state
    /// provably cannot perturb it. Mutates nothing on failure.
    fn try_fused(&mut self, b: &Block, eas: &[u64], taken: bool) -> bool {
        let s = &b.sched;
        // Entry pairing: a cross-boundary dual issue needs the per-uop path.
        let base = match self.last {
            None => self.cycle,
            Some((lpc, lclass, _)) => {
                if b.start == lpc.wrapping_add(4)
                    && lpc % 8 == 0
                    && self.pairs(lclass, b.uops[0].class())
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
        let mut m = s.live;
        while m != 0 {
            if self.ready[m.trailing_zeros() as usize] > self.cycle {
                return false;
            }
            m &= m - 1;
        }
        // Every fetched line must hit (a miss both stalls and allocates).
        // The block's lines are consecutive.
        let shift = self.icache.line_shift();
        for line in b.start >> shift..=b.pc_of(b.len() - 1) >> shift {
            if !self.icache.peek_line(line) {
                return false;
            }
        }
        // Loads must hit; stores may miss (no allocation, no added latency),
        // so the probe sequence over frozen tags equals the real sequence.
        let mut d_hits = 0u64;
        let mut d_misses = 0u64;
        for (u, &ea) in b.uops.iter().zip(eas) {
            if !u.is_mem() {
                continue;
            }
            if self.dcache.peek(ea) {
                d_hits += 1;
            } else if u.is_store() {
                d_misses += 1;
            } else {
                return false;
            }
        }

        // All preconditions hold: commit the fused schedule.
        self.icache.hits += b.len() as u64;
        self.dcache.hits += d_hits;
        self.dcache.misses += d_misses;
        self.insts += b.len() as u64;
        self.dual += u64::from(s.dual);
        self.nops += u64::from(s.nops);
        self.loads += u64::from(s.loads);
        // In program order, so each slot ends at its last writer's offset.
        for u in &b.uops {
            self.ready[u.def as usize] = base + u64::from(u.avail);
        }
        let term_issue = base + u64::from(s.term_issue);
        if taken {
            self.cycle = term_issue + BRANCH_BUBBLE;
            self.last = None;
        } else {
            self.cycle = base + u64::from(s.exit_ft);
            let t = b.len() - 1;
            self.last = Some((b.pc_of(t), b.uops[t].class(), term_issue));
        }
        true
    }

    /// The exact per-instruction recurrence of [`crate::Pipeline::retire`]
    /// over the lowered records.
    fn slow(&mut self, b: &Block, done: usize, eas: &[u64], taken: bool) {
        for (i, u) in b.uops[..done].iter().enumerate() {
            let pc = b.pc_of(i);
            self.insts += 1;
            self.nops += u64::from(u.is_nop());
            self.loads += u64::from(u.is_load());
            let ifetch_stall = if u.flags & LINE_FIRST != 0 {
                self.icache.access(pc, true)
            } else {
                // Same line as the previous uop, which just allocated it.
                self.icache.hits += 1;
                0
            };

            let ready = u.uses.iter().fold(0, |r, &slot| r.max(self.ready[slot as usize]));
            let mut issue = self.cycle.max(ready) + ifetch_stall;
            let mut paired = false;
            if let Some((lpc, lclass, lcycle)) = self.last {
                let statically = if i == 0 {
                    pc == lpc.wrapping_add(4) && lpc % 8 == 0 && self.pairs(lclass, u.class())
                } else {
                    u.flags & PAIR != 0
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

            let mut lat = u64::from(u.lat);
            if u.is_mem() {
                let stall = self.dcache.access(eas[i], !u.is_store());
                if !u.is_store() {
                    lat += stall;
                }
            }
            self.ready[u.def as usize] = issue + lat;

            self.cycle = issue.max(self.cycle);
            if taken && i + 1 == b.len() {
                self.cycle = issue + BRANCH_BUBBLE;
                self.last = None;
            } else {
                self.last = Some((pc, u.class(), issue));
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
    /// transfer: `(pc, kind, range index)`.
    prev_taken: Option<(u64, Transfer, usize)>,
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
            self.prev_taken = Some((b.pc_of(t), b.uops[t].transfer(), term_idx));
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
    let mut eas = [0u64; MAX_BLOCK];
    loop {
        if insts >= limit {
            return Err(ExecError::StepLimit { limit });
        }
        let id = cache.lookup(m, m.pc)?;
        let b = &cache.blocks[id as usize];
        let want = (b.len() as u64).min(limit - insts) as usize;
        let ran = m.exec(&b.uops[..want], &mut eas);
        insts += ran.done as u64;
        tally.dispatches += 1;
        tally.insts += ran.done as u64;
        let term_taken = ran.taken && ran.done == b.len();

        for h in hooks.iter_mut() {
            h.block(b, id, ran.done, &eas[..ran.done], term_taken);
        }

        match ran.end {
            End::Next => {}
            End::Halt => {
                return Ok(RunResult {
                    result: m.result(),
                    insts,
                    output: std::mem::take(&mut m.output),
                })
            }
            End::Fault(e) => return Err(e),
        }
    }
}

fn engine(m: &Machine) -> (BlockCache, BlockTiming) {
    let t = BlockTiming::default();
    let cache = BlockCache::new(m, t.icache.line_shift());
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

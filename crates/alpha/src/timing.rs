//! Latency and dual-issue classification for a 21064-class (EV4) pipeline.
//!
//! The paper's dynamic measurements were taken on a DECstation 3000 Model 400,
//! a dual-issue Alpha 21064. Two properties of that machine drive the paper's
//! results and are modeled here and in `om-sim`:
//!
//! * **load latency** — removing an address load saves its issue slot *and*
//!   the latency its consumers waited out (or lets the slot hide some other
//!   latency, which is why nullified no-ops are often free);
//! * **dual issue with alignment** — the 21064 can issue two instructions per
//!   cycle only when they sit in the same aligned quadword and fall into
//!   compatible pipes, which is why OM-full quadword-aligns the targets of
//!   backward branches.
//!
//! [`list_schedule`] is the one list scheduler built on these tables: the
//! compiler runs it per basic block at `-O2`, and OM's final rescheduling
//! pass runs it again over the optimized code.

use crate::effects::Effects;
use crate::inst::{Inst, MemOp};

/// Issue-pipe classification used by the pairing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueClass {
    /// Integer operate instructions (E-box).
    IntOp,
    /// Loads, stores, and load-address operations (A-box).
    Mem,
    /// Floating-point operates (F-box).
    FpOp,
    /// Branches, jumps, and PAL calls (B-box).
    Branch,
}

/// Returns the issue class of an instruction.
#[inline]
pub fn issue_class(inst: &Inst) -> IssueClass {
    match inst {
        Inst::Mem { .. } => IssueClass::Mem,
        Inst::Opr { .. } => IssueClass::IntOp,
        Inst::FOpr { .. } => IssueClass::FpOp,
        Inst::Br { .. } | Inst::Jmp { .. } | Inst::Pal { .. } => IssueClass::Branch,
    }
}

/// Result latency in cycles: the number of cycles after issue before a
/// dependent instruction can issue. 1 means back-to-back issue is fine.
/// Inline: the simulator calls it across the crate boundary on every block
/// it executes.
#[inline]
pub fn latency(inst: &Inst) -> u32 {
    match inst {
        Inst::Mem { op, .. } => match op {
            // LDA/LDAH execute in the integer pipeline: single cycle.
            MemOp::Lda | MemOp::Ldah => 1,
            // D-cache hit latency on the 21064.
            _ if op.is_load() => 3,
            _ => 1,
        },
        Inst::Opr { op, .. } => {
            if op.is_mul() {
                // 21064 integer multiply is not pipelined and very slow.
                21
            } else {
                1
            }
        }
        Inst::FOpr { op, .. } => match op {
            crate::inst::FOprOp::Divt => 31,
            _ => 6,
        },
        Inst::Br { .. } | Inst::Jmp { .. } | Inst::Pal { .. } => 1,
    }
}

/// Dual-issue pairing rule: may `first` and `second` (in program order, with
/// `first` at an 8-byte-aligned address) issue in the same cycle?
///
/// The model follows the EV4's practical constraints: the two instructions
/// must use different pipes, at most one may access memory, at most one may be
/// a branch, and the branch must be the second of the pair. Inline, with
/// [`issue_class`]: the simulator calls it across the crate boundary on
/// every block it executes.
#[inline]
pub fn can_dual_issue(first: &Inst, second: &Inst) -> bool {
    use IssueClass::*;
    match (issue_class(first), issue_class(second)) {
        (a, b) if a == b => false,
        (Branch, _) => false,
        (IntOp, Mem) | (Mem, IntOp) => true,
        (IntOp, FpOp) | (FpOp, IntOp) => true,
        (FpOp, Mem) | (Mem, FpOp) => true,
        (_, Branch) => true,
        _ => false,
    }
}

/// Latency-driven list scheduling of one basic block, in place. `inst`
/// projects the instruction out of each element, so the compiler's and OM's
/// instruction wrappers (with their marks) move as units.
///
/// The scheduler never reorders across a dependence
/// ([`Effects::depends_on`]: register hazards, memory conflicts, control).
/// Among ready instructions it picks the longest critical path, then the
/// larger fan-out, then one that dual-issues with the previous pick, then
/// source order. A block longer than [`WINDOW`] is scheduled in consecutive
/// windows of that many instructions. A pass over many blocks should keep
/// one [`ListScheduler`] instead, so the working buffers are allocated once.
pub fn list_schedule<T>(block: &mut [T], inst: impl Fn(&T) -> &Inst) {
    ListScheduler::default().schedule(block, inst);
}

/// The most instructions [`ListScheduler`] schedules as one: a longer block
/// is scheduled in consecutive windows of at most this many, each alone, so
/// the successor sets, which grow with the square of a window, stay at most
/// `WINDOW · ⌈WINDOW / 64⌉` words (128 KiB) and a block's time grows
/// linearly. It is more than 4× the longest block the compiler or OM
/// schedules in any workload here (DESIGN §4.3), so none of their schedules
/// is cut.
pub const WINDOW: usize = 1024;

/// Rows of [`ListScheduler`]'s sweep masks: per register, the later
/// instructions that read or write it, then the later memory readers,
/// memory writers, control transfers, and all later instructions.
const INT_USE: usize = 0;
const INT_DEF: usize = 32;
const FP_USE: usize = 64;
const FP_DEF: usize = 96;
const MEM_READ: usize = 128;
const MEM_WRITE: usize = 129;
const CONTROL: usize = 130;
const LATER: usize = 131;
const ROWS: usize = 132;

/// One 64-instruction word of every sweep mask.
type Masks = [u64; ROWS];

/// The set bits of `mask`, ascending.
#[inline]
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (b < 32).then_some(b)
    })
}

/// The later instructions (of one mask word `m`) that depend on an
/// instruction with effects `e`: [`Effects::depends_on`], read from the
/// earlier side. Inline, like the helpers below: [`ListScheduler::schedule`]
/// is generic, so it is compiled in the compiler's and OM's crates.
#[inline]
fn successors(e: &Effects, m: &Masks) -> u64 {
    if e.control {
        return m[LATER];
    }
    let mut s = m[CONTROL];
    for r in bits(e.int_defs) {
        s |= m[INT_USE + r] | m[INT_DEF + r]; // RAW, WAW
    }
    for r in bits(e.int_uses) {
        s |= m[INT_DEF + r]; // WAR
    }
    for r in bits(e.fp_defs) {
        s |= m[FP_USE + r] | m[FP_DEF + r];
    }
    for r in bits(e.fp_uses) {
        s |= m[FP_DEF + r];
    }
    if e.mem_read {
        s |= m[MEM_WRITE];
    }
    if e.mem_write {
        s |= m[MEM_READ] | m[MEM_WRITE];
    }
    s
}

/// Adds the instruction at `bit` of mask word `m`, with effects `e`.
#[inline]
fn add(e: &Effects, m: &mut Masks, bit: u64) {
    for r in bits(e.int_uses) {
        m[INT_USE + r] |= bit;
    }
    for r in bits(e.int_defs) {
        m[INT_DEF + r] |= bit;
    }
    for r in bits(e.fp_uses) {
        m[FP_USE + r] |= bit;
    }
    for r in bits(e.fp_defs) {
        m[FP_DEF + r] |= bit;
    }
    if e.mem_read {
        m[MEM_READ] |= bit;
    }
    if e.mem_write {
        m[MEM_WRITE] |= bit;
    }
    if e.control {
        m[CONTROL] |= bit;
    }
    m[LATER] |= bit;
}

/// [`can_dual_issue`] by issue class: bit `b` of `pairing()[a]` is set when
/// an instruction of class `a` pairs with a following one of class `b`.
fn pairing() -> &'static [u8; 4] {
    static PAIRS: std::sync::OnceLock<[u8; 4]> = std::sync::OnceLock::new();
    PAIRS.get_or_init(|| {
        // The rule reads issue classes alone: one instruction of each
        // class, in `IssueClass` order, stands for all of them.
        let reps = [Inst::nop(), Inst::unop(), Inst::fnop(), Inst::ret()];
        let mut pairs = [0u8; 4];
        for (a, first) in reps.iter().enumerate() {
            debug_assert_eq!(issue_class(first) as usize, a);
            for (b, second) in reps.iter().enumerate() {
                pairs[a] |= u8::from(can_dual_issue(first, second)) << b;
            }
        }
        pairs
    })
}

/// [`list_schedule`] with its working buffers kept between blocks.
///
/// The dependence graph is a bitset of successors per instruction, built in
/// one backward sweep from masks of the later instructions that use or
/// define each register, read or write memory, or transfer control. A
/// window of `n` instructions takes `⌈n / 64⌉` words per set, so every
/// window size runs the same code.
#[derive(Debug, Default)]
pub struct ListScheduler {
    /// Issue class of each instruction.
    class: Vec<u8>,
    /// Successors, `words` per instruction: bit `j` of row `i` is set when
    /// `j > i` must stay after `i`.
    succ: Vec<u64>,
    /// The sweep's masks, one [`Masks`] per word.
    masks: Vec<Masks>,
    /// Predecessors of each instruction not yet scheduled.
    preds: Vec<u32>,
    /// Critical-path length from each instruction to the block's end.
    prio: Vec<u32>,
    /// Each instruction's pick key, `prio << 33 | fanout << 1`; a pick sets
    /// bit 0 when the candidate pairs with the previous pick.
    key: Vec<u64>,
    /// The instructions whose predecessors are all scheduled.
    ready: Vec<u64>,
    /// `order[k]` is the block position of the `k`-th pick.
    order: Vec<u32>,
}

impl ListScheduler {
    /// Schedules one block in place, [`WINDOW`] instructions at a time;
    /// see [`list_schedule`].
    pub fn schedule<T>(&mut self, block: &mut [T], inst: impl Fn(&T) -> &Inst) {
        for window in block.chunks_mut(WINDOW) {
            self.schedule_window(window, &inst);
        }
    }

    /// Schedules a window of at most [`WINDOW`] instructions in place.
    fn schedule_window<T>(&mut self, block: &mut [T], inst: &impl Fn(&T) -> &Inst) {
        let n = block.len();
        if n < 2 {
            return;
        }
        let words = n.div_ceil(64);
        let Self { class, succ, masks, preds, prio, key, ready, order } = self;
        let pairs = pairing();
        // Every entry of these is written before it is read.
        if class.len() < n {
            class.resize(n, 0);
            prio.resize(n, 0);
            key.resize(n, 0);
        }
        if succ.len() < n * words {
            succ.resize(n * words, 0);
        }
        masks.clear();
        masks.resize(words, [0; ROWS]);
        preds.clear();
        preds.resize(n, 0);

        // Backward sweep: when `i` is reached the masks hold exactly the
        // instructions after it, whose priorities are final.
        for i in (0..n).rev() {
            let ins = inst(&block[i]);
            let e = Effects::of(ins);
            class[i] = issue_class(ins) as u8;
            let (mut tail, mut fanout) = (0, 0);
            for (k, m) in masks.iter().enumerate() {
                let mut s = successors(&e, m);
                succ[i * words + k] = s;
                fanout += s.count_ones();
                while s != 0 {
                    let j = 64 * k + s.trailing_zeros() as usize;
                    tail = tail.max(prio[j]);
                    preds[j] += 1;
                    s &= s - 1;
                }
            }
            prio[i] = latency(ins) + tail;
            key[i] = u64::from(prio[i]) << 33 | u64::from(fanout) << 1;
            add(&e, &mut masks[i / 64], 1 << (i % 64));
        }

        ready.clear();
        ready.resize(words, 0);
        for i in (0..n).filter(|&i| preds[i] == 0) {
            ready[i / 64] |= 1 << (i % 64);
        }
        order.clear();
        // Classes that pair with the previous pick (none before the first).
        let mut pairing = 0u8;
        while order.len() < n {
            // The largest `(prio, fanout, pairs, Reverse(i))`: candidates
            // come in ascending order and only a larger key displaces the
            // best, so the first of equal keys wins. Keys are nonzero (a
            // latency is at least 1).
            let (mut best, mut best_key) = (0, 0);
            for (k, &word) in ready.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let c = 64 * k + w.trailing_zeros() as usize;
                    let ck = key[c] | u64::from((pairing >> class[c]) & 1);
                    if ck > best_key {
                        (best, best_key) = (c, ck);
                    }
                    w &= w - 1;
                }
            }
            debug_assert!(best_key != 0, "a block's dependence graph is acyclic");
            ready[best / 64] &= !(1 << (best % 64));
            order.push(best as u32);
            pairing = pairs[class[best] as usize];
            for k in 0..words {
                let mut w = succ[best * words + k];
                while w != 0 {
                    let j = 64 * k + w.trailing_zeros() as usize;
                    preds[j] -= 1;
                    if preds[j] == 0 {
                        ready[k] |= 1 << (j % 64);
                    }
                    w &= w - 1;
                }
            }
        }

        // Apply the permutation cycle by cycle: position `k` takes the element
        // at `order[k]`, and a placed position is marked `order[k] = k`.
        for start in 0..n {
            let mut k = start;
            loop {
                let src = order[k] as usize;
                order[k] = k as u32;
                if src == start {
                    break;
                }
                block.swap(k, src);
                k = src;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BrOp, Operand, OprOp};
    use crate::reg::Reg;

    #[test]
    fn loads_have_multicycle_latency() {
        assert_eq!(latency(&Inst::ldq(Reg::new(1), 0, Reg::GP)), 3);
        assert_eq!(latency(&Inst::lda(Reg::new(1), 0, Reg::GP)), 1);
    }

    #[test]
    fn multiply_is_slow() {
        let mul = Inst::Opr {
            op: OprOp::Mulq,
            ra: Reg::new(1),
            rb: Operand::Reg(Reg::new(2)),
            rc: Reg::new(3),
        };
        assert!(latency(&mul) > 10);
    }

    #[test]
    fn int_and_mem_pair() {
        let add = Inst::mov(Reg::new(1), Reg::new(2));
        let load = Inst::ldq(Reg::new(3), 0, Reg::GP);
        assert!(can_dual_issue(&add, &load));
        assert!(can_dual_issue(&load, &add));
    }

    #[test]
    fn same_class_does_not_pair() {
        let l1 = Inst::ldq(Reg::new(1), 0, Reg::GP);
        let l2 = Inst::ldq(Reg::new(2), 8, Reg::GP);
        assert!(!can_dual_issue(&l1, &l2));
        let a1 = Inst::mov(Reg::new(1), Reg::new(2));
        let a2 = Inst::mov(Reg::new(3), Reg::new(4));
        assert!(!can_dual_issue(&a1, &a2));
    }

    #[test]
    fn branch_must_be_second() {
        let br = Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 0 };
        let add = Inst::mov(Reg::new(1), Reg::new(2));
        assert!(can_dual_issue(&add, &br));
        assert!(!can_dual_issue(&br, &add));
    }

    /// The list scheduler as it was before [`ListScheduler`] (a pairwise
    /// `depends_on` test per instruction pair, one `Vec` per instruction's
    /// successors, both keys recomputed per comparison): the reference the
    /// bitset scheduler must match pick for pick.
    fn reference_schedule<T>(block: &mut Vec<T>, inst: impl Fn(&T) -> &Inst) {
        let n = block.len();
        if n < 2 {
            return;
        }
        let effects: Vec<Effects> = block.iter().map(|t| Effects::of(inst(t))).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut npreds: Vec<usize> = vec![0; n];
        for j in 0..n {
            for i in 0..j {
                if effects[j].depends_on(&effects[i]) {
                    succs[i].push(j);
                    npreds[j] += 1;
                }
            }
        }
        let mut prio: Vec<u32> = vec![0; n];
        for i in (0..n).rev() {
            let tail = succs[i].iter().map(|&j| prio[j]).max().unwrap_or(0);
            prio[i] = latency(inst(&block[i])) + tail;
        }
        let fanout: Vec<usize> = succs.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| npreds[i] == 0).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut remaining_preds = npreds;
        while let Some(&first) = ready.first() {
            let mut best = first;
            for &c in &ready {
                let key = |i: usize| {
                    let pairs = order
                        .last()
                        .map(|&p| can_dual_issue(inst(&block[p]), inst(&block[i])))
                        .unwrap_or(false);
                    (prio[i], fanout[i], pairs as u32, std::cmp::Reverse(i))
                };
                if key(c) > key(best) {
                    best = c;
                }
            }
            ready.retain(|&i| i != best);
            order.push(best);
            for &j in &succs[best] {
                remaining_preds[j] -= 1;
                if remaining_preds[j] == 0 {
                    ready.push(j);
                }
            }
        }
        let mut slots: Vec<Option<T>> = std::mem::take(block).into_iter().map(Some).collect();
        *block = order.into_iter().map(|i| slots[i].take().unwrap()).collect();
    }

    /// A random instruction of any issue class. Registers come from a small
    /// pool (with the zero register) so blocks are dense in dependences.
    fn random_inst(rng: &mut om_prng::StdRng, control: bool) -> Inst {
        use crate::inst::{FOprOp, JmpOp, PalOp};
        let mut reg = || Reg::new([0, 1, 2, 3, 4, 5, 16, 29, 30, 31][rng.gen_range(0..10usize)]);
        let (ra, rb, rc) = (reg(), reg(), reg());
        if control {
            const BR: [BrOp; 5] = [BrOp::Br, BrOp::Bsr, BrOp::Beq, BrOp::Blbs, BrOp::Fbne];
            const JMP: [JmpOp; 3] = [JmpOp::Jmp, JmpOp::Jsr, JmpOp::Ret];
            return match rng.gen_range(0..3u32) {
                0 => Inst::Br { op: BR[rng.gen_range(0..5usize)], ra, disp: -3 },
                1 => Inst::Jmp { op: JMP[rng.gen_range(0..3usize)], ra, rb, hint: 0 },
                _ => Inst::Pal { op: PalOp::Halt },
            };
        }
        const MEM: [MemOp; 9] = [
            MemOp::Lda,
            MemOp::Ldah,
            MemOp::Ldl,
            MemOp::Ldq,
            MemOp::LdqU,
            MemOp::Stl,
            MemOp::Stq,
            MemOp::Ldt,
            MemOp::Stt,
        ];
        const OPR: [OprOp; 6] =
            [OprOp::Addq, OprOp::Mulq, OprOp::Mull, OprOp::Cmoveq, OprOp::Sll, OprOp::Cmplt];
        const FOPR: [FOprOp; 4] = [FOprOp::Addt, FOprOp::Mult, FOprOp::Divt, FOprOp::Cpys];
        match rng.gen_range(0..8u32) {
            0..=2 => Inst::Mem { op: MEM[rng.gen_range(0..9usize)], ra, rb, disp: 8 },
            3..=5 => {
                let rb = if rng.gen_bool(0.3) { Operand::Lit(7) } else { Operand::Reg(rb) };
                Inst::Opr { op: OPR[rng.gen_range(0..6usize)], ra, rb, rc }
            }
            6 => Inst::FOpr { op: FOPR[rng.gen_range(0..4usize)], fa: ra, fb: rb, fc: rc },
            _ => Inst::Pal { op: PalOp::WriteInt },
        }
    }

    #[test]
    fn buffered_scheduler_matches_the_reference_on_random_blocks() {
        // Sizes where a successor row grows by a word, interleaved with
        // random sizes so one scheduler's buffers change width between
        // blocks.
        const EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];
        let mut rng = om_prng::StdRng::seed_from_u64(23);
        let mut sched = ListScheduler::default();
        let mut seen = [false; 4];
        for b in 0..2_400 {
            let n = if b % 8 == 7 { EDGES[b / 8 % 6] } else { rng.gen_range(2..301usize) };
            let trailing = rng.gen_bool(0.7);
            // Positions tag each element, so equal instructions stay apart.
            let block: Vec<(usize, Inst)> = (0..n)
                .map(|k| {
                    let control = (trailing && k == n - 1) || rng.gen_bool(0.01);
                    (k, random_inst(&mut rng, control))
                })
                .collect();
            for (_, i) in &block {
                seen[issue_class(i) as usize] = true;
            }
            let mut want = block.clone();
            reference_schedule(&mut want, |t| &t.1);
            let mut got = block;
            sched.schedule(&mut got, |t| &t.1);
            assert_eq!(got, want, "block {b} ({n} instructions)");
        }
        assert_eq!(seen, [true; 4], "every issue class is drawn");
    }

    #[test]
    fn a_long_block_schedules_as_its_windows_alone() {
        let mut rng = om_prng::StdRng::seed_from_u64(31);
        let block: Vec<(usize, Inst)> =
            (0..3 * WINDOW).map(|k| (k, random_inst(&mut rng, false))).collect();
        let mut want = block.clone();
        for window in want.chunks_mut(WINDOW) {
            ListScheduler::default().schedule(window, |t| &t.1);
        }
        assert_ne!(want, block, "the windows' schedules move something");
        let mut sched = ListScheduler::default();
        let mut got = block;
        sched.schedule(&mut got, |t| &t.1);
        assert_eq!(got, want);
        let words = sched.succ.len();
        assert!(words <= WINDOW * WINDOW.div_ceil(64), "{words} successor words");
    }

    #[test]
    fn issue_classes() {
        assert_eq!(issue_class(&Inst::nop()), IssueClass::IntOp);
        assert_eq!(issue_class(&Inst::unop()), IssueClass::Mem);
        assert_eq!(issue_class(&Inst::fnop()), IssueClass::FpOp);
        assert_eq!(issue_class(&Inst::ret()), IssueClass::Branch);
    }
}

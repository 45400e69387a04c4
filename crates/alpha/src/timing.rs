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
/// source order. A pass over many blocks should keep one
/// [`ListScheduler`] instead, so the working buffers are allocated once.
pub fn list_schedule<T>(block: &mut [T], inst: impl Fn(&T) -> &Inst) {
    ListScheduler::default().schedule(block, inst);
}

/// [`list_schedule`] with its working buffers kept between blocks.
#[derive(Debug, Default)]
pub struct ListScheduler {
    effects: Vec<Effects>,
    /// The dependence graph, flat: the successors of `i` (each `j > i` that
    /// must follow it, ascending) are `succs[first[i]..first[i + 1]]`.
    first: Vec<u32>,
    succs: Vec<u32>,
    /// Predecessors of each instruction not yet scheduled.
    preds: Vec<u32>,
    /// Critical-path length from each instruction to the block's end.
    prio: Vec<u32>,
    ready: Vec<u32>,
    /// `order[k]` is the block position of the `k`-th pick.
    order: Vec<u32>,
}

impl ListScheduler {
    /// Schedules one block in place; see [`list_schedule`].
    pub fn schedule<T>(&mut self, block: &mut [T], inst: impl Fn(&T) -> &Inst) {
        let n = block.len();
        if n < 2 {
            return;
        }
        let Self { effects, first, succs, preds, prio, ready, order } = self;
        effects.clear();
        effects.extend(block.iter().map(|t| Effects::of(inst(t))));

        first.clear();
        succs.clear();
        preds.clear();
        preds.resize(n, 0);
        for i in 0..n {
            first.push(succs.len() as u32);
            for j in i + 1..n {
                if effects[j].depends_on(&effects[i]) {
                    succs.push(j as u32);
                    preds[j] += 1;
                }
            }
        }
        first.push(succs.len() as u32);
        let succs_of = |i: usize| &succs[first[i] as usize..first[i + 1] as usize];

        prio.clear();
        prio.resize(n, 0);
        for i in (0..n).rev() {
            let tail = succs_of(i).iter().map(|&j| prio[j as usize]).max().unwrap_or(0);
            prio[i] = latency(inst(&block[i])) + tail;
        }

        ready.clear();
        ready.extend((0..n as u32).filter(|&i| preds[i as usize] == 0));
        order.clear();
        while !ready.is_empty() {
            // Keys are distinct (the last component is the position), so the
            // pick does not depend on the order of `ready`.
            let prev = order.last().map(|&p| inst(&block[p as usize]));
            let key = |i: u32| {
                let i = i as usize;
                let pairs = prev.is_some_and(|p| can_dual_issue(p, inst(&block[i])));
                (prio[i], first[i + 1] - first[i], pairs, std::cmp::Reverse(i))
            };
            let (mut best_at, mut best_key) = (0, key(ready[0]));
            for (at, &c) in ready.iter().enumerate().skip(1) {
                let k = key(c);
                if k > best_key {
                    (best_at, best_key) = (at, k);
                }
            }
            let best = ready.swap_remove(best_at);
            order.push(best);
            for &j in succs_of(best as usize) {
                preds[j as usize] -= 1;
                if preds[j as usize] == 0 {
                    ready.push(j);
                }
            }
        }
        debug_assert_eq!(order.len(), n);

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

    /// The list scheduler as it was before [`ListScheduler`] (one `Vec` per
    /// instruction's successors, both keys recomputed per comparison): the
    /// reference the buffered scheduler must match pick for pick.
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
        let mut rng = om_prng::StdRng::seed_from_u64(23);
        let mut sched = ListScheduler::default();
        let mut seen = [false; 4];
        for b in 0..2_000 {
            let n = rng.gen_range(2..201usize);
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
    fn issue_classes() {
        assert_eq!(issue_class(&Inst::nop()), IssueClass::IntOp);
        assert_eq!(issue_class(&Inst::unop()), IssueClass::Mem);
        assert_eq!(issue_class(&Inst::fnop()), IssueClass::FpOp);
        assert_eq!(issue_class(&Inst::ret()), IssueClass::Branch);
    }
}

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
/// a branch, and the branch must be the second of the pair.
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
/// source order.
pub fn list_schedule<T>(block: &mut Vec<T>, inst: impl Fn(&T) -> &Inst) {
    let n = block.len();
    if n < 2 {
        return;
    }
    let effects: Vec<Effects> = block.iter().map(|t| Effects::of(inst(t))).collect();

    // Dependence edges: succs[i] lists j > i that must follow i.
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

    // Critical-path priority and fan-out.
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

    debug_assert_eq!(order.len(), n);
    let mut slots: Vec<Option<T>> = std::mem::take(block).into_iter().map(Some).collect();
    *block = order
        .into_iter()
        .map(|i| slots[i].take().expect("instruction scheduled twice"))
        .collect();
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

    #[test]
    fn issue_classes() {
        assert_eq!(issue_class(&Inst::nop()), IssueClass::IntOp);
        assert_eq!(issue_class(&Inst::unop()), IssueClass::Mem);
        assert_eq!(issue_class(&Inst::fnop()), IssueClass::FpOp);
        assert_eq!(issue_class(&Inst::ret()), IssueClass::Branch);
    }
}

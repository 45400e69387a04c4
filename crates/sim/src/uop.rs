//! The lowered instruction record both engines execute.
//!
//! [`lower`] turns one decoded [`Inst`] at a known pc into a [`Uop`]: the
//! pre-resolved operation ([`Op`], register slots, a pre-shifted immediate
//! or a precomputed branch target and link value) plus the timing bits the
//! block engine's fused check and per-uop replay read (ready-file slots,
//! latency, issue class, memory and statistics flags). The block engine
//! lowers each instruction once, when its block is built; the reference
//! interpreter lowers each instruction it fetches. Both then run records
//! through [`crate::Machine::exec`], so instruction semantics live in one
//! `match`.
//!
//! **Register slots.** The executor's integer and FP files have 33 entries:
//! slot 31 reads zero (nothing ever writes it) and slot 32 takes the writes
//! to r31/f31 (nothing ever reads it), so no operation tests for the zero
//! register. The timing model's ready file is the two banks side by side
//! (`r` at `r`, `f` at `32 + f`) plus the same write sink at [`SINK`];
//! unused use slots read the never-written slot [`NO_USE`].

use crate::profile::Transfer;
use om_alpha::timing::{issue_class, latency};
use om_alpha::{BrOp, Effects, FOprOp, Inst, JmpOp, MemOp, Operand, OprOp, PalOp, Reg};

/// Entries in each executor register file: 32 registers plus the sink.
pub(crate) const REG_SLOTS: usize = 33;
/// The executor slot of r31/f31: nothing writes it, so it reads zero.
const REG_ZERO: u8 = 31;
/// The executor slot that takes writes to r31/f31.
const REG_SINK: u8 = 32;
/// Entries in the timing model's ready file: both banks plus the sink.
pub(crate) const READY_SLOTS: usize = 65;
/// The ready-file slot that takes a record's def when it has none.
pub(crate) const SINK: u8 = 64;
/// The ready-file slot an unused use reads: r31's, which nothing writes.
pub(crate) const NO_USE: u8 = 31;

/// The pre-resolved operation of a [`Uop`].
///
/// Operand conventions: `a` and `b` are read, `c` is written. An operate
/// instruction's second operand is `ir[b] + imm`: a register with `imm` 0,
/// or a literal in `imm` with `b` the zero slot. Memory operations address
/// `ir[b] + imm` (LDAH's displacement is pre-shifted), stores store `a`.
/// Branches jump to `imm`; BR, BSR and the jumps write `link` to `c`.
#[derive(Clone, Copy)]
#[repr(u8)]
pub(crate) enum Op {
    /// LDA and LDAH: `c = b + imm`.
    Lda,
    Ldl,
    Ldq,
    /// LDQ_U with a live target: the aligned quadword.
    LdqU,
    Ldt,
    Stl,
    Stq,
    Stt,
    /// LDQ_U r31 (UNOP): no access, no write.
    Nop,
    Addq,
    Subq,
    Addl,
    Subl,
    Mulq,
    Mull,
    S4Addq,
    S8Addq,
    And,
    Bic,
    Bis,
    Ornot,
    Xor,
    Eqv,
    Sll,
    Srl,
    Sra,
    Cmpeq,
    Cmplt,
    Cmple,
    Cmpult,
    Cmpule,
    Cmoveq,
    Cmovne,
    Cmovlt,
    Cmovge,
    Addt,
    Subt,
    Mult,
    Divt,
    Cmpteq,
    Cmptlt,
    Cmptle,
    Cvtqt,
    Cvttq,
    Cpys,
    Cpysn,
    Br,
    Bsr,
    Beq,
    Bne,
    Blt,
    Ble,
    Bgt,
    Bge,
    Blbc,
    Blbs,
    Fbeq,
    Fbne,
    Fblt,
    Fbge,
    /// JMP and RET: `c = link`, then jump to `b & !3`.
    Jmp,
    /// JSR: a JMP the profile counts as a call.
    Jsr,
    Halt,
    WriteInt,
}

/// The record accesses the D-cache (an effective address is recorded).
const MEM: u8 = 1;
/// ... and the access is a store.
const STORE: u8 = 2;
/// Counts toward `TimingStats::loads`.
const LOAD: u8 = 4;
/// Counts toward `TimingStats::nops`.
const NOP: u8 = 8;
/// Opens a new I-cache line within its block.
pub(crate) const LINE_FIRST: u8 = 16;
/// May dual-issue with its in-block predecessor.
pub(crate) const PAIR: u8 = 32;
/// The issue class (`IssueClass as u8`) sits in the top two bits.
const CLASS_SHIFT: u32 = 6;

/// One lowered instruction: 32 bytes, pinned by a unit test.
#[derive(Clone, Copy)]
pub(crate) struct Uop {
    /// Displacement, operate literal, or branch target.
    pub(crate) imm: u64,
    /// The instruction's pc + 4: the fall-through and the link value.
    pub(crate) link: u64,
    pub(crate) op: Op,
    /// Executor register slots (see [`Op`]).
    pub(crate) a: u8,
    pub(crate) b: u8,
    pub(crate) c: u8,
    /// Ready-file slots read, padded with [`NO_USE`].
    pub(crate) uses: [u8; 3],
    /// Ready-file slot written, or [`SINK`].
    pub(crate) def: u8,
    /// Base result latency in cycles.
    pub(crate) lat: u8,
    pub(crate) flags: u8,
    /// The block's static schedule: cycle offset at which `def` is ready.
    pub(crate) avail: u16,
}

impl Uop {
    pub(crate) fn is_mem(&self) -> bool {
        self.flags & MEM != 0
    }

    pub(crate) fn is_store(&self) -> bool {
        self.flags & STORE != 0
    }

    pub(crate) fn is_load(&self) -> bool {
        self.flags & LOAD != 0
    }

    pub(crate) fn is_nop(&self) -> bool {
        self.flags & NOP != 0
    }

    pub(crate) fn class(&self) -> u8 {
        self.flags >> CLASS_SHIFT
    }

    /// How the profile counts this record when it transfers control: the
    /// one rule both engines' profilers read.
    pub(crate) fn transfer(&self) -> Transfer {
        match self.op {
            Op::Bsr | Op::Jsr => Transfer::Call,
            Op::Jmp => Transfer::Jump,
            _ => Transfer::Branch,
        }
    }
}

/// An executor slot to read `r` from.
fn rd(r: Reg) -> u8 {
    r.number()
}

/// An executor slot to write `r` to.
fn wr(r: Reg) -> u8 {
    if r.is_zero() {
        REG_SINK
    } else {
        r.number()
    }
}

/// Lowers `inst` at `pc`. The block-position flags ([`LINE_FIRST`],
/// [`PAIR`]) and `avail` are left clear for the block builder.
pub(crate) fn lower(pc: u64, inst: &Inst) -> Uop {
    let link = pc.wrapping_add(4);
    let mut u = Uop {
        imm: 0,
        link,
        op: Op::Nop,
        a: REG_ZERO,
        b: REG_ZERO,
        c: REG_SINK,
        uses: [NO_USE; 3],
        def: SINK,
        lat: latency(inst) as u8,
        flags: (issue_class(inst) as u8) << CLASS_SHIFT,
        avail: 0,
    };
    if inst.is_nop() {
        u.flags |= NOP;
    }
    match *inst {
        Inst::Mem { op, ra, rb, disp } => {
            u.b = rd(rb);
            u.imm = disp as i64 as u64;
            let (kind, flags) = match op {
                MemOp::Lda => (Op::Lda, 0),
                MemOp::Ldah => {
                    u.imm = ((disp as i64) << 16) as u64;
                    (Op::Lda, 0)
                }
                MemOp::Ldl => (Op::Ldl, MEM | LOAD),
                MemOp::Ldq => (Op::Ldq, MEM | LOAD),
                MemOp::LdqU if ra.is_zero() => (Op::Nop, LOAD),
                MemOp::LdqU => (Op::LdqU, MEM | LOAD),
                MemOp::Ldt => (Op::Ldt, MEM | LOAD),
                MemOp::Stl => (Op::Stl, MEM | STORE),
                MemOp::Stq => (Op::Stq, MEM | STORE),
                MemOp::Stt => (Op::Stt, MEM | STORE),
            };
            u.op = kind;
            u.flags |= flags;
            if op.is_store() {
                u.a = rd(ra);
            } else {
                u.c = wr(ra);
            }
        }
        Inst::Br { op, ra, disp } => {
            u.imm = link.wrapping_add((disp as i64 * 4) as u64);
            u.op = match op {
                BrOp::Br => Op::Br,
                BrOp::Bsr => Op::Bsr,
                BrOp::Beq => Op::Beq,
                BrOp::Bne => Op::Bne,
                BrOp::Blt => Op::Blt,
                BrOp::Ble => Op::Ble,
                BrOp::Bgt => Op::Bgt,
                BrOp::Bge => Op::Bge,
                BrOp::Blbc => Op::Blbc,
                BrOp::Blbs => Op::Blbs,
                BrOp::Fbeq => Op::Fbeq,
                BrOp::Fbne => Op::Fbne,
                BrOp::Fblt => Op::Fblt,
                BrOp::Fbge => Op::Fbge,
            };
            if op.is_unconditional() {
                u.c = wr(ra);
            } else {
                u.a = rd(ra);
            }
        }
        Inst::Jmp { op, ra, rb, .. } => {
            u.op = if op == JmpOp::Jsr { Op::Jsr } else { Op::Jmp };
            u.b = rd(rb);
            u.c = wr(ra);
        }
        Inst::Opr { op, ra, rb, rc } => {
            u.a = rd(ra);
            match rb {
                Operand::Reg(r) => u.b = rd(r),
                Operand::Lit(l) => u.imm = u64::from(l),
            }
            u.c = wr(rc);
            u.op = match op {
                OprOp::Addq => Op::Addq,
                OprOp::Subq => Op::Subq,
                OprOp::Addl => Op::Addl,
                OprOp::Subl => Op::Subl,
                OprOp::Mulq => Op::Mulq,
                OprOp::Mull => Op::Mull,
                OprOp::S4Addq => Op::S4Addq,
                OprOp::S8Addq => Op::S8Addq,
                OprOp::And => Op::And,
                OprOp::Bic => Op::Bic,
                OprOp::Bis => Op::Bis,
                OprOp::Ornot => Op::Ornot,
                OprOp::Xor => Op::Xor,
                OprOp::Eqv => Op::Eqv,
                OprOp::Sll => Op::Sll,
                OprOp::Srl => Op::Srl,
                OprOp::Sra => Op::Sra,
                OprOp::Cmpeq => Op::Cmpeq,
                OprOp::Cmplt => Op::Cmplt,
                OprOp::Cmple => Op::Cmple,
                OprOp::Cmpult => Op::Cmpult,
                OprOp::Cmpule => Op::Cmpule,
                OprOp::Cmoveq => Op::Cmoveq,
                OprOp::Cmovne => Op::Cmovne,
                OprOp::Cmovlt => Op::Cmovlt,
                OprOp::Cmovge => Op::Cmovge,
            };
        }
        Inst::FOpr { op, fa, fb, fc } => {
            u.a = rd(fa);
            u.b = rd(fb);
            u.c = wr(fc);
            u.op = match op {
                FOprOp::Addt => Op::Addt,
                FOprOp::Subt => Op::Subt,
                FOprOp::Mult => Op::Mult,
                FOprOp::Divt => Op::Divt,
                FOprOp::Cmpteq => Op::Cmpteq,
                FOprOp::Cmptlt => Op::Cmptlt,
                FOprOp::Cmptle => Op::Cmptle,
                FOprOp::Cvtqt => Op::Cvtqt,
                FOprOp::Cvttq => Op::Cvttq,
                FOprOp::Cpys => Op::Cpys,
                FOprOp::Cpysn => Op::Cpysn,
            };
        }
        Inst::Pal { op: PalOp::Halt } => u.op = Op::Halt,
        Inst::Pal { op: PalOp::WriteInt } => {
            u.op = Op::WriteInt;
            u.a = rd(Reg::A0);
        }
    }

    // Timing slots: the same dependences the reference pipeline derives
    // from `Effects` on every retire, resolved here once.
    let e = Effects::of(inst);
    let mut n = 0;
    for (mask, bank) in [(e.int_uses, 0), (e.fp_uses, 32)] {
        let mut m = mask;
        while m != 0 {
            u.uses[n] = bank + m.trailing_zeros() as u8;
            n += 1;
            m &= m - 1;
        }
    }
    if e.int_defs != 0 {
        u.def = e.int_defs.trailing_zeros() as u8;
    } else if e.fp_defs != 0 {
        u.def = 32 + e.fp_defs.trailing_zeros() as u8;
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_stays_compact() {
        // The block engine keeps one record per resident instruction; the
        // N=256 scale image holds its whole text (736,221 records) while
        // the benchmark's peak RSS is taken.
        assert!(std::mem::size_of::<Uop>() <= 40);
        assert_eq!(std::mem::size_of::<Uop>(), 32);
    }
}

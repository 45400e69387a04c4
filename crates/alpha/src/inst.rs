//! The instruction model shared by the compiler, linker, OM, and simulator.
//!
//! [`Inst`] is a decoded, format-level view of the Alpha subset this
//! reproduction uses. It is deliberately *not* symbolic: displacements are the
//! literal bit-field values that appear in the machine word. Symbolic operands
//! (references to GAT slots, procedures, data symbols) live in the relocation
//! records of `om-objfile` and in OM's symbolic program form; an `Inst` plus
//! the relocations that point at it fully describe an instruction the way the
//! paper's loader format does.

use crate::reg::Reg;
use std::fmt;

/// Memory-format opcodes (16-bit signed byte displacement off a base register).
///
/// `Lda`/`Ldah` are the "load address" operations the paper converts address
/// loads into; `LdqU` with `r31` as target is the canonical `UNOP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// `lda ra, disp(rb)` — `ra := rb + disp`.
    Lda,
    /// `ldah ra, disp(rb)` — `ra := rb + (disp << 16)`.
    Ldah,
    /// `ldl ra, disp(rb)` — load sign-extended 32-bit.
    Ldl,
    /// `ldq ra, disp(rb)` — load 64-bit. Address loads from the GAT are LDQs.
    Ldq,
    /// `ldq_u ra, disp(rb)` — unaligned load; `ldq_u r31, 0(r31)` is `UNOP`.
    LdqU,
    /// `stl ra, disp(rb)` — store low 32 bits.
    Stl,
    /// `stq ra, disp(rb)` — store 64-bit.
    Stq,
    /// `ldt fa, disp(rb)` — load IEEE double into an FP register.
    Ldt,
    /// `stt fa, disp(rb)` — store IEEE double from an FP register.
    Stt,
}

impl MemOp {
    /// True for operations that read memory.
    pub fn is_load(self) -> bool {
        matches!(
            self,
            MemOp::Ldl | MemOp::Ldq | MemOp::LdqU | MemOp::Ldt
        )
    }

    /// True for operations that write memory.
    pub fn is_store(self) -> bool {
        matches!(self, MemOp::Stl | MemOp::Stq | MemOp::Stt)
    }

    /// True when the `ra` field names a floating-point register.
    pub fn ra_is_fp(self) -> bool {
        matches!(self, MemOp::Ldt | MemOp::Stt)
    }

    /// Access size in bytes for loads/stores, 0 for LDA/LDAH.
    pub fn access_bytes(self) -> u64 {
        match self {
            MemOp::Lda | MemOp::Ldah => 0,
            MemOp::Ldl | MemOp::Stl => 4,
            MemOp::Ldq | MemOp::LdqU | MemOp::Stq | MemOp::Ldt | MemOp::Stt => 8,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Lda => "lda",
            MemOp::Ldah => "ldah",
            MemOp::Ldl => "ldl",
            MemOp::Ldq => "ldq",
            MemOp::LdqU => "ldq_u",
            MemOp::Stl => "stl",
            MemOp::Stq => "stq",
            MemOp::Ldt => "ldt",
            MemOp::Stt => "stt",
        }
    }
}

/// Branch-format opcodes (21-bit signed *word* displacement, PC-relative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrOp {
    /// Unconditional branch; writes the return address to `ra`.
    Br,
    /// Branch to subroutine; like `Br` but predicted as a call.
    Bsr,
    /// Integer conditional branches on `ra`.
    Beq,
    Bne,
    Blt,
    Ble,
    Bgt,
    Bge,
    /// Branch on low bit clear/set.
    Blbc,
    Blbs,
    /// Floating conditional branches on `fa`.
    Fbeq,
    Fbne,
    Fblt,
    Fbge,
}

impl BrOp {
    /// True for `Br`/`Bsr`, which transfer control unconditionally.
    pub fn is_unconditional(self) -> bool {
        matches!(self, BrOp::Br | BrOp::Bsr)
    }

    /// True when the tested register is floating-point.
    pub fn ra_is_fp(self) -> bool {
        matches!(self, BrOp::Fbeq | BrOp::Fbne | BrOp::Fblt | BrOp::Fbge)
    }

    fn mnemonic(self) -> &'static str {
        match self {
            BrOp::Br => "br",
            BrOp::Bsr => "bsr",
            BrOp::Beq => "beq",
            BrOp::Bne => "bne",
            BrOp::Blt => "blt",
            BrOp::Ble => "ble",
            BrOp::Bgt => "bgt",
            BrOp::Bge => "bge",
            BrOp::Blbc => "blbc",
            BrOp::Blbs => "blbs",
            BrOp::Fbeq => "fbeq",
            BrOp::Fbne => "fbne",
            BrOp::Fblt => "fblt",
            BrOp::Fbge => "fbge",
        }
    }
}

/// Memory-format jumps (opcode 0x1A): indirect transfers through `rb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JmpOp {
    /// `jmp ra, (rb)` — indirect jump.
    Jmp,
    /// `jsr ra, (rb)` — indirect call; this is the general call the paper's
    /// OM-simple rewrites into `Bsr` when the destination is near enough.
    Jsr,
    /// `ret ra, (rb)` — return (conventionally `ret zero, (ra)`).
    Ret,
}

impl JmpOp {
    fn mnemonic(self) -> &'static str {
        match self {
            JmpOp::Jmp => "jmp",
            JmpOp::Jsr => "jsr",
            JmpOp::Ret => "ret",
        }
    }
}

/// Integer operate-format opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OprOp {
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
}

impl OprOp {
    fn mnemonic(self) -> &'static str {
        match self {
            OprOp::Addq => "addq",
            OprOp::Subq => "subq",
            OprOp::Addl => "addl",
            OprOp::Subl => "subl",
            OprOp::Mulq => "mulq",
            OprOp::Mull => "mull",
            OprOp::S4Addq => "s4addq",
            OprOp::S8Addq => "s8addq",
            OprOp::And => "and",
            OprOp::Bic => "bic",
            OprOp::Bis => "bis",
            OprOp::Ornot => "ornot",
            OprOp::Xor => "xor",
            OprOp::Eqv => "eqv",
            OprOp::Sll => "sll",
            OprOp::Srl => "srl",
            OprOp::Sra => "sra",
            OprOp::Cmpeq => "cmpeq",
            OprOp::Cmplt => "cmplt",
            OprOp::Cmple => "cmple",
            OprOp::Cmpult => "cmpult",
            OprOp::Cmpule => "cmpule",
            OprOp::Cmoveq => "cmoveq",
            OprOp::Cmovne => "cmovne",
            OprOp::Cmovlt => "cmovlt",
            OprOp::Cmovge => "cmovge",
        }
    }

    /// True for the conditional moves, whose destination is also an input.
    pub fn is_cmov(self) -> bool {
        matches!(
            self,
            OprOp::Cmoveq | OprOp::Cmovne | OprOp::Cmovlt | OprOp::Cmovge
        )
    }

    /// True for multiplies, which have a long latency on the 21064.
    pub fn is_mul(self) -> bool {
        matches!(self, OprOp::Mulq | OprOp::Mull)
    }
}

/// IEEE floating-point operate opcodes (T-floating, i.e. `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FOprOp {
    Addt,
    Subt,
    Mult,
    Divt,
    /// Comparisons write 2.0 (true) or 0.0 (false) into `fc`.
    Cmpteq,
    Cmptlt,
    Cmptle,
    /// Convert quadword integer (bit pattern in an FP register) to T-floating.
    Cvtqt,
    /// Convert T-floating to quadword integer (truncating).
    Cvttq,
    /// Copy sign: `cpys fa, fb, fc`; `cpys f31,f31,f31` is the FP no-op,
    /// `cpys fb, fb, fc` the FP move, `cpysn fb, fb, fc` negation.
    Cpys,
    Cpysn,
}

impl FOprOp {
    fn mnemonic(self) -> &'static str {
        match self {
            FOprOp::Addt => "addt",
            FOprOp::Subt => "subt",
            FOprOp::Mult => "mult",
            FOprOp::Divt => "divt",
            FOprOp::Cmpteq => "cmpteq",
            FOprOp::Cmptlt => "cmptlt",
            FOprOp::Cmptle => "cmptle",
            FOprOp::Cvtqt => "cvtqt",
            FOprOp::Cvttq => "cvttq",
            FOprOp::Cpys => "cpys",
            FOprOp::Cpysn => "cpysn",
        }
    }
}

/// Second operand of an integer operate instruction: a register or an 8-bit
/// zero-extended literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    Reg(Reg),
    /// Literal in `0..256`.
    Lit(u8),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// PALcode calls. Real Alpha/OSF uses these for syscalls; the simulator uses
/// `Halt` to stop and `WriteInt` as a minimal output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PalOp {
    /// Stop execution; `r0` holds the program's result checksum.
    Halt,
    /// Debug output of `a0` (no effect on architectural state).
    WriteInt,
}

/// A decoded Alpha instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Memory format. For `Ldt`/`Stt`, `ra` names an FP register.
    Mem {
        op: MemOp,
        ra: Reg,
        rb: Reg,
        disp: i16,
    },
    /// Branch format; `disp` is a signed 21-bit word displacement relative to
    /// the *updated* PC (the instruction after the branch). For FP branches,
    /// `ra` names an FP register.
    Br { op: BrOp, ra: Reg, disp: i32 },
    /// Memory-format jump through `rb`; `hint` is the 14-bit branch-prediction
    /// hint field (ignored by the semantics).
    Jmp {
        op: JmpOp,
        ra: Reg,
        rb: Reg,
        hint: u16,
    },
    /// Integer operate: `rc := ra op rb`.
    Opr {
        op: OprOp,
        ra: Reg,
        rb: Operand,
        rc: Reg,
    },
    /// Floating operate: `fc := fa op fb` (all FP registers).
    FOpr {
        op: FOprOp,
        fa: Reg,
        fb: Reg,
        fc: Reg,
    },
    /// PALcode call.
    Pal { op: PalOp },
}

impl Inst {
    /// The canonical integer no-op, `bis r31, r31, r31`.
    ///
    /// This is what OM-simple writes over nullified instructions: it never
    /// moves code, so a removed instruction must become a no-op in place
    /// (which, as the paper notes, also removes data dependences and any
    /// chance of a cache miss the original load had).
    pub fn nop() -> Inst {
        Inst::Opr {
            op: OprOp::Bis,
            ra: Reg::ZERO,
            rb: Operand::Reg(Reg::ZERO),
            rc: Reg::ZERO,
        }
    }

    /// The "universal no-op" `ldq_u r31, 0(r31)`, which can issue in either
    /// pipe; the rescheduler uses it for quadword alignment padding.
    pub fn unop() -> Inst {
        Inst::Mem {
            op: MemOp::LdqU,
            ra: Reg::ZERO,
            rb: Reg::ZERO,
            disp: 0,
        }
    }

    /// The floating-point no-op, `cpys f31, f31, f31`.
    pub fn fnop() -> Inst {
        Inst::FOpr {
            op: FOprOp::Cpys,
            fa: Reg::ZERO,
            fb: Reg::ZERO,
            fc: Reg::ZERO,
        }
    }

    /// `lda ra, disp(rb)`.
    pub fn lda(ra: Reg, disp: i16, rb: Reg) -> Inst {
        Inst::Mem { op: MemOp::Lda, ra, rb, disp }
    }

    /// `ldah ra, disp(rb)`.
    pub fn ldah(ra: Reg, disp: i16, rb: Reg) -> Inst {
        Inst::Mem { op: MemOp::Ldah, ra, rb, disp }
    }

    /// `ldq ra, disp(rb)`.
    pub fn ldq(ra: Reg, disp: i16, rb: Reg) -> Inst {
        Inst::Mem { op: MemOp::Ldq, ra, rb, disp }
    }

    /// `stq ra, disp(rb)`.
    pub fn stq(ra: Reg, disp: i16, rb: Reg) -> Inst {
        Inst::Mem { op: MemOp::Stq, ra, rb, disp }
    }

    /// Register move, `bis zero, rb, rc`.
    pub fn mov(rb: Reg, rc: Reg) -> Inst {
        Inst::Opr {
            op: OprOp::Bis,
            ra: Reg::ZERO,
            rb: Operand::Reg(rb),
            rc,
        }
    }

    /// Load a small unsigned constant, `bis zero, lit, rc`.
    pub fn mov_lit(lit: u8, rc: Reg) -> Inst {
        Inst::Opr {
            op: OprOp::Bis,
            ra: Reg::ZERO,
            rb: Operand::Lit(lit),
            rc,
        }
    }

    /// `jsr ra, (rb)` with a zero hint.
    pub fn jsr(ra: Reg, rb: Reg) -> Inst {
        Inst::Jmp { op: JmpOp::Jsr, ra, rb, hint: 0 }
    }

    /// `ret zero, (ra)`.
    pub fn ret() -> Inst {
        Inst::Jmp {
            op: JmpOp::Ret,
            ra: Reg::ZERO,
            rb: Reg::RA,
            hint: 0,
        }
    }

    /// True for any of the three no-op spellings.
    pub fn is_nop(&self) -> bool {
        *self == Inst::nop() || *self == Inst::unop() || *self == Inst::fnop()
    }

    /// True for instructions that end a basic block: branches, jumps, and
    /// `Halt`.
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::Jmp { .. })
            || matches!(self, Inst::Pal { op: PalOp::Halt })
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Mem { op, .. } if op.is_store())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::reg::fp_name;
        match *self {
            Inst::Mem { op, ra, rb, disp } => {
                if op.ra_is_fp() {
                    write!(f, "{} {}, {}({})", op.mnemonic(), fp_name(ra), disp, rb)
                } else {
                    write!(f, "{} {}, {}({})", op.mnemonic(), ra, disp, rb)
                }
            }
            Inst::Br { op, ra, disp } => {
                if op.ra_is_fp() {
                    write!(f, "{} {}, {:+}", op.mnemonic(), fp_name(ra), disp)
                } else {
                    write!(f, "{} {}, {:+}", op.mnemonic(), ra, disp)
                }
            }
            Inst::Jmp { op, ra, rb, .. } => {
                write!(f, "{} {}, ({})", op.mnemonic(), ra, rb)
            }
            Inst::Opr { op, ra, rb, rc } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), ra, rb, rc)
            }
            Inst::FOpr { op, fa, fb, fc } => {
                write!(
                    f,
                    "{} {}, {}, {}",
                    op.mnemonic(),
                    fp_name(fa),
                    fp_name(fb),
                    fp_name(fc)
                )
            }
            Inst::Pal { op } => match op {
                PalOp::Halt => write!(f, "call_pal halt"),
                PalOp::WriteInt => write!(f, "call_pal write_int"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_spellings_are_recognized() {
        assert!(Inst::nop().is_nop());
        assert!(Inst::unop().is_nop());
        assert!(Inst::fnop().is_nop());
        assert!(!Inst::mov(Reg::A0, Reg::V0).is_nop());
    }

    #[test]
    fn control_instructions_are_flagged() {
        assert!(Inst::ret().is_control());
        assert!(Inst::jsr(Reg::RA, Reg::PV).is_control());
        assert!(Inst::Br { op: BrOp::Beq, ra: Reg::V0, disp: -4 }.is_control());
        assert!(Inst::Pal { op: PalOp::Halt }.is_control());
        assert!(!Inst::nop().is_control());
    }

    #[test]
    fn display_formats_conventionally() {
        assert_eq!(Inst::ldq(Reg::PV, 144, Reg::GP).to_string(), "ldq pv, 144(gp)");
        assert_eq!(Inst::ret().to_string(), "ret zero, (ra)");
        assert_eq!(Inst::nop().to_string(), "bis zero, zero, zero");
        let fadd = Inst::FOpr {
            op: FOprOp::Addt,
            fa: Reg::new(1),
            fb: Reg::new(2),
            fc: Reg::new(3),
        };
        assert_eq!(fadd.to_string(), "addt f1, f2, f3");
    }

    #[test]
    fn memory_classification() {
        assert!(MemOp::Ldq.is_load());
        assert!(!MemOp::Ldq.is_store());
        assert!(MemOp::Stt.is_store());
        assert_eq!(MemOp::Ldl.access_bytes(), 4);
        assert_eq!(MemOp::Ldah.access_bytes(), 0);
    }
}

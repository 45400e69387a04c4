//! Instruction encoding to 32-bit machine words.
//!
//! Opcode and function-code assignments follow the Alpha Architecture
//! Reference Manual (Sites, ed., 1992) for every instruction in the subset, so
//! dumps of our object code line up with real Alpha disassembly. PALcode
//! function codes for the simulator's pseudo-OS live outside the architected
//! range and are documented on [`Inst::Pal`](crate::inst::Inst).

use crate::field;
use crate::inst::{BrOp, FOprOp, Inst, JmpOp, MemOp, Operand, OprOp, PalOp};

/// Returns the 6-bit major opcode for a memory-format operation.
pub fn mem_opcode(op: MemOp) -> u32 {
    match op {
        MemOp::Lda => 0x08,
        MemOp::Ldah => 0x09,
        MemOp::LdqU => 0x0B,
        MemOp::Ldt => 0x23,
        MemOp::Stt => 0x27,
        MemOp::Ldl => 0x28,
        MemOp::Ldq => 0x29,
        MemOp::Stl => 0x2C,
        MemOp::Stq => 0x2D,
    }
}

/// Returns the 6-bit major opcode for a branch-format operation.
pub fn br_opcode(op: BrOp) -> u32 {
    match op {
        BrOp::Br => 0x30,
        BrOp::Fbeq => 0x31,
        BrOp::Fblt => 0x32,
        BrOp::Bsr => 0x34,
        BrOp::Fbne => 0x35,
        BrOp::Fbge => 0x36,
        BrOp::Blbc => 0x38,
        BrOp::Beq => 0x39,
        BrOp::Blt => 0x3A,
        BrOp::Ble => 0x3B,
        BrOp::Blbs => 0x3C,
        BrOp::Bne => 0x3D,
        BrOp::Bge => 0x3E,
        BrOp::Bgt => 0x3F,
    }
}

/// Returns `(major opcode, 7-bit function code)` for an integer operate.
pub fn opr_codes(op: OprOp) -> (u32, u32) {
    match op {
        OprOp::Addl => (0x10, 0x00),
        OprOp::Subl => (0x10, 0x09),
        OprOp::Cmpult => (0x10, 0x1D),
        OprOp::Addq => (0x10, 0x20),
        OprOp::S4Addq => (0x10, 0x22),
        OprOp::Subq => (0x10, 0x29),
        OprOp::Cmpeq => (0x10, 0x2D),
        OprOp::S8Addq => (0x10, 0x32),
        OprOp::Cmpule => (0x10, 0x3D),
        OprOp::Cmplt => (0x10, 0x4D),
        OprOp::Cmple => (0x10, 0x6D),
        OprOp::And => (0x11, 0x00),
        OprOp::Bic => (0x11, 0x08),
        OprOp::Bis => (0x11, 0x20),
        OprOp::Cmoveq => (0x11, 0x24),
        OprOp::Cmovne => (0x11, 0x26),
        OprOp::Ornot => (0x11, 0x28),
        OprOp::Xor => (0x11, 0x40),
        OprOp::Cmovlt => (0x11, 0x44),
        OprOp::Cmovge => (0x11, 0x46),
        OprOp::Eqv => (0x11, 0x48),
        OprOp::Srl => (0x12, 0x34),
        OprOp::Sll => (0x12, 0x39),
        OprOp::Sra => (0x12, 0x3C),
        OprOp::Mull => (0x13, 0x00),
        OprOp::Mulq => (0x13, 0x20),
    }
}

/// Returns `(major opcode, 11-bit function code)` for a floating operate.
pub fn fopr_codes(op: FOprOp) -> (u32, u32) {
    match op {
        FOprOp::Addt => (0x16, 0x0A0),
        FOprOp::Subt => (0x16, 0x0A1),
        FOprOp::Mult => (0x16, 0x0A2),
        FOprOp::Divt => (0x16, 0x0A3),
        FOprOp::Cmpteq => (0x16, 0x0A5),
        FOprOp::Cmptlt => (0x16, 0x0A6),
        FOprOp::Cmptle => (0x16, 0x0A7),
        FOprOp::Cvttq => (0x16, 0x0AF),
        FOprOp::Cvtqt => (0x16, 0x0BE),
        FOprOp::Cpys => (0x17, 0x020),
        FOprOp::Cpysn => (0x17, 0x021),
    }
}

/// Returns the 26-bit PALcode function for a PAL operation.
///
/// These are simulator-defined (outside the architected privileged range).
pub fn pal_code(op: PalOp) -> u32 {
    match op {
        PalOp::Halt => 0x555,
        PalOp::WriteInt => 0x556,
    }
}

/// Jump-format function code in bits `[15:14]`.
pub fn jmp_code(op: JmpOp) -> u32 {
    match op {
        JmpOp::Jmp => 0,
        JmpOp::Jsr => 1,
        JmpOp::Ret => 2,
    }
}

/// Encodes an instruction into its 32-bit machine word.
///
/// # Panics
///
/// Panics if a branch displacement does not fit in its signed 21-bit field;
/// the layout passes are responsible for keeping displacements in range
/// (and the linker/OM check reachability before choosing `Bsr`).
pub fn encode(inst: Inst) -> u32 {
    match inst {
        Inst::Mem { op, ra, rb, disp } => {
            mem_opcode(op) << 26
                | u32::from(ra.number()) << 21
                | u32::from(rb.number()) << 16
                | u32::from(disp as u16)
        }
        Inst::Br { op, ra, disp } => {
            let fits = field::branch_disp(disp.into()).is_some();
            assert!(fits, "branch displacement {disp} out of 21-bit range");
            field::with_branch_field(br_opcode(op) << 26 | u32::from(ra.number()) << 21, disp)
        }
        Inst::Jmp { op, ra, rb, hint } => {
            0x1A << 26
                | u32::from(ra.number()) << 21
                | u32::from(rb.number()) << 16
                | jmp_code(op) << 14
                | u32::from(hint & 0x3FFF)
        }
        Inst::Opr { op, ra, rb, rc } => {
            let (opc, func) = opr_codes(op);
            let mid = match rb {
                Operand::Reg(r) => u32::from(r.number()) << 16,
                Operand::Lit(l) => u32::from(l) << 13 | 1 << 12,
            };
            opc << 26
                | u32::from(ra.number()) << 21
                | mid
                | func << 5
                | u32::from(rc.number())
        }
        Inst::FOpr { op, fa, fb, fc } => {
            let (opc, func) = fopr_codes(op);
            opc << 26
                | u32::from(fa.number()) << 21
                | u32::from(fb.number()) << 16
                | func << 5
                | u32::from(fc.number())
        }
        Inst::Pal { op } => pal_code(op) & 0x03FF_FFFF,
    }
}

/// Encodes a sequence of instructions into little-endian bytes, the in-memory
/// representation used by `.text` sections.
pub fn encode_all(insts: &[Inst]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(insts.len() * 4);
    for &i in insts {
        bytes.extend_from_slice(&encode(i).to_le_bytes());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn nop_encodes_to_canonical_word() {
        // bis r31, r31, r31 == 0x47FF041F, the well-known Alpha NOP.
        assert_eq!(encode(Inst::nop()), 0x47FF_041F);
    }

    #[test]
    fn unop_encodes_to_canonical_word() {
        // ldq_u r31, 0(r31) == 0x2FFF0000.
        assert_eq!(encode(Inst::unop()), 0x2FFF_0000);
    }

    #[test]
    fn negative_displacement_wraps_into_field() {
        let w = encode(Inst::lda(Reg::SP, -32, Reg::SP));
        assert_eq!(w & 0xFFFF, 0xFFE0);
        assert_eq!(w >> 26, 0x08);
    }

    #[test]
    fn branch_displacement_sign_bits() {
        let w = encode(Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: -1 });
        assert_eq!(w & 0x001F_FFFF, 0x001F_FFFF);
    }

    #[test]
    #[should_panic(expected = "21-bit range")]
    fn branch_overflow_panics() {
        let _ = encode(Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 1 << 20 });
    }

    #[test]
    fn literal_operand_sets_bit_12() {
        let w = encode(Inst::mov_lit(42, Reg::V0));
        assert_eq!(w & (1 << 12), 1 << 12);
        assert_eq!((w >> 13) & 0xFF, 42);
    }

    #[test]
    fn encode_all_is_little_endian() {
        let bytes = encode_all(&[Inst::nop()]);
        assert_eq!(bytes, vec![0x1F, 0x04, 0xFF, 0x47]);
    }
}

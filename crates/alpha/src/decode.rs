//! Instruction decoding from 32-bit machine words.
//!
//! Decoding is total over words produced by [`crate::encode::encode`] (the
//! round-trip property is tested exhaustively and by property tests) and
//! returns [`DecodeError`] for anything outside the implemented subset, which
//! is how OM detects data mixed into a text section (it never happens with
//! our compiler, but the check keeps the translator honest, mirroring OM's
//! conservative treatment of input object code).

use crate::field;
use crate::inst::{BrOp, FOprOp, Inst, JmpOp, MemOp, Operand, OprOp, PalOp};
use crate::reg::Reg;
use std::fmt;

/// Error returned when a word does not decode to an instruction in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable machine word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode word {:#010x} as an alpha instruction", self.word)
    }
}

impl std::error::Error for DecodeError {}

fn reg(field: u32) -> Reg {
    Reg::new((field & 31) as u8)
}

fn mem_op(opcode: u32) -> Option<MemOp> {
    Some(match opcode {
        0x08 => MemOp::Lda,
        0x09 => MemOp::Ldah,
        0x0B => MemOp::LdqU,
        0x23 => MemOp::Ldt,
        0x27 => MemOp::Stt,
        0x28 => MemOp::Ldl,
        0x29 => MemOp::Ldq,
        0x2C => MemOp::Stl,
        0x2D => MemOp::Stq,
        _ => return None,
    })
}

fn br_op(opcode: u32) -> Option<BrOp> {
    Some(match opcode {
        0x30 => BrOp::Br,
        0x31 => BrOp::Fbeq,
        0x32 => BrOp::Fblt,
        0x34 => BrOp::Bsr,
        0x35 => BrOp::Fbne,
        0x36 => BrOp::Fbge,
        0x38 => BrOp::Blbc,
        0x39 => BrOp::Beq,
        0x3A => BrOp::Blt,
        0x3B => BrOp::Ble,
        0x3C => BrOp::Blbs,
        0x3D => BrOp::Bne,
        0x3E => BrOp::Bge,
        0x3F => BrOp::Bgt,
        _ => return None,
    })
}

fn opr_op(opcode: u32, func: u32) -> Option<OprOp> {
    Some(match (opcode, func) {
        (0x10, 0x00) => OprOp::Addl,
        (0x10, 0x09) => OprOp::Subl,
        (0x10, 0x1D) => OprOp::Cmpult,
        (0x10, 0x20) => OprOp::Addq,
        (0x10, 0x22) => OprOp::S4Addq,
        (0x10, 0x29) => OprOp::Subq,
        (0x10, 0x2D) => OprOp::Cmpeq,
        (0x10, 0x32) => OprOp::S8Addq,
        (0x10, 0x3D) => OprOp::Cmpule,
        (0x10, 0x4D) => OprOp::Cmplt,
        (0x10, 0x6D) => OprOp::Cmple,
        (0x11, 0x00) => OprOp::And,
        (0x11, 0x08) => OprOp::Bic,
        (0x11, 0x20) => OprOp::Bis,
        (0x11, 0x24) => OprOp::Cmoveq,
        (0x11, 0x26) => OprOp::Cmovne,
        (0x11, 0x28) => OprOp::Ornot,
        (0x11, 0x40) => OprOp::Xor,
        (0x11, 0x44) => OprOp::Cmovlt,
        (0x11, 0x46) => OprOp::Cmovge,
        (0x11, 0x48) => OprOp::Eqv,
        (0x12, 0x34) => OprOp::Srl,
        (0x12, 0x39) => OprOp::Sll,
        (0x12, 0x3C) => OprOp::Sra,
        (0x13, 0x00) => OprOp::Mull,
        (0x13, 0x20) => OprOp::Mulq,
        _ => return None,
    })
}

fn fopr_op(opcode: u32, func: u32) -> Option<FOprOp> {
    Some(match (opcode, func) {
        (0x16, 0x0A0) => FOprOp::Addt,
        (0x16, 0x0A1) => FOprOp::Subt,
        (0x16, 0x0A2) => FOprOp::Mult,
        (0x16, 0x0A3) => FOprOp::Divt,
        (0x16, 0x0A5) => FOprOp::Cmpteq,
        (0x16, 0x0A6) => FOprOp::Cmptlt,
        (0x16, 0x0A7) => FOprOp::Cmptle,
        (0x16, 0x0AF) => FOprOp::Cvttq,
        (0x16, 0x0BE) => FOprOp::Cvtqt,
        (0x17, 0x020) => FOprOp::Cpys,
        (0x17, 0x021) => FOprOp::Cpysn,
        _ => return None,
    })
}

/// Decodes one 32-bit machine word.
///
/// # Errors
///
/// Returns [`DecodeError`] if the word is not in the implemented subset.
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    let opcode = word >> 26;
    let err = DecodeError { word };

    if opcode == 0 {
        let func = word & 0x03FF_FFFF;
        return match func {
            0x555 => Ok(Inst::Pal { op: PalOp::Halt }),
            0x556 => Ok(Inst::Pal { op: PalOp::WriteInt }),
            _ => Err(err),
        };
    }

    if let Some(op) = mem_op(opcode) {
        return Ok(Inst::Mem {
            op,
            ra: reg(word >> 21),
            rb: reg(word >> 16),
            disp: (word & 0xFFFF) as u16 as i16,
        });
    }

    if let Some(op) = br_op(opcode) {
        return Ok(Inst::Br { op, ra: reg(word >> 21), disp: field::branch_field(word) });
    }

    if opcode == 0x1A {
        let op = match (word >> 14) & 3 {
            0 => JmpOp::Jmp,
            1 => JmpOp::Jsr,
            2 => JmpOp::Ret,
            _ => return Err(err),
        };
        return Ok(Inst::Jmp {
            op,
            ra: reg(word >> 21),
            rb: reg(word >> 16),
            hint: (word & 0x3FFF) as u16,
        });
    }

    if matches!(opcode, 0x10..=0x13) {
        let func = (word >> 5) & 0x7F;
        let op = opr_op(opcode, func).ok_or(err)?;
        let rb = if word & (1 << 12) != 0 {
            Operand::Lit(((word >> 13) & 0xFF) as u8)
        } else {
            // Bits [15:13] must be zero in register form.
            if (word >> 13) & 0x7 != 0 {
                return Err(err);
            }
            Operand::Reg(reg(word >> 16))
        };
        return Ok(Inst::Opr { op, ra: reg(word >> 21), rb, rc: reg(word) });
    }

    if matches!(opcode, 0x16 | 0x17) {
        let func = (word >> 5) & 0x7FF;
        let op = fopr_op(opcode, func).ok_or(err)?;
        return Ok(Inst::FOpr {
            op,
            fa: reg(word >> 21),
            fb: reg(word >> 16),
            fc: reg(word),
        });
    }

    Err(err)
}

/// Decodes a little-endian byte slice into instructions.
///
/// # Errors
///
/// Returns [`DecodeError`] on the first undecodable word. The slice length
/// must be a multiple of 4 (checked by the caller; trailing bytes are an
/// object-format error, not a decode error).
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<Inst>, DecodeError> {
    assert!(bytes.len().is_multiple_of(4), "text section length not a multiple of 4");
    bytes
        .chunks_exact(4)
        .map(|c| decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn roundtrip(inst: Inst) {
        let word = encode(inst);
        assert_eq!(decode(word), Ok(inst), "word {word:#010x}");
    }

    #[test]
    fn roundtrip_representative_instructions() {
        use crate::reg::Reg;
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let r3 = Reg::new(3);
        for inst in [
            Inst::nop(),
            Inst::unop(),
            Inst::fnop(),
            Inst::lda(Reg::SP, -32, Reg::SP),
            Inst::ldah(Reg::GP, 8192, Reg::PV),
            Inst::ldq(Reg::PV, 144, Reg::GP),
            Inst::stq(Reg::RA, 0, Reg::SP),
            Inst::jsr(Reg::RA, Reg::PV),
            Inst::ret(),
            Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 12345 },
            Inst::Br { op: BrOp::Bne, ra: r1, disp: -7 },
            Inst::Br { op: BrOp::Fblt, ra: r2, disp: 0 },
            Inst::Opr { op: OprOp::Addq, ra: r1, rb: Operand::Reg(r2), rc: r3 },
            Inst::Opr { op: OprOp::Subq, ra: r1, rb: Operand::Lit(255), rc: r3 },
            Inst::Opr { op: OprOp::Sll, ra: r1, rb: Operand::Lit(3), rc: r1 },
            Inst::Opr { op: OprOp::Cmovne, ra: r1, rb: Operand::Reg(r2), rc: r3 },
            Inst::FOpr { op: FOprOp::Divt, fa: r1, fb: r2, fc: r3 },
            Inst::FOpr { op: FOprOp::Cvtqt, fa: Reg::ZERO, fb: r2, fc: r3 },
            Inst::Mem { op: MemOp::Ldt, ra: r1, rb: Reg::SP, disp: 16 },
            Inst::Pal { op: PalOp::Halt },
            Inst::Pal { op: PalOp::WriteInt },
        ] {
            roundtrip(inst);
        }
    }

    #[test]
    fn garbage_word_is_rejected() {
        assert!(decode(0x0000_0001).is_err()); // PAL with unknown function
        assert!(decode(0x5000_0000).is_err()); // opcode 0x14 unassigned in subset
        assert!(decode(0x7C00_0000).is_err()); // opcode 0x1F unassigned in subset
    }

    #[test]
    fn reserved_bits_in_register_operate_are_rejected() {
        // Register-form operate with nonzero SBZ bits [15:13].
        let word = encode(Inst::mov(Reg::new(2), Reg::new(3))) | (0b101 << 13);
        assert!(decode(word).is_err());
    }

    #[test]
    fn decode_all_roundtrips_sequences() {
        let insts = vec![Inst::nop(), Inst::ret(), Inst::unop()];
        let bytes = crate::encode::encode_all(&insts);
        assert_eq!(decode_all(&bytes).unwrap(), insts);
    }

    #[test]
    fn branch_sign_extension() {
        let w = encode(Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: -(1 << 20) });
        match decode(w).unwrap() {
            Inst::Br { disp, .. } => assert_eq!(disp, -(1 << 20)),
            other => panic!("decoded {other:?}"),
        }
    }
}

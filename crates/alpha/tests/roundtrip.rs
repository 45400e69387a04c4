//! Property tests: every constructible instruction survives an
//! encode→decode round trip, and decoding arbitrary words never panics.
//!
//! Implemented as seeded exhaustive/randomized loops over `om_prng` (the
//! workspace builds offline, so no proptest); the case count is high enough
//! to cover every opcode many times per run, and failures print the seed
//! state via the instruction itself.

use om_alpha::inst::{BrOp, FOprOp, Inst, JmpOp, MemOp, Operand, OprOp, PalOp};
use om_alpha::reg::Reg;
use om_alpha::{decode, encode};
use om_prng::StdRng;

const MEM_OPS: [MemOp; 9] = [
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

const BR_OPS: [BrOp; 14] = [
    BrOp::Br,
    BrOp::Bsr,
    BrOp::Beq,
    BrOp::Bne,
    BrOp::Blt,
    BrOp::Ble,
    BrOp::Bgt,
    BrOp::Bge,
    BrOp::Blbc,
    BrOp::Blbs,
    BrOp::Fbeq,
    BrOp::Fbne,
    BrOp::Fblt,
    BrOp::Fbge,
];

const OPR_OPS: [OprOp; 26] = [
    OprOp::Addq,
    OprOp::Subq,
    OprOp::Addl,
    OprOp::Subl,
    OprOp::Mulq,
    OprOp::Mull,
    OprOp::S4Addq,
    OprOp::S8Addq,
    OprOp::And,
    OprOp::Bic,
    OprOp::Bis,
    OprOp::Ornot,
    OprOp::Xor,
    OprOp::Eqv,
    OprOp::Sll,
    OprOp::Srl,
    OprOp::Sra,
    OprOp::Cmpeq,
    OprOp::Cmplt,
    OprOp::Cmple,
    OprOp::Cmpult,
    OprOp::Cmpule,
    OprOp::Cmoveq,
    OprOp::Cmovne,
    OprOp::Cmovlt,
    OprOp::Cmovge,
];

const FOPR_OPS: [FOprOp; 11] = [
    FOprOp::Addt,
    FOprOp::Subt,
    FOprOp::Mult,
    FOprOp::Divt,
    FOprOp::Cmpteq,
    FOprOp::Cmptlt,
    FOprOp::Cmptle,
    FOprOp::Cvtqt,
    FOprOp::Cvttq,
    FOprOp::Cpys,
    FOprOp::Cpysn,
];

fn any_reg(rng: &mut StdRng) -> Reg {
    Reg::new(rng.gen_range(0u8..32))
}

fn any_inst(rng: &mut StdRng) -> Inst {
    match rng.gen_range(0..6u32) {
        0 => Inst::Mem {
            op: MEM_OPS[rng.gen_range(0..MEM_OPS.len())],
            ra: any_reg(rng),
            rb: any_reg(rng),
            disp: rng.gen_range(i16::MIN as i32..i16::MAX as i32 + 1) as i16,
        },
        1 => Inst::Br {
            op: BR_OPS[rng.gen_range(0..BR_OPS.len())],
            ra: any_reg(rng),
            disp: rng.gen_range(-(1i32 << 20)..(1i32 << 20)),
        },
        2 => Inst::Jmp {
            op: [JmpOp::Jmp, JmpOp::Jsr, JmpOp::Ret][rng.gen_range(0..3usize)],
            ra: any_reg(rng),
            rb: any_reg(rng),
            hint: rng.gen_range(0u16..1 << 14),
        },
        3 => Inst::Opr {
            op: OPR_OPS[rng.gen_range(0..OPR_OPS.len())],
            ra: any_reg(rng),
            rb: if rng.gen_bool(0.5) {
                Operand::Reg(any_reg(rng))
            } else {
                Operand::Lit(rng.gen_range(0u16..256) as u8)
            },
            rc: any_reg(rng),
        },
        4 => Inst::FOpr {
            op: FOPR_OPS[rng.gen_range(0..FOPR_OPS.len())],
            fa: any_reg(rng),
            fb: any_reg(rng),
            fc: any_reg(rng),
        },
        _ => Inst::Pal { op: [PalOp::Halt, PalOp::WriteInt][rng.gen_range(0..2usize)] },
    }
}

/// Signed-boundary displacements for the 16-bit memory format.
const MEM_DISPS: [i16; 8] = [i16::MIN, i16::MIN + 1, -2, -1, 0, 1, i16::MAX - 1, i16::MAX];

/// Signed-boundary word displacements for the 21-bit branch format.
const BR_DISPS: [i32; 8] = [
    -(1 << 20),
    -(1 << 20) + 1,
    -2,
    -1,
    0,
    1,
    (1 << 20) - 2,
    (1 << 20) - 1,
];

/// Boundary-biased operand sampling: half the time an extreme value, half
/// the time uniform — so every case mixes corner operands with ordinary
/// ones instead of waiting for uniform sampling to land on a boundary.
fn edge_inst(rng: &mut StdRng) -> Inst {
    let mem_disp = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            MEM_DISPS[rng.gen_range(0..MEM_DISPS.len())]
        } else {
            rng.gen_range(i16::MIN as i32..i16::MAX as i32 + 1) as i16
        }
    };
    let br_disp = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            BR_DISPS[rng.gen_range(0..BR_DISPS.len())]
        } else {
            rng.gen_range(-(1i32 << 20)..(1i32 << 20))
        }
    };
    let lit = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            [0u8, 1, 254, 255][rng.gen_range(0..4usize)]
        } else {
            rng.gen_range(0u16..256) as u8
        }
    };
    let hint = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            [0u16, 1, (1 << 14) - 2, (1 << 14) - 1][rng.gen_range(0..4usize)]
        } else {
            rng.gen_range(0u16..1 << 14)
        }
    };
    match rng.gen_range(0..5u32) {
        0 => Inst::Mem {
            op: MEM_OPS[rng.gen_range(0..MEM_OPS.len())],
            ra: any_reg(rng),
            rb: any_reg(rng),
            disp: mem_disp(rng),
        },
        1 => Inst::Br {
            op: BR_OPS[rng.gen_range(0..BR_OPS.len())],
            ra: any_reg(rng),
            disp: br_disp(rng),
        },
        2 => Inst::Jmp {
            op: [JmpOp::Jmp, JmpOp::Jsr, JmpOp::Ret][rng.gen_range(0..3usize)],
            ra: any_reg(rng),
            rb: any_reg(rng),
            hint: hint(rng),
        },
        3 => Inst::Opr {
            op: OPR_OPS[rng.gen_range(0..OPR_OPS.len())],
            ra: any_reg(rng),
            rb: if rng.gen_bool(0.5) {
                Operand::Reg(any_reg(rng))
            } else {
                Operand::Lit(lit(rng))
            },
            rc: any_reg(rng),
        },
        _ => Inst::FOpr {
            op: FOPR_OPS[rng.gen_range(0..FOPR_OPS.len())],
            fa: any_reg(rng),
            fb: any_reg(rng),
            fc: any_reg(rng),
        },
    }
}

#[test]
fn encode_decode_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x00A1_1CE5);
    for _ in 0..20_000 {
        let inst = any_inst(&mut rng);
        let word = encode(inst);
        assert_eq!(decode(word), Ok(inst), "word {word:#010x}");
    }
}

#[test]
fn boundary_displacements_roundtrip_exhaustively() {
    // Every op × every boundary displacement, deterministically — the
    // corners mutation harnesses flip bits around must be pinned exactly,
    // not left to uniform sampling.
    for &op in &MEM_OPS {
        for &disp in &MEM_DISPS {
            for ra in [0u8, 15, 31] {
                let inst = Inst::Mem { op, ra: Reg::new(ra), rb: Reg::new(31 - ra), disp };
                let word = encode(inst);
                assert_eq!(decode(word), Ok(inst), "word {word:#010x}");
            }
        }
    }
    for &op in &BR_OPS {
        for &disp in &BR_DISPS {
            let inst = Inst::Br { op, ra: Reg::new(26), disp };
            let word = encode(inst);
            assert_eq!(decode(word), Ok(inst), "word {word:#010x}");
        }
    }
}

#[test]
fn every_register_number_roundtrips_in_every_field() {
    // Each of the 32 register numbers through each encodable field slot,
    // including R31/F31 (whose reads are architecturally zero but whose
    // *encoding* must still be preserved bit-exactly).
    for r in 0u8..32 {
        let reg = Reg::new(r);
        let other = Reg::new((r + 7) % 32);
        let cases = [
            Inst::Mem { op: MemOp::Ldq, ra: reg, rb: other, disp: -8 },
            Inst::Mem { op: MemOp::Stq, ra: other, rb: reg, disp: 8 },
            Inst::Br { op: BrOp::Bne, ra: reg, disp: -1 },
            Inst::Jmp { op: JmpOp::Jsr, ra: reg, rb: other, hint: 0x1FFF },
            Inst::Jmp { op: JmpOp::Jmp, ra: other, rb: reg, hint: 0 },
            Inst::Opr { op: OprOp::Addq, ra: reg, rb: Operand::Reg(other), rc: other },
            Inst::Opr { op: OprOp::Xor, ra: other, rb: Operand::Reg(reg), rc: other },
            Inst::Opr { op: OprOp::Subq, ra: other, rb: Operand::Lit(255), rc: reg },
            Inst::FOpr { op: FOprOp::Addt, fa: reg, fb: other, fc: other },
            Inst::FOpr { op: FOprOp::Mult, fa: other, fb: reg, fc: other },
            Inst::FOpr { op: FOprOp::Cpys, fa: other, fb: other, fc: reg },
        ];
        for inst in cases {
            let word = encode(inst);
            assert_eq!(decode(word), Ok(inst), "r{r}: word {word:#010x}");
        }
    }
}

#[test]
fn boundary_biased_sweep_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xB0_0B5_EED);
    for case in 0..50_000 {
        let inst = edge_inst(&mut rng);
        let word = encode(inst);
        assert_eq!(decode(word), Ok(inst), "case {case}: word {word:#010x}");
    }
}

#[test]
fn decode_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for _ in 0..200_000 {
        let _ = decode(rng.next_u64() as u32);
    }
    // Plus the boundary words random sampling is unlikely to hit.
    for word in [0u32, 1, u32::MAX, u32::MAX - 1, 1 << 31, (1 << 26) - 1] {
        let _ = decode(word);
    }
}

#[test]
fn decoded_words_reencode_identically() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..200_000 {
        let word = rng.next_u64() as u32;
        if let Ok(inst) = decode(word) {
            // Decode is not injective on the hint/SBZ bits we mask off, but
            // re-encoding a decoded instruction must be stable.
            let word2 = encode(inst);
            assert_eq!(decode(word2), Ok(inst), "word {word:#010x}");
        }
    }
}

//! Instruction-level semantics tests: hand-assembled fragments executed on
//! the machine, checking exact architectural results (the cases the
//! differential suite may not pin down individually). Every fragment runs
//! on the reference interpreter, the functional block engine and the timed
//! block engine, which must return the same result or the same error.

use om_alpha::{encode_all, BrOp, FOprOp, Inst, MemOp, Operand, OprOp, PalOp, Reg};
use om_linker::{Image, LayoutInfo, Segment};
use om_sim::{run_fast, run_timed_fast, ExecError, Fault, Machine, NoTiming, RunResult};
use std::collections::HashMap;

const TEXT: u64 = 0x1_2000_0000;
const DATA: u64 = 0x1_4000_0000;

/// An image of `text` at `TEXT` and `data` at `DATA`, entered at `TEXT`.
fn image_of(text: &[Inst], data: Vec<u8>) -> Image {
    Image {
        segments: vec![
            Segment { base: TEXT, bytes: encode_all(text) },
            Segment { base: DATA, bytes: data },
        ],
        entry: TEXT,
        symbols: HashMap::new(),
        layout: LayoutInfo::default(),
    }
}

/// Runs `image` on all three engines with an instruction budget of
/// `limit` and returns their common outcome.
fn run_all(image: &Image, limit: u64) -> Result<RunResult, ExecError> {
    let reference = Machine::load(image).and_then(|mut m| m.run(limit, &mut NoTiming));
    let fast = run_fast(image, limit);
    let timed = run_timed_fast(image, limit).map(|(r, _)| r);
    assert_eq!(reference, fast, "reference vs block engine");
    assert_eq!(reference, timed, "reference vs timed block engine");
    reference
}

/// Runs a fragment; `v0` at halt is the result. A data segment of 256 bytes
/// is mapped at `DATA`.
fn run_frag(insts: &[Inst]) -> i64 {
    run_frag_with_data(insts, vec![0; 256])
}

fn run_frag_with_data(insts: &[Inst], data: Vec<u8>) -> i64 {
    let mut all = insts.to_vec();
    all.push(Inst::Pal { op: PalOp::Halt });
    run_all(&image_of(&all, data), 10_000).unwrap().result
}

/// Runs a fragment that must fail, on all three engines.
fn frag_error(insts: &[Inst]) -> ExecError {
    let mut all = insts.to_vec();
    all.push(Inst::Pal { op: PalOp::Halt });
    run_all(&image_of(&all, vec![0; 64]), 100).unwrap_err()
}

fn opr(op: OprOp, ra: Reg, rb: Operand, rc: Reg) -> Inst {
    Inst::Opr { op, ra, rb, rc }
}

const R1: Reg = Reg::T0;
const V0: Reg = Reg::V0;

#[test]
fn lda_ldah_build_addresses() {
    // v0 = (4096 << 16) - 4 computed by LDAH + LDA.
    let r = run_frag(&[
        Inst::ldah(V0, 4096, Reg::ZERO),
        Inst::lda(V0, -4, V0),
    ]);
    assert_eq!(r, (4096i64 << 16) - 4);
}

#[test]
fn ldah_sign_extends_its_displacement() {
    let r = run_frag(&[Inst::ldah(V0, -1, Reg::ZERO)]);
    assert_eq!(r, -(1i64 << 16));
}

#[test]
fn loads_and_stores_roundtrip_memory() {
    let r = run_frag(&[
        Inst::lda(R1, 0x1400, Reg::ZERO),
        opr(OprOp::Sll, R1, Operand::Lit(20), R1), // 0x1400 << 20 == DATA
        Inst::lda(V0, -17, Reg::ZERO),
        Inst::stq(V0, 8, R1),
        Inst::ldq(V0, 8, R1),
    ]);
    assert_eq!(r, -17);
}

#[test]
fn ldl_sign_extends_and_stl_truncates() {
    // Store 0xFFFF_FFFF via STL, read back with LDL: sign-extended -1.
    let r = run_frag(&[
        Inst::lda(R1, 0x1400, Reg::ZERO),
        opr(OprOp::Sll, R1, Operand::Lit(20), R1),
        Inst::lda(V0, -1, Reg::ZERO),
        Inst::Mem { op: MemOp::Stl, ra: V0, rb: R1, disp: 16 },
        Inst::mov_lit(0, V0),
        Inst::Mem { op: MemOp::Ldl, ra: V0, rb: R1, disp: 16 },
    ]);
    assert_eq!(r, -1);
}

#[test]
fn s8addq_scales() {
    let r = run_frag(&[
        Inst::mov_lit(5, R1),
        opr(OprOp::S8Addq, R1, Operand::Lit(3), V0), // 5*8 + 3
    ]);
    assert_eq!(r, 43);
}

#[test]
fn conditional_moves() {
    let r = run_frag(&[
        Inst::mov_lit(0, R1),
        Inst::mov_lit(7, V0),
        opr(OprOp::Cmoveq, R1, Operand::Lit(42), V0), // r1==0 → v0=42
    ]);
    assert_eq!(r, 42);
    let r = run_frag(&[
        Inst::mov_lit(1, R1),
        Inst::mov_lit(7, V0),
        opr(OprOp::Cmoveq, R1, Operand::Lit(42), V0), // r1!=0 → keep 7
    ]);
    assert_eq!(r, 7);
}

#[test]
fn unsigned_compares() {
    // -1 as unsigned is huge: CMPULT(-1, 1) == 0, CMPULT(1, -1) == 1.
    let r = run_frag(&[
        Inst::lda(R1, -1, Reg::ZERO),
        opr(OprOp::Cmpult, R1, Operand::Lit(1), V0),
    ]);
    assert_eq!(r, 0);
}

#[test]
fn shift_counts_use_low_six_bits() {
    let r = run_frag(&[
        Inst::mov_lit(1, R1),
        Inst::lda(Reg::T8, 65, Reg::ZERO), // 65 & 63 == 1
        opr(OprOp::Sll, R1, Operand::Reg(Reg::T8), V0),
    ]);
    assert_eq!(r, 2);
}

#[test]
fn branches_skip_and_loop() {
    // beq taken over a poison instruction.
    let r = run_frag(&[
        Inst::mov_lit(0, R1),
        Inst::Br { op: BrOp::Beq, ra: R1, disp: 1 },
        Inst::mov_lit(99, V0), // skipped
        opr(OprOp::Addq, V0, Operand::Lit(1), V0),
    ]);
    assert_eq!(r, 1);

    // A real loop: v0 = sum 1..=5 via backward bne.
    let r = run_frag(&[
        Inst::mov_lit(5, R1),
        Inst::mov_lit(0, V0),
        opr(OprOp::Addq, V0, Operand::Reg(R1), V0),
        opr(OprOp::Subq, R1, Operand::Lit(1), R1),
        Inst::Br { op: BrOp::Bne, ra: R1, disp: -3 },
    ]);
    assert_eq!(r, 15);
}

#[test]
fn bsr_records_return_address_and_ret_uses_it() {
    // bsr to a +2 target; callee adds 1 and returns.
    let r = run_frag(&[
        Inst::mov_lit(10, V0),
        Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 1 },
        Inst::Pal { op: PalOp::Halt }, // fallthrough after return... never reached
        // callee:
        opr(OprOp::Addq, V0, Operand::Lit(1), V0),
        Inst::ret(),
    ]);
    // After ret, control returns to the halt; v0 == 11.
    assert_eq!(r, 11);
}

#[test]
fn float_arithmetic_and_conversion() {
    // v0 = int((3.0 + 1.5) * 2.0) computed via memory-staged constants.
    let three = 3.0f64.to_bits().to_le_bytes();
    let onep5 = 1.5f64.to_bits().to_le_bytes();
    let mut data = vec![0u8; 64];
    data[0..8].copy_from_slice(&three);
    data[8..16].copy_from_slice(&onep5);
    let f1 = Reg::new(1);
    let f2 = Reg::new(2);
    let r = run_frag_with_data(
        &[
            Inst::lda(R1, 0x1400, Reg::ZERO),
            opr(OprOp::Sll, R1, Operand::Lit(20), R1),
            Inst::Mem { op: MemOp::Ldt, ra: f1, rb: R1, disp: 0 },
            Inst::Mem { op: MemOp::Ldt, ra: f2, rb: R1, disp: 8 },
            Inst::FOpr { op: FOprOp::Addt, fa: f1, fb: f2, fc: f1 },
            Inst::FOpr { op: FOprOp::Addt, fa: f1, fb: f1, fc: f1 }, // *2
            Inst::FOpr { op: FOprOp::Cvttq, fa: Reg::ZERO, fb: f1, fc: f2 },
            Inst::Mem { op: MemOp::Stt, ra: f2, rb: R1, disp: 16 },
            Inst::ldq(V0, 16, R1),
        ],
        data,
    );
    assert_eq!(r, 9);
}

#[test]
fn fp_compare_writes_two_or_zero() {
    let one = 1.0f64.to_bits().to_le_bytes();
    let two = 2.0f64.to_bits().to_le_bytes();
    let mut data = vec![0u8; 64];
    data[0..8].copy_from_slice(&one);
    data[8..16].copy_from_slice(&two);
    let f1 = Reg::new(1);
    let f2 = Reg::new(2);
    let r = run_frag_with_data(
        &[
            Inst::lda(R1, 0x1400, Reg::ZERO),
            opr(OprOp::Sll, R1, Operand::Lit(20), R1),
            Inst::Mem { op: MemOp::Ldt, ra: f1, rb: R1, disp: 0 },
            Inst::Mem { op: MemOp::Ldt, ra: f2, rb: R1, disp: 8 },
            Inst::FOpr { op: FOprOp::Cmptlt, fa: f1, fb: f2, fc: f1 }, // 1 < 2 → 2.0
            Inst::FOpr { op: FOprOp::Cvttq, fa: Reg::ZERO, fb: f1, fc: f1 },
            Inst::Mem { op: MemOp::Stt, ra: f1, rb: R1, disp: 16 },
            Inst::ldq(V0, 16, R1),
        ],
        data,
    );
    assert_eq!(r, 2);
}

#[test]
fn misaligned_access_faults() {
    let e = frag_error(&[
        Inst::lda(R1, 0x1400, Reg::ZERO),
        opr(OprOp::Sll, R1, Operand::Lit(20), R1),
        Inst::ldq(V0, 3, R1),
    ]);
    assert_eq!(e, ExecError::Fault(Fault::Misaligned { addr: DATA + 3, align: 8 }), "{e}");
    assert!(e.to_string().contains("misaligned"), "{e}");
}

#[test]
fn misaligned_ldl_faults_with_its_own_alignment() {
    let e = frag_error(&[
        Inst::lda(R1, 0x1400, Reg::ZERO),
        opr(OprOp::Sll, R1, Operand::Lit(20), R1),
        Inst::Mem { op: MemOp::Ldl, ra: V0, rb: R1, disp: 6 },
    ]);
    assert_eq!(e, ExecError::Fault(Fault::Misaligned { addr: DATA + 6, align: 4 }));
}

#[test]
fn jump_to_data_is_a_bad_pc() {
    let image = Image {
        segments: vec![
            Segment {
                base: TEXT,
                bytes: encode_all(&[
                    Inst::lda(R1, 0x1400, Reg::ZERO),
                    opr(OprOp::Sll, R1, Operand::Lit(20), R1),
                    Inst::jsr(Reg::RA, R1),
                ]),
            },
            Segment { base: DATA, bytes: vec![0; 64] },
        ],
        entry: TEXT,
        symbols: HashMap::new(),
        layout: LayoutInfo::default(),
    };
    let e = run_all(&image, 100).unwrap_err();
    assert!(e.to_string().contains("jump outside text") || e.to_string().contains("undecodable"), "{e}");
}

#[test]
fn step_limit_reports() {
    let image = Image {
        segments: vec![Segment {
            base: TEXT,
            bytes: encode_all(&[Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: -1 }]),
        }],
        entry: TEXT,
        symbols: HashMap::new(),
        layout: LayoutInfo::default(),
    };
    let e = run_all(&image, 1000).unwrap_err();
    assert!(e.to_string().contains("exceeded"), "{e}");
}

#[test]
fn writes_to_r31_and_f31_are_discarded() {
    let f1 = Reg::new(1);
    let r = run_frag(&[
        Inst::lda(Reg::ZERO, 5, Reg::ZERO),
        opr(OprOp::Addq, R1, Operand::Lit(9), Reg::ZERO),
        Inst::ldq(Reg::ZERO, 0, Reg::SP),
        opr(OprOp::Bis, Reg::ZERO, Operand::Reg(Reg::ZERO), V0),
    ]);
    assert_eq!(r, 0);
    // f31 reads +0.0 after an FP operate and an FP load target it.
    let mut data = vec![0u8; 64];
    data[0..8].copy_from_slice(&3.5f64.to_bits().to_le_bytes());
    let r = run_frag_with_data(
        &[
            Inst::lda(R1, 0x1400, Reg::ZERO),
            opr(OprOp::Sll, R1, Operand::Lit(20), R1),
            Inst::Mem { op: MemOp::Ldt, ra: f1, rb: R1, disp: 0 },
            Inst::FOpr { op: FOprOp::Addt, fa: f1, fb: f1, fc: Reg::ZERO },
            Inst::Mem { op: MemOp::Ldt, ra: Reg::ZERO, rb: R1, disp: 0 },
            Inst::Mem { op: MemOp::Stt, ra: Reg::ZERO, rb: R1, disp: 8 },
            Inst::ldq(V0, 8, R1),
        ],
        data,
    );
    assert_eq!(r, 0);
}

#[test]
fn cmoveq_into_r31_is_discarded() {
    let r = run_frag(&[
        Inst::mov_lit(0, R1),
        Inst::mov_lit(7, V0),
        opr(OprOp::Cmoveq, R1, Operand::Lit(42), Reg::ZERO), // taken, discarded
        opr(OprOp::Addq, V0, Operand::Reg(Reg::ZERO), V0),
    ]);
    assert_eq!(r, 7);
}

#[test]
fn unop_with_an_unmapped_base_touches_no_memory() {
    // `ldq_u r31, 0(t0)` with t0 far outside every segment retires.
    let r = run_frag(&[
        Inst::lda(R1, 0x50, Reg::ZERO),
        Inst::Mem { op: MemOp::LdqU, ra: Reg::ZERO, rb: R1, disp: 0 },
        Inst::mov_lit(3, V0),
    ]);
    assert_eq!(r, 3);
}

#[test]
fn a_store_fault_after_alu_ops_in_one_block_is_the_same_fault() {
    let e = frag_error(&[
        Inst::lda(R1, 0x50, Reg::ZERO),
        opr(OprOp::Addq, R1, Operand::Lit(8), R1),
        opr(OprOp::Addq, V0, Operand::Lit(1), V0),
        Inst::stq(V0, 0, R1),
    ]);
    assert_eq!(e, ExecError::Fault(Fault::Unmapped { addr: 0x58 }));
}

#[test]
fn bsr_and_jsr_into_r31_discard_their_link() {
    // bsr r31 over a poison instruction, then r31 must still read zero.
    let r = run_frag(&[
        Inst::Br { op: BrOp::Bsr, ra: Reg::ZERO, disp: 1 },
        Inst::mov_lit(99, V0), // skipped
        opr(OprOp::Addq, Reg::ZERO, Operand::Lit(5), V0),
    ]);
    assert_eq!(r, 5);
    // jsr r31 through t0 = the address of the third instruction after it.
    let r = run_frag(&[
        Inst::lda(R1, 0x1200, Reg::ZERO),
        opr(OprOp::Sll, R1, Operand::Lit(20), R1), // TEXT
        Inst::lda(R1, 5 * 4, R1),
        Inst::jsr(Reg::ZERO, R1),
        Inst::mov_lit(99, V0), // skipped
        opr(OprOp::Addq, Reg::ZERO, Operand::Lit(6), V0),
    ]);
    assert_eq!(r, 6);
}

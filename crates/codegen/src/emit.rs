//! Instruction selection and function emission.
//!
//! This is where the paper's §2 code-generation model is implemented
//! faithfully: every reference to a global object or procedure goes through
//! an address load from the GAT (`ldq rx, lit(gp)` with a LITERAL relocation
//! and LITUSE links on the uses); every non-local procedure is entered with
//! PV holding its address and re-derives GP with a GPDISP pair; every call
//! site is `ldq pv / jsr / ldah gp / lda gp`. The only calls compiled better
//! are those to `static` procedures whose address is never taken — the one
//! case the paper notes a compiler may optimize at compile time.

use crate::code::{Anchor, CLabel, CodeBuffer, Mark};
use crate::regalloc::{allocate, Allocation, Loc};
use om_alpha::{field, BrOp, FOprOp, Inst, MemOp, Operand, OprOp, Reg};
use om_minic::ast::{Global, GlobalInit, Type};
use om_minic::ir::{Class, Cmp, FBin, IBin, Ir, IrFunction, IrUnit, Val, VReg};
use om_objfile::{ModuleBuilder, RelocKind, SecId, Symbol, Visibility};
use std::collections::{HashMap, HashSet};

/// Integer scratch registers (never allocated): AT and r25.
const SCRATCH1: Reg = Reg::AT;
fn scratch2() -> Reg {
    Reg::new(25)
}
/// FP scratch registers (never allocated).
fn fscratch1() -> Reg {
    Reg::new(28)
}
fn fscratch2() -> Reg {
    Reg::new(29)
}

/// Objects of at most this many bytes are placed in the small sections
/// (`.sdata`/`.sbss`) near the GAT, mirroring the `-G 8` convention.
pub const SMALL_DATA_MAX: u64 = 8;

/// Per-module pool of interned large constants (float literals and integers
/// too wide for LDAH/LDA), emitted as local `.sdata` symbols and accessed
/// through the GAT like any other global.
#[derive(Debug, Default)]
pub struct ConstPool {
    entries: HashMap<u64, String>,
    order: Vec<(String, u64)>,
}

impl ConstPool {
    /// Interns the 8-byte little-endian image `bits`, returning its symbol.
    pub fn intern(&mut self, bits: u64) -> String {
        if let Some(name) = self.entries.get(&bits) {
            return name.clone();
        }
        let name = format!("$LC{}", self.order.len());
        self.entries.insert(bits, name.clone());
        self.order.push((name.clone(), bits));
        name
    }

    /// Emits all interned constants into the module's `.sdata`.
    pub fn emit(&self, b: &mut ModuleBuilder) {
        for (name, bits) in &self.order {
            let off = b.append_data(SecId::Sdata, &bits.to_le_bytes());
            b.add_symbol(Symbol::data(name.clone(), SecId::Sdata, off, 8).local());
        }
    }
}

/// The displacement a constant element index folds into, if it fits a
/// memory instruction's (addresses wrap, so the scaled index does too).
fn elem_disp(index: Val) -> Option<i16> {
    match index {
        Val::I(c) => field::mem_disp(c.wrapping_mul(8)),
        _ => None,
    }
}

/// Function-level emission context.
struct FnEmitter<'a> {
    f: &'a IrFunction,
    alloc: Allocation,
    /// Compiled without a GPDISP prologue, entered by BSR (static,
    /// address never taken).
    local_mode: bool,
    /// Names of all local-mode functions in the unit.
    local_fns: &'a HashSet<String>,
    unit: &'a IrUnit,
    consts: &'a mut ConstPool,
    code: CodeBuffer,
    labels: HashMap<om_minic::ir::Label, CLabel>,
    // Frame layout (byte offsets from post-prologue SP).
    frame_size: i64,
    #[allow(dead_code)]
    out_bytes: i64,
    cvt_off: i64,
    spill_off: i64,
    save_off: i64,
}

/// Result class of calling `name` from this unit (int unless a known
/// signature says float).
fn callee_ret_class(unit: &IrUnit, name: &str) -> Class {
    match unit.info.fns.get(name) {
        Some(sig) if sig.ret == Type::Float => Class::Fp,
        _ => Class::Int,
    }
}

impl<'a> FnEmitter<'a> {
    fn new(
        f: &'a IrFunction,
        unit: &'a IrUnit,
        local_fns: &'a HashSet<String>,
        consts: &'a mut ConstPool,
    ) -> FnEmitter<'a> {
        let alloc = allocate(f);
        let local_mode = local_fns.contains(&f.name);

        // Outgoing argument area: max stack args over all calls.
        let max_stack_args = f
            .body
            .iter()
            .filter_map(|i| match i {
                Ir::Call { args, .. } | Ir::CallInd { args, .. } => {
                    Some(args.len().saturating_sub(6))
                }
                _ => None,
            })
            .max()
            .unwrap_or(0) as i64;
        let needs_cvt = f
            .body
            .iter()
            .any(|i| matches!(i, Ir::CvtIF { .. } | Ir::CvtFI { .. } | Ir::CmpF { .. }));

        let out_bytes = 8 * max_stack_args;
        let cvt_off = out_bytes;
        let spill_off = cvt_off + if needs_cvt { 8 } else { 0 };
        let save_off = spill_off + 8 * alloc.n_slots as i64;
        let n_saves = alloc.has_call as i64
            + alloc.saved_int.len() as i64
            + alloc.saved_fp.len() as i64;
        let frame_size = (save_off + 8 * n_saves + 15) / 16 * 16;

        FnEmitter {
            f,
            alloc,
            local_mode,
            local_fns,
            unit,
            consts,
            code: CodeBuffer::new(),
            labels: HashMap::new(),
            frame_size,
            out_bytes,
            cvt_off,
            spill_off,
            save_off,
        }
    }

    fn clabel(&mut self, l: om_minic::ir::Label) -> CLabel {
        if let Some(&c) = self.labels.get(&l) {
            return c;
        }
        let c = self.code.fresh_label();
        self.labels.insert(l, c);
        c
    }

    fn slot_disp(&self, slot: u32) -> i16 {
        (self.spill_off + 8 * slot as i64) as i16
    }

    /// Loads an immediate into `r`. Wide constants come from the module's
    /// literal constant pool, through the GAT like everything else.
    fn load_imm(&mut self, v: i64, r: Reg) {
        if v == 0 {
            self.code.inst(Inst::mov(Reg::ZERO, r));
        } else if let Some(d) = field::mem_disp(v) {
            self.code.inst(Inst::lda(r, d, Reg::ZERO));
        } else if let Some((hi, lo)) = field::split_pair(v) {
            self.code.inst(Inst::ldah(r, hi, Reg::ZERO));
            if lo != 0 {
                self.code.inst(Inst::lda(r, lo, r));
            }
        } else {
            let sym = self.consts.intern(v as u64);
            let load = self.code.push(
                Inst::ldq(r, 0, Reg::GP),
                Mark::Literal { sym, addend: 0 },
            );
            self.code.push(Inst::ldq(r, 0, r), Mark::LituseBase { load });
        }
    }

    /// Materializes an integer operand into a register; `which` selects the
    /// scratch register used for slot reloads and immediates.
    fn use_int(&mut self, v: Val, which: u8) -> Reg {
        let scratch = if which == 0 { SCRATCH1 } else { scratch2() };
        match v {
            Val::I(0) => Reg::ZERO,
            Val::I(c) => {
                self.load_imm(c, scratch);
                scratch
            }
            Val::F(_) => panic!("float operand in int context"),
            Val::R(r) => {
                debug_assert_eq!(r.class, Class::Int);
                match self.alloc.loc(r) {
                    Loc::Reg(p) => p,
                    Loc::Slot(s) => {
                        let d = self.slot_disp(s);
                        self.code.inst(Inst::ldq(scratch, d, Reg::SP));
                        scratch
                    }
                }
            }
        }
    }

    /// Materializes an FP operand.
    fn use_fp(&mut self, v: Val, which: u8) -> Reg {
        let fscratch = if which == 0 { fscratch1() } else { fscratch2() };
        match v {
            Val::F(c) if c == 0.0 && c.is_sign_positive() => Reg::ZERO,
            Val::F(c) => {
                let sym = self.consts.intern(c.to_bits());
                let addr = if which == 0 { SCRATCH1 } else { scratch2() };
                let load = self.code.push(
                    Inst::ldq(addr, 0, Reg::GP),
                    Mark::Literal { sym, addend: 0 },
                );
                self.code.push(
                    Inst::Mem { op: MemOp::Ldt, ra: fscratch, rb: addr, disp: 0 },
                    Mark::LituseBase { load },
                );
                fscratch
            }
            Val::I(_) => panic!("int operand in fp context"),
            Val::R(r) => {
                debug_assert_eq!(r.class, Class::Fp);
                match self.alloc.loc(r) {
                    Loc::Reg(p) => p,
                    Loc::Slot(s) => {
                        let d = self.slot_disp(s);
                        self.code.inst(Inst::Mem {
                            op: MemOp::Ldt,
                            ra: fscratch,
                            rb: Reg::SP,
                            disp: d,
                        });
                        fscratch
                    }
                }
            }
        }
    }

    /// The register to compute an integer result into, plus whether it must
    /// be stored to a slot afterwards.
    fn def_int(&self, dst: VReg) -> (Reg, Option<u32>) {
        match self.alloc.loc(dst) {
            Loc::Reg(p) => (p, None),
            Loc::Slot(s) => (SCRATCH1, Some(s)),
        }
    }

    fn def_fp(&self, dst: VReg) -> (Reg, Option<u32>) {
        match self.alloc.loc(dst) {
            Loc::Reg(p) => (p, None),
            Loc::Slot(s) => (fscratch1(), Some(s)),
        }
    }

    fn finish_def_int(&mut self, written: Reg, slot: Option<u32>) {
        if let Some(s) = slot {
            let d = self.slot_disp(s);
            self.code.inst(Inst::stq(written, d, Reg::SP));
        }
    }

    fn finish_def_fp(&mut self, written: Reg, slot: Option<u32>) {
        if let Some(s) = slot {
            let d = self.slot_disp(s);
            self.code.inst(Inst::Mem { op: MemOp::Stt, ra: written, rb: Reg::SP, disp: d });
        }
    }

    /// Emits the conservative GAT address load for `sym`, returning
    /// `(register, instruction id)`.
    fn address_load(&mut self, sym: &str, into: Reg) -> (Reg, u32) {
        let id = self.code.push(
            Inst::ldq(into, 0, Reg::GP),
            Mark::Literal { sym: sym.to_string(), addend: 0 },
        );
        (into, id)
    }

    fn prologue(&mut self) {
        if !self.local_mode {
            // ldah gp, hi(pv); lda gp, lo(gp) — the paper's Figure 1 entry.
            let lo_id = self.code.fresh_id();
            self.code.push(
                Inst::ldah(Reg::GP, 0, Reg::PV),
                Mark::GpdispHi { lo: lo_id, anchor: Anchor::Entry },
            );
            self.code
                .push_with_id(lo_id, Inst::lda(Reg::GP, 0, Reg::GP), Mark::GpdispLo { hi: 0 });
        }
        if self.frame_size > 0 {
            self.code
                .inst(Inst::lda(Reg::SP, -self.frame_size as i16, Reg::SP));
        }
        let mut off = self.save_off;
        if self.alloc.has_call {
            self.code.inst(Inst::stq(Reg::RA, off as i16, Reg::SP));
            off += 8;
        }
        for &s in &self.alloc.saved_int.clone() {
            self.code.inst(Inst::stq(s, off as i16, Reg::SP));
            off += 8;
        }
        for &s in &self.alloc.saved_fp.clone() {
            self.code
                .inst(Inst::Mem { op: MemOp::Stt, ra: s, rb: Reg::SP, disp: off as i16 });
            off += 8;
        }

        // Move incoming arguments to their assigned homes.
        for (i, &p) in self.f.params.iter().enumerate() {
            if i < 6 {
                let arg = Reg::new(16 + i as u8);
                match (p.class, self.alloc.loc(p)) {
                    (Class::Int, Loc::Reg(r)) => {
                        if r != arg {
                            self.code.inst(Inst::mov(arg, r));
                        }
                    }
                    (Class::Int, Loc::Slot(s)) => {
                        let d = self.slot_disp(s);
                        self.code.inst(Inst::stq(arg, d, Reg::SP));
                    }
                    (Class::Fp, Loc::Reg(r)) => {
                        if r != arg {
                            self.code.inst(Inst::FOpr {
                                op: FOprOp::Cpys,
                                fa: arg,
                                fb: arg,
                                fc: r,
                            });
                        }
                    }
                    (Class::Fp, Loc::Slot(s)) => {
                        let d = self.slot_disp(s);
                        self.code.inst(Inst::Mem {
                            op: MemOp::Stt,
                            ra: arg,
                            rb: Reg::SP,
                            disp: d,
                        });
                    }
                }
            } else {
                // Stack argument: caller stored it at its own SP; after our
                // prologue it sits at frame_size + 8*(i-6).
                let d = (self.frame_size + 8 * (i as i64 - 6)) as i16;
                match (p.class, self.alloc.loc(p)) {
                    (Class::Int, Loc::Reg(r)) => {
                        self.code.inst(Inst::ldq(r, d, Reg::SP));
                    }
                    (Class::Int, Loc::Slot(s)) => {
                        let sd = self.slot_disp(s);
                        self.code.inst(Inst::ldq(SCRATCH1, d, Reg::SP));
                        self.code.inst(Inst::stq(SCRATCH1, sd, Reg::SP));
                    }
                    (Class::Fp, Loc::Reg(r)) => {
                        self.code
                            .inst(Inst::Mem { op: MemOp::Ldt, ra: r, rb: Reg::SP, disp: d });
                    }
                    (Class::Fp, Loc::Slot(s)) => {
                        let sd = self.slot_disp(s);
                        self.code.inst(Inst::Mem {
                            op: MemOp::Ldt,
                            ra: fscratch1(),
                            rb: Reg::SP,
                            disp: d,
                        });
                        self.code.inst(Inst::Mem {
                            op: MemOp::Stt,
                            ra: fscratch1(),
                            rb: Reg::SP,
                            disp: sd,
                        });
                    }
                }
            }
        }
    }

    fn epilogue(&mut self) {
        let mut off = self.save_off;
        if self.alloc.has_call {
            self.code.inst(Inst::ldq(Reg::RA, off as i16, Reg::SP));
            off += 8;
        }
        for &s in &self.alloc.saved_int.clone() {
            self.code.inst(Inst::ldq(s, off as i16, Reg::SP));
            off += 8;
        }
        for &s in &self.alloc.saved_fp.clone() {
            self.code
                .inst(Inst::Mem { op: MemOp::Ldt, ra: s, rb: Reg::SP, disp: off as i16 });
            off += 8;
        }
        if self.frame_size > 0 {
            self.code
                .inst(Inst::lda(Reg::SP, self.frame_size as i16, Reg::SP));
        }
        self.code.inst(Inst::ret());
    }

    /// After-call GP re-derivation from RA (the paper's Figure 1 return).
    fn gp_reset(&mut self, jsr_id: u32) {
        let lo_id = self.code.fresh_id();
        self.code.push(
            Inst::ldah(Reg::GP, 0, Reg::RA),
            Mark::GpdispHi { lo: lo_id, anchor: Anchor::AfterCall(jsr_id) },
        );
        self.code
            .push_with_id(lo_id, Inst::lda(Reg::GP, 0, Reg::GP), Mark::GpdispLo { hi: 0 });
    }

    /// Stages call arguments into a0–a5/f16–f21 and the outgoing stack area.
    fn stage_args(&mut self, args: &[Val]) {
        for (i, &a) in args.iter().enumerate() {
            let is_fp = matches!(a, Val::F(_))
                || matches!(a, Val::R(r) if r.class == Class::Fp);
            if i < 6 {
                let dst = Reg::new(16 + i as u8);
                if is_fp {
                    let src = self.use_fp(a, 0);
                    if src != dst {
                        self.code
                            .inst(Inst::FOpr { op: FOprOp::Cpys, fa: src, fb: src, fc: dst });
                    }
                } else {
                    match a {
                        Val::I(c) => self.load_imm(c, dst),
                        _ => {
                            let src = self.use_int(a, 0);
                            if src != dst {
                                self.code.inst(Inst::mov(src, dst));
                            }
                        }
                    }
                }
            } else {
                let d = (8 * (i as i64 - 6)) as i16;
                if is_fp {
                    let src = self.use_fp(a, 0);
                    self.code
                        .inst(Inst::Mem { op: MemOp::Stt, ra: src, rb: Reg::SP, disp: d });
                } else {
                    let src = self.use_int(a, 0);
                    self.code.inst(Inst::stq(src, d, Reg::SP));
                }
            }
        }
    }

    /// Copies the call result from v0/f0 into `dst`.
    fn take_result(&mut self, dst: Option<VReg>, ret_class: Class) {
        let Some(d) = dst else { return };
        match (d.class, ret_class) {
            (Class::Int, Class::Int) => match self.alloc.loc(d) {
                Loc::Reg(r) => {
                    if r != Reg::V0 {
                        self.code.inst(Inst::mov(Reg::V0, r));
                    }
                }
                Loc::Slot(s) => {
                    let disp = self.slot_disp(s);
                    self.code.inst(Inst::stq(Reg::V0, disp, Reg::SP));
                }
            },
            (Class::Fp, Class::Fp) => match self.alloc.loc(d) {
                Loc::Reg(r) => {
                    if r.number() != 0 {
                        self.code.inst(Inst::FOpr {
                            op: FOprOp::Cpys,
                            fa: Reg::V0,
                            fb: Reg::V0,
                            fc: r,
                        });
                    }
                }
                Loc::Slot(s) => {
                    let disp = self.slot_disp(s);
                    self.code.inst(Inst::Mem {
                        op: MemOp::Stt,
                        ra: Reg::V0,
                        rb: Reg::SP,
                        disp,
                    });
                }
            },
            _ => panic!("call result class mismatch for {d}"),
        }
    }

    fn emit_binop_int(&mut self, op: IBin, dst: VReg, a: Val, b: Val) {
        let alpha_op = match op {
            IBin::Add => OprOp::Addq,
            IBin::Sub => OprOp::Subq,
            IBin::Mul => OprOp::Mulq,
            IBin::And => OprOp::And,
            IBin::Or => OprOp::Bis,
            IBin::Xor => OprOp::Xor,
            IBin::Shl => OprOp::Sll,
            IBin::Shr => OprOp::Sra,
        };
        let commutative = matches!(op, IBin::Add | IBin::Mul | IBin::And | IBin::Or | IBin::Xor);
        // Prefer the literal form when the right operand is a small constant.
        let (a, b) = match (a, b) {
            (Val::I(c), rb) if commutative && !matches!(rb, Val::I(_)) => (rb, Val::I(c)),
            other => other,
        };
        let ra = self.use_int(a, 0);
        let rb = match b {
            Val::I(c) if (0..256).contains(&c) => Operand::Lit(c as u8),
            _ => Operand::Reg(self.use_int(b, 1)),
        };
        let (rd, slot) = self.def_int(dst);
        self.code.inst(Inst::Opr { op: alpha_op, ra, rb, rc: rd });
        self.finish_def_int(rd, slot);
    }

    fn emit_cmp_int(&mut self, op: Cmp, dst: VReg, a: Val, b: Val) {
        // Alpha has CMPEQ/CMPLT/CMPLE; derive the rest by swapping or
        // inverting.
        let (op, a, b) = match op {
            Cmp::Gt => (Cmp::Lt, b, a),
            Cmp::Ge => (Cmp::Le, b, a),
            other => (other, a, b),
        };
        let (alpha_op, invert) = match op {
            Cmp::Eq => (OprOp::Cmpeq, false),
            Cmp::Ne => (OprOp::Cmpeq, true),
            Cmp::Lt => (OprOp::Cmplt, false),
            Cmp::Le => (OprOp::Cmple, false),
            Cmp::Gt | Cmp::Ge => unreachable!(),
        };
        let ra = self.use_int(a, 0);
        let rb = match b {
            Val::I(c) if (0..256).contains(&c) => Operand::Lit(c as u8),
            _ => Operand::Reg(self.use_int(b, 1)),
        };
        let (rd, slot) = self.def_int(dst);
        self.code.inst(Inst::Opr { op: alpha_op, ra, rb, rc: rd });
        if invert {
            self.code.inst(Inst::Opr {
                op: OprOp::Xor,
                ra: rd,
                rb: Operand::Lit(1),
                rc: rd,
            });
        }
        self.finish_def_int(rd, slot);
    }

    fn emit_cmp_fp(&mut self, op: Cmp, dst: VReg, a: Val, b: Val) {
        // CMPTxx writes a nonzero T-float for true; branch on it to build the
        // 0/1 integer result (the era's standard sequence).
        let (op, a, b) = match op {
            Cmp::Gt => (Cmp::Lt, b, a),
            Cmp::Ge => (Cmp::Le, b, a),
            other => (other, a, b),
        };
        let (alpha_op, invert) = match op {
            Cmp::Eq => (FOprOp::Cmpteq, false),
            Cmp::Ne => (FOprOp::Cmpteq, true),
            Cmp::Lt => (FOprOp::Cmptlt, false),
            Cmp::Le => (FOprOp::Cmptle, false),
            Cmp::Gt | Cmp::Ge => unreachable!(),
        };
        let fa = self.use_fp(a, 0);
        let fb = self.use_fp(b, 1);
        let fr = fscratch1();
        self.code.inst(Inst::FOpr { op: alpha_op, fa, fb, fc: fr });
        let (rd, slot) = self.def_int(dst);
        let l_true = self.code.fresh_label();
        let l_end = self.code.fresh_label();
        self.code.branch(BrOp::Fbne, fr, l_true);
        self.code
            .inst(Inst::mov_lit(invert as u8, rd));
        self.code.branch(BrOp::Br, Reg::ZERO, l_end);
        self.code.bind(l_true);
        self.code.inst(Inst::mov_lit(!invert as u8, rd));
        self.code.bind(l_end);
        self.finish_def_int(rd, slot);
    }

    fn emit_inst(&mut self, inst: &Ir) {
        match inst {
            Ir::Label(l) => {
                let c = self.clabel(*l);
                self.code.bind(c);
            }
            Ir::Jump(l) => {
                let c = self.clabel(*l);
                self.code.branch(BrOp::Br, Reg::ZERO, c);
            }
            Ir::Branch { cond, when_zero, target } => {
                let r = self.use_int(Val::R(*cond), 0);
                let c = self.clabel(*target);
                let op = if *when_zero { BrOp::Beq } else { BrOp::Bne };
                self.code.branch(op, r, c);
            }
            Ir::BinI { op, dst, a, b } => self.emit_binop_int(*op, *dst, *a, *b),
            Ir::BinF { op, dst, a, b } => {
                let alpha_op = match op {
                    FBin::Add => FOprOp::Addt,
                    FBin::Sub => FOprOp::Subt,
                    FBin::Mul => FOprOp::Mult,
                    FBin::Div => FOprOp::Divt,
                };
                let fa = self.use_fp(*a, 0);
                let fb = self.use_fp(*b, 1);
                let (fd, slot) = self.def_fp(*dst);
                self.code.inst(Inst::FOpr { op: alpha_op, fa, fb, fc: fd });
                self.finish_def_fp(fd, slot);
            }
            Ir::CmpI { op, dst, a, b } => self.emit_cmp_int(*op, *dst, *a, *b),
            Ir::CmpF { op, dst, a, b } => self.emit_cmp_fp(*op, *dst, *a, *b),
            Ir::MovI { dst, src } => match (*src, self.alloc.loc(*dst)) {
                (Val::I(c), Loc::Reg(r)) => self.load_imm(c, r),
                (src, Loc::Reg(r)) => {
                    let s = self.use_int(src, 0);
                    if s != r {
                        self.code.inst(Inst::mov(s, r));
                    }
                }
                (src, Loc::Slot(slot)) => {
                    let s = self.use_int(src, 0);
                    let d = self.slot_disp(slot);
                    self.code.inst(Inst::stq(s, d, Reg::SP));
                }
            },
            Ir::MovF { dst, src } => {
                let s = self.use_fp(*src, 0);
                match self.alloc.loc(*dst) {
                    Loc::Reg(r) => {
                        if s != r {
                            self.code
                                .inst(Inst::FOpr { op: FOprOp::Cpys, fa: s, fb: s, fc: r });
                        }
                    }
                    Loc::Slot(slot) => {
                        let d = self.slot_disp(slot);
                        self.code
                            .inst(Inst::Mem { op: MemOp::Stt, ra: s, rb: Reg::SP, disp: d });
                    }
                }
            }
            Ir::CvtIF { dst, src } => {
                // Integer to float goes through memory on the 21064.
                let s = self.use_int(*src, 0);
                let d = self.cvt_off as i16;
                self.code.inst(Inst::stq(s, d, Reg::SP));
                self.code.inst(Inst::Mem {
                    op: MemOp::Ldt,
                    ra: fscratch2(),
                    rb: Reg::SP,
                    disp: d,
                });
                let (fd, slot) = self.def_fp(*dst);
                self.code.inst(Inst::FOpr {
                    op: FOprOp::Cvtqt,
                    fa: Reg::ZERO,
                    fb: fscratch2(),
                    fc: fd,
                });
                self.finish_def_fp(fd, slot);
            }
            Ir::CvtFI { dst, src } => {
                let s = self.use_fp(*src, 0);
                self.code.inst(Inst::FOpr {
                    op: FOprOp::Cvttq,
                    fa: Reg::ZERO,
                    fb: s,
                    fc: fscratch2(),
                });
                let d = self.cvt_off as i16;
                self.code.inst(Inst::Mem {
                    op: MemOp::Stt,
                    ra: fscratch2(),
                    rb: Reg::SP,
                    disp: d,
                });
                let (rd, slot) = self.def_int(*dst);
                self.code.inst(Inst::ldq(rd, d, Reg::SP));
                self.finish_def_int(rd, slot);
            }
            Ir::LdGlobal { dst, sym } => {
                let (base, load) = self.address_load(sym, SCRATCH1);
                match dst.class {
                    Class::Int => {
                        let (rd, slot) = self.def_int(*dst);
                        self.code
                            .push(Inst::ldq(rd, 0, base), Mark::LituseBase { load });
                        self.finish_def_int(rd, slot);
                    }
                    Class::Fp => {
                        let (fd, slot) = self.def_fp(*dst);
                        self.code.push(
                            Inst::Mem { op: MemOp::Ldt, ra: fd, rb: base, disp: 0 },
                            Mark::LituseBase { load },
                        );
                        self.finish_def_fp(fd, slot);
                    }
                }
            }
            Ir::StGlobal { sym, src } => {
                let is_fp = matches!(src, Val::F(_))
                    || matches!(src, Val::R(r) if r.class == Class::Fp);
                if is_fp {
                    let s = self.use_fp(*src, 1);
                    let (base, load) = self.address_load(sym, SCRATCH1);
                    self.code.push(
                        Inst::Mem { op: MemOp::Stt, ra: s, rb: base, disp: 0 },
                        Mark::LituseBase { load },
                    );
                } else {
                    let s = self.use_int(*src, 1);
                    let (base, load) = self.address_load(sym, SCRATCH1);
                    self.code
                        .push(Inst::stq(s, 0, base), Mark::LituseBase { load });
                }
            }
            Ir::LdElem { dst, sym, index } => {
                let (base, load) = self.address_load(sym, SCRATCH1);
                let (addr, use_mark, disp) = match elem_disp(*index) {
                    // Constant index folds into the use's displacement: the
                    // use stays rewritable (LITUSE_BASE).
                    Some(d) => (base, Mark::LituseBase { load }, d),
                    None => {
                        let ri = self.use_int(*index, 1);
                        self.code.push(
                            Inst::Opr {
                                op: OprOp::S8Addq,
                                ra: ri,
                                rb: Operand::Reg(base),
                                rc: SCRATCH1,
                            },
                            Mark::LituseAddr { load },
                        );
                        (SCRATCH1, Mark::None, 0)
                    }
                };
                match dst.class {
                    Class::Int => {
                        let (rd, slot) = self.def_int(*dst);
                        self.code.push(Inst::ldq(rd, disp, addr), use_mark);
                        self.finish_def_int(rd, slot);
                    }
                    Class::Fp => {
                        let (fd, slot) = self.def_fp(*dst);
                        self.code.push(
                            Inst::Mem { op: MemOp::Ldt, ra: fd, rb: addr, disp },
                            use_mark,
                        );
                        self.finish_def_fp(fd, slot);
                    }
                }
            }
            Ir::StElem { sym, index, src } => {
                // Order matters for scratch discipline: compute the element
                // address into SCRATCH1 first (index reloads may pass through
                // scratch2), then materialize the value (scratch2/fscratch2
                // are free again), then store.
                let is_fp = matches!(src, Val::F(_))
                    || matches!(src, Val::R(r) if r.class == Class::Fp);
                let (base, load) = self.address_load(sym, SCRATCH1);
                let (addr, use_mark, disp) = match elem_disp(*index) {
                    Some(d) => (base, Mark::LituseBase { load }, d),
                    None => {
                        let ri = self.use_int(*index, 1);
                        self.code.push(
                            Inst::Opr {
                                op: OprOp::S8Addq,
                                ra: ri,
                                rb: Operand::Reg(base),
                                rc: SCRATCH1,
                            },
                            Mark::LituseAddr { load },
                        );
                        (SCRATCH1, Mark::None, 0)
                    }
                };
                if is_fp {
                    let s = self.use_fp(*src, 1);
                    self.code.push(
                        Inst::Mem { op: MemOp::Stt, ra: s, rb: addr, disp },
                        use_mark,
                    );
                } else {
                    let s = self.use_int(*src, 1);
                    self.code.push(Inst::stq(s, disp, addr), use_mark);
                }
            }
            Ir::LdFnAddr { dst, sym } => {
                // The loaded address escapes into general dataflow: mark the
                // load itself as escaping so OM never nullifies it.
                let (rd, slot) = self.def_int(*dst);
                self.code.push(
                    Inst::ldq(rd, 0, Reg::GP),
                    Mark::EscapingLiteral { sym: sym.clone(), addend: 0 },
                );
                self.finish_def_int(rd, slot);
            }
            Ir::Call { dst, name, args } => {
                self.stage_args(args);
                let ret_class = callee_ret_class(self.unit, name);
                if self.local_fns.contains(name) {
                    // Optimized intra-unit call to an unexported procedure:
                    // BSR, no PV load, no GP reset (same GAT by construction).
                    self.code.push(
                        Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 },
                        Mark::BrSym { sym: name.clone() },
                    );
                } else {
                    let (_, load) = self.address_load(name, Reg::PV);
                    let jsr = self.code.push(
                        Inst::jsr(Reg::RA, Reg::PV),
                        Mark::LituseJsr { load },
                    );
                    self.gp_reset(jsr);
                }
                self.take_result(*dst, ret_class);
            }
            Ir::CallInd { dst, target, args } => {
                self.stage_args(args);
                let t = self.use_int(Val::R(*target), 0);
                if t != Reg::PV {
                    self.code.inst(Inst::mov(t, Reg::PV));
                }
                let jsr = self.code.inst(Inst::jsr(Reg::RA, Reg::PV));
                self.gp_reset(jsr);
                self.take_result(*dst, Class::Int);
            }
            Ir::Ret(val) => {
                match (self.f.ret, val) {
                    (Class::Int, Some(v)) => match *v {
                        Val::I(c) => self.load_imm(c, Reg::V0),
                        v => {
                            let s = self.use_int(v, 0);
                            if s != Reg::V0 {
                                self.code.inst(Inst::mov(s, Reg::V0));
                            }
                        }
                    },
                    (Class::Fp, Some(v)) => {
                        let s = self.use_fp(*v, 0);
                        if s.number() != 0 {
                            self.code
                                .inst(Inst::FOpr { op: FOprOp::Cpys, fa: s, fb: s, fc: Reg::V0 });
                        }
                    }
                    (_, None) => {}
                }
                self.epilogue();
            }
        }
    }

    fn run(mut self) -> crate::code::CFunc {
        self.prologue();
        let body: Vec<Ir> = self.f.body.clone();
        for inst in &body {
            self.emit_inst(inst);
        }
        let vis = if self.f.is_static {
            Visibility::Local
        } else {
            Visibility::Exported
        };
        self.code.finish(self.f.name.clone(), vis)
    }
}

/// Computes the set of functions compiled in "local mode": `static` and
/// address never taken, so every call site is intra-unit and direct. These
/// are compiled without a GPDISP prologue and called with BSR — the
/// compile-time optimization the paper credits compilers with.
pub fn local_mode_fns(unit: &IrUnit) -> HashSet<String> {
    let mut addr_taken: HashSet<&str> = HashSet::new();
    for f in &unit.functions {
        for i in &f.body {
            if let Ir::LdFnAddr { sym, .. } = i {
                addr_taken.insert(sym);
            }
        }
    }
    for g in &unit.globals {
        if let GlobalInit::FnAddr(f) = &g.init {
            addr_taken.insert(f);
        }
    }
    unit.functions
        .iter()
        .filter(|f| f.is_static && !addr_taken.contains(f.name.as_str()))
        .map(|f| f.name.clone())
        .collect()
}

/// Lays a global out into the module: initialized data goes to
/// `.sdata`/`.data`, static zero data to `.sbss`/`.bss`, and non-static zero
/// data becomes a common symbol for the linker to place (which is what lets
/// OM-simple sort commons by size next to the GAT).
pub fn emit_global(b: &mut ModuleBuilder, g: &Global) {
    let size = g.size_bytes();
    let small = size <= SMALL_DATA_MAX;
    let vis = if g.is_static { Visibility::Local } else { Visibility::Exported };
    let mk = |sym: Symbol| if g.is_static { sym.local() } else { sym };

    match &g.init {
        GlobalInit::Zero => {
            if g.is_static {
                let sec = if small { SecId::Sbss } else { SecId::Bss };
                let off = b.reserve(sec, size, 8);
                b.add_symbol(Symbol::data(g.name.clone(), sec, off, size).local());
            } else {
                b.add_symbol(Symbol::common(g.name.clone(), size, 8));
            }
        }
        GlobalInit::Int(v) => {
            let sec = if small { SecId::Sdata } else { SecId::Data };
            let off = b.append_data(sec, &v.to_le_bytes());
            b.add_symbol(mk(Symbol::data(g.name.clone(), sec, off, size)));
        }
        GlobalInit::Float(v) => {
            let sec = if small { SecId::Sdata } else { SecId::Data };
            let off = b.append_data(sec, &v.to_bits().to_le_bytes());
            b.add_symbol(mk(Symbol::data(g.name.clone(), sec, off, size)));
        }
        GlobalInit::FnAddr(f) => {
            let sec = if small { SecId::Sdata } else { SecId::Data };
            let off = b.append_data(sec, &[0u8; 8]);
            let target = b.external(f);
            b.reloc_at(sec, off, RelocKind::RefQuad { sym: target, addend: 0 });
            b.add_symbol(mk(Symbol::data(g.name.clone(), sec, off, size)));
        }
        GlobalInit::List(vs) => {
            let sec = if small { SecId::Sdata } else { SecId::Data };
            let mut bytes = Vec::with_capacity(size as usize);
            let n = g.array_len.unwrap_or(1) as usize;
            for i in 0..n {
                let v = vs.get(i).copied().unwrap_or(0);
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            let off = b.append_data(sec, &bytes);
            b.add_symbol(mk(Symbol::data(g.name.clone(), sec, off, size)));
        }
        GlobalInit::FloatList(vs) => {
            let sec = if small { SecId::Sdata } else { SecId::Data };
            let mut bytes = Vec::with_capacity(size as usize);
            let n = g.array_len.unwrap_or(1) as usize;
            for i in 0..n {
                let v = vs.get(i).copied().unwrap_or(0.0);
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            let off = b.append_data(sec, &bytes);
            b.add_symbol(mk(Symbol::data(g.name.clone(), sec, off, size)));
        }
    }
    let _ = vis;
}

/// Emits all of `unit` (functions already optionally optimized/scheduled
/// upstream) into an object module, appending the interned constant pool.
///
/// # Errors
///
/// Returns [`om_objfile::ObjError`] if the produced module fails validation
/// (a codegen bug, surfaced rather than hidden).
pub fn emit_unit(
    unit: &IrUnit,
    funcs: &[crate::code::CFunc],
    consts: &ConstPool,
) -> Result<om_objfile::Module, om_objfile::ObjError> {
    let mut b = ModuleBuilder::new(unit.name.clone());
    for f in funcs {
        f.fixup_into(&mut b, 0);
    }
    for g in &unit.globals {
        emit_global(&mut b, g);
    }
    consts.emit(&mut b);
    b.finish()
}

/// Lowers every function of `unit` to symbolic code (no scheduling).
pub fn select_functions(unit: &IrUnit, consts: &mut ConstPool) -> Vec<crate::code::CFunc> {
    let local = local_mode_fns(unit);
    unit.functions
        .iter()
        .map(|f| FnEmitter::new(f, unit, &local, consts).run())
        .collect()
}

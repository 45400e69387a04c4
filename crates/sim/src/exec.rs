//! Functional execution of linked images.
//!
//! The executor is strict: unmapped or misaligned accesses, undecodable
//! instruction words, and runaway loops are all hard errors, so any OM
//! transformation that corrupts code is caught immediately rather than
//! producing a wrong number.

use crate::mem::{Fault, Mem, STACK_TOP};
use om_alpha::{decode, BrOp, FOprOp, Inst, MemOp, Operand, OprOp, PalOp, Reg};
use om_linker::Image;
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    Fault(Fault),
    BadInstruction { pc: u64, word: u32 },
    BadPc { pc: u64 },
    StepLimit { limit: u64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Fault(fault) => write!(f, "{fault}"),
            ExecError::BadInstruction { pc, word } => {
                write!(f, "undecodable word {word:#010x} at pc {pc:#x}")
            }
            ExecError::BadPc { pc } => write!(f, "jump outside text: {pc:#x}"),
            ExecError::StepLimit { limit } => write!(f, "exceeded {limit} instructions"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<Fault> for ExecError {
    fn from(f: Fault) -> Self {
        ExecError::Fault(f)
    }
}

/// One retired instruction, as reported to a timing observer.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    pub pc: u64,
    pub inst: Inst,
    /// Effective address for loads/stores.
    pub ea: Option<u64>,
    /// True when a branch/jump actually transferred control.
    pub taken: bool,
}

/// Observer invoked for every retired instruction (the timing model).
pub trait Observer {
    fn retire(&mut self, r: &Retired);
}

/// A no-op observer for purely functional runs.
pub struct NoTiming;

impl Observer for NoTiming {
    fn retire(&mut self, _: &Retired) {}
}

/// Machine state.
pub struct Machine {
    pub mem: Mem,
    /// Integer registers; index 31 is forced to zero on read.
    pub ir: [u64; 32],
    /// FP registers (bit patterns of f64).
    pub fr: [u64; 32],
    pub pc: u64,
    pub(crate) text_base: u64,
    /// Pre-decoded text; `Err` holds undecodable words (inter-module
    /// padding), fatal only if fetched.
    pub(crate) text: Vec<Result<Inst, u32>>,
    /// Debug output from `WriteInt`.
    pub output: Vec<i64>,
}

/// Architectural outcome of one executed instruction (shared between the
/// reference interpreter loop and the block engine).
pub(crate) struct Step {
    /// Effective address for loads/stores.
    pub(crate) ea: Option<u64>,
    /// True when a branch/jump actually transferred control.
    pub(crate) taken: bool,
    /// Next pc (unused when `halted`).
    pub(crate) next: u64,
    /// True when the instruction was HALT.
    pub(crate) halted: bool,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// `v0` at HALT: the program's checksum.
    pub result: i64,
    /// Instructions retired.
    pub insts: u64,
    /// Values printed via `__write_int`.
    pub output: Vec<i64>,
}

/// How a run diverged from a reference checksum — the runtime oracle's
/// verdict on a (possibly corrupted) image, classified so the mutation
/// harness can attribute kills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Ran to HALT and reproduced the reference checksum.
    Agree,
    /// Ran to HALT with a different checksum.
    Checksum { got: i64, want: i64 },
    /// Faulted: memory fault, undecodable word, or a jump outside text.
    Crash(String),
    /// Exceeded the instruction budget (runaway or non-terminating).
    Hang { limit: u64 },
}

impl Divergence {
    /// Classifies a run against the reference checksum `want`.
    pub fn classify(run: &Result<RunResult, ExecError>, want: i64) -> Divergence {
        match run {
            Ok(r) if r.result == want => Divergence::Agree,
            Ok(r) => Divergence::Checksum { got: r.result, want },
            Err(ExecError::StepLimit { limit }) => Divergence::Hang { limit: *limit },
            Err(e) => Divergence::Crash(e.to_string()),
        }
    }

    /// True unless the run agreed with the reference.
    pub fn diverged(&self) -> bool {
        !matches!(self, Divergence::Agree)
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Agree => write!(f, "agree"),
            Divergence::Checksum { got, want } => write!(f, "checksum {got} != {want}"),
            Divergence::Crash(e) => write!(f, "crash: {e}"),
            Divergence::Hang { limit } => write!(f, "hang: no HALT within {limit} insts"),
        }
    }
}

impl Machine {
    /// Loads an image, pre-decoding its text segment. Undecodable words
    /// (inter-module alignment padding) become lazy faults that trigger only
    /// if control ever reaches them.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` reserves load-time validation.
    pub fn load(image: &Image) -> Result<Machine, ExecError> {
        let text_seg = &image.segments[0];
        let mut text = Vec::with_capacity(text_seg.bytes.len() / 4);
        for w in text_seg.bytes.chunks_exact(4) {
            let word = u32::from_le_bytes(w.try_into().unwrap());
            text.push(decode(word).map_err(|_| word));
        }
        let mut m = Machine {
            mem: Mem::from_image(image),
            ir: [0; 32],
            fr: [0; 32],
            pc: image.entry,
            text_base: text_seg.base,
            text,
            output: Vec::new(),
        };
        // Boot protocol: PV holds the entry address (so the entry GPDISP
        // works), SP is the stack top, RA points nowhere harmless.
        m.ir[Reg::PV.number() as usize] = image.entry;
        m.ir[Reg::SP.number() as usize] = STACK_TOP - 64;
        Ok(m)
    }

    pub(crate) fn geti(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.ir[r.number() as usize]
        }
    }

    fn seti(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.ir[r.number() as usize] = v;
        }
    }

    fn getf(&self, r: Reg) -> f64 {
        if r.is_zero() {
            0.0
        } else {
            f64::from_bits(self.fr[r.number() as usize])
        }
    }

    fn setf(&mut self, r: Reg, v: f64) {
        if !r.is_zero() {
            self.fr[r.number() as usize] = v.to_bits();
        }
    }

    fn fetch(&self, pc: u64) -> Result<Inst, ExecError> {
        if pc < self.text_base || !pc.is_multiple_of(4) {
            return Err(ExecError::BadPc { pc });
        }
        let idx = ((pc - self.text_base) / 4) as usize;
        match self.text.get(idx) {
            Some(Ok(inst)) => Ok(*inst),
            Some(Err(word)) => Err(ExecError::BadInstruction { pc, word: *word }),
            None => Err(ExecError::BadPc { pc }),
        }
    }

    /// Runs until HALT or `limit` instructions, reporting each retired
    /// instruction to `obs`.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`]; well-linked programs only ever hit `StepLimit`.
    pub fn run(&mut self, limit: u64, obs: &mut dyn Observer) -> Result<RunResult, ExecError> {
        let mut insts: u64 = 0;
        loop {
            if insts >= limit {
                return Err(ExecError::StepLimit { limit });
            }
            let pc = self.pc;
            let inst = self.fetch(pc)?;
            insts += 1;
            let s = self.exec_one(pc, inst)?;
            if s.halted {
                obs.retire(&Retired { pc, inst, ea: None, taken: false });
                return Ok(RunResult {
                    result: self.geti(Reg::V0) as i64,
                    insts,
                    output: std::mem::take(&mut self.output),
                });
            }
            obs.retire(&Retired { pc, inst, ea: s.ea, taken: s.taken });
            self.pc = s.next;
        }
    }

    /// Executes one instruction architecturally (registers, memory, output)
    /// without touching `self.pc` or any observer — the single source of
    /// instruction semantics for both `run` and the block engine.
    #[inline]
    pub(crate) fn exec_one(&mut self, pc: u64, inst: Inst) -> Result<Step, ExecError> {
        let mut ea: Option<u64> = None;
        let mut taken = false;
        let mut next = pc.wrapping_add(4);

        match inst {
                Inst::Mem { op, ra, rb, disp } => {
                    let base = self.geti(rb);
                    let addr = base.wrapping_add(disp as i64 as u64);
                    match op {
                        MemOp::Lda => self.seti(ra, addr),
                        MemOp::Ldah => {
                            self.seti(ra, base.wrapping_add(((disp as i64) << 16) as u64))
                        }
                        MemOp::Ldl => {
                            ea = Some(addr);
                            let v = self.mem.read_u32(addr)? as i32 as i64 as u64;
                            self.seti(ra, v);
                        }
                        MemOp::Ldq => {
                            ea = Some(addr);
                            let v = self.mem.read_u64(addr)?;
                            self.seti(ra, v);
                        }
                        MemOp::LdqU => {
                            // Used only as UNOP (ra = r31); implement the
                            // aligned-quadword semantics anyway.
                            if !ra.is_zero() {
                                ea = Some(addr & !7);
                                let v = self.mem.read_u64(addr & !7)?;
                                self.seti(ra, v);
                            }
                        }
                        MemOp::Stl => {
                            ea = Some(addr);
                            self.mem.write_u32(addr, self.geti(ra) as u32)?;
                        }
                        MemOp::Stq => {
                            ea = Some(addr);
                            self.mem.write_u64(addr, self.geti(ra))?;
                        }
                        MemOp::Ldt => {
                            ea = Some(addr);
                            let v = self.mem.read_u64(addr)?;
                            if !ra.is_zero() {
                                self.fr[ra.number() as usize] = v;
                            }
                        }
                        MemOp::Stt => {
                            ea = Some(addr);
                            let v = if ra.is_zero() { 0 } else { self.fr[ra.number() as usize] };
                            self.mem.write_u64(addr, v)?;
                        }
                    }
                }
                Inst::Br { op, ra, disp } => {
                    let target = pc.wrapping_add(4).wrapping_add((disp as i64 * 4) as u64);
                    let cond = match op {
                        BrOp::Br | BrOp::Bsr => true,
                        BrOp::Beq => self.geti(ra) == 0,
                        BrOp::Bne => self.geti(ra) != 0,
                        BrOp::Blt => (self.geti(ra) as i64) < 0,
                        BrOp::Ble => (self.geti(ra) as i64) <= 0,
                        BrOp::Bgt => (self.geti(ra) as i64) > 0,
                        BrOp::Bge => (self.geti(ra) as i64) >= 0,
                        BrOp::Blbc => self.geti(ra) & 1 == 0,
                        BrOp::Blbs => self.geti(ra) & 1 == 1,
                        BrOp::Fbeq => self.getf(ra) == 0.0,
                        BrOp::Fbne => self.getf(ra) != 0.0,
                        BrOp::Fblt => self.getf(ra) < 0.0,
                        BrOp::Fbge => self.getf(ra) >= 0.0,
                    };
                    if op.is_unconditional() {
                        self.seti(ra, pc.wrapping_add(4));
                    }
                    if cond {
                        next = target;
                        taken = true;
                    }
                }
                Inst::Jmp { op, ra, rb, .. } => {
                    let target = self.geti(rb) & !3;
                    self.seti(ra, pc.wrapping_add(4));
                    let _ = op; // JMP/JSR/RET differ only in prediction hints
                    next = target;
                    taken = true;
                }
                Inst::Opr { op, ra, rb, rc } => {
                    let a = self.geti(ra) as i64;
                    let b = match rb {
                        Operand::Reg(r) => self.geti(r) as i64,
                        Operand::Lit(l) => l as i64,
                    };
                    let v: i64 = match op {
                        OprOp::Addq => a.wrapping_add(b),
                        OprOp::Subq => a.wrapping_sub(b),
                        OprOp::Addl => (a as i32).wrapping_add(b as i32) as i64,
                        OprOp::Subl => (a as i32).wrapping_sub(b as i32) as i64,
                        OprOp::Mulq => a.wrapping_mul(b),
                        OprOp::Mull => (a as i32).wrapping_mul(b as i32) as i64,
                        OprOp::S4Addq => (a << 2).wrapping_add(b),
                        OprOp::S8Addq => (a << 3).wrapping_add(b),
                        OprOp::And => a & b,
                        OprOp::Bic => a & !b,
                        OprOp::Bis => a | b,
                        OprOp::Ornot => a | !b,
                        OprOp::Xor => a ^ b,
                        OprOp::Eqv => a ^ !b,
                        OprOp::Sll => a.wrapping_shl((b & 63) as u32),
                        OprOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                        OprOp::Sra => a.wrapping_shr((b & 63) as u32),
                        OprOp::Cmpeq => (a == b) as i64,
                        OprOp::Cmplt => (a < b) as i64,
                        OprOp::Cmple => (a <= b) as i64,
                        OprOp::Cmpult => ((a as u64) < b as u64) as i64,
                        OprOp::Cmpule => ((a as u64) <= b as u64) as i64,
                        OprOp::Cmoveq | OprOp::Cmovne | OprOp::Cmovlt | OprOp::Cmovge => {
                            let take = match op {
                                OprOp::Cmoveq => a == 0,
                                OprOp::Cmovne => a != 0,
                                OprOp::Cmovlt => a < 0,
                                OprOp::Cmovge => a >= 0,
                                _ => unreachable!(),
                            };
                            if take {
                                b
                            } else {
                                self.geti(rc) as i64
                            }
                        }
                    };
                    self.seti(rc, v as u64);
                }
                Inst::FOpr { op, fa, fb, fc } => {
                    let a = self.getf(fa);
                    let b = self.getf(fb);
                    match op {
                        FOprOp::Addt => self.setf(fc, a + b),
                        FOprOp::Subt => self.setf(fc, a - b),
                        FOprOp::Mult => self.setf(fc, a * b),
                        FOprOp::Divt => self.setf(fc, a / b),
                        // Comparisons write 2.0 for true, +0.0 for false.
                        FOprOp::Cmpteq => self.setf(fc, if a == b { 2.0 } else { 0.0 }),
                        FOprOp::Cmptlt => self.setf(fc, if a < b { 2.0 } else { 0.0 }),
                        FOprOp::Cmptle => self.setf(fc, if a <= b { 2.0 } else { 0.0 }),
                        FOprOp::Cvtqt => {
                            // Source is the integer bit pattern in fb.
                            let bits = if fb.is_zero() { 0 } else { self.fr[fb.number() as usize] };
                            self.setf(fc, bits as i64 as f64);
                        }
                        FOprOp::Cvttq => {
                            // Truncate toward zero, saturating (matches the
                            // reference interpreter's `as i64`).
                            let v = b as i64;
                            if !fc.is_zero() {
                                self.fr[fc.number() as usize] = v as u64;
                            }
                        }
                        FOprOp::Cpys => {
                            let v = f64::from_bits(
                                (a.to_bits() & 0x8000_0000_0000_0000)
                                    | (b.to_bits() & 0x7FFF_FFFF_FFFF_FFFF),
                            );
                            self.setf(fc, v);
                        }
                        FOprOp::Cpysn => {
                            let v = f64::from_bits(
                                ((!a.to_bits()) & 0x8000_0000_0000_0000)
                                    | (b.to_bits() & 0x7FFF_FFFF_FFFF_FFFF),
                            );
                            self.setf(fc, v);
                        }
                    }
                }
                Inst::Pal { op } => match op {
                    PalOp::Halt => {
                        return Ok(Step { ea: None, taken: false, next: pc, halted: true });
                    }
                    PalOp::WriteInt => {
                        let v = self.geti(Reg::A0) as i64;
                        self.output.push(v);
                    }
                },
            }

        Ok(Step { ea, taken, next, halted: false })
    }
}

/// Convenience: load and run an image functionally.
///
/// # Errors
///
/// See [`Machine::run`].
pub fn run_image(image: &Image, limit: u64) -> Result<RunResult, ExecError> {
    Machine::load(image)?.run(limit, &mut NoTiming)
}

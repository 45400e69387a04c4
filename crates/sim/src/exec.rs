//! Functional execution of linked images.
//!
//! The executor is strict: unmapped or misaligned accesses, undecodable
//! instruction words, and runaway loops are all hard errors, so any OM
//! transformation that corrupts code is caught immediately rather than
//! producing a wrong number.

use crate::mem::{Fault, Mem, STACK_TOP};
use crate::uop::{lower, Op, Uop, REG_SLOTS};
use om_alpha::{decode, Inst, Reg};
use om_linker::{Image, Segment};
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    Fault(Fault),
    BadInstruction { pc: u64, word: u32 },
    BadPc { pc: u64 },
    StepLimit { limit: u64 },
    NoText,
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
            ExecError::NoText => write!(f, "image has no text segment"),
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
    /// Integer registers by executor slot: slot 31 is r31 and stays zero,
    /// slot 32 takes writes to r31 (see [`crate::uop`]).
    pub(crate) ir: [u64; REG_SLOTS],
    /// FP registers (bit patterns of f64), slotted like `ir`.
    pub(crate) fr: [u64; REG_SLOTS],
    pub pc: u64,
    pub(crate) text_base: u64,
    /// The text's words as loaded, decoded only where they execute: the
    /// block engine decodes a word when it builds the block holding it, the
    /// reference interpreter at each fetch. An undecodable word (inter-module
    /// padding) is fatal only if fetched. A store into text writes data
    /// memory's copy, never these words, so it cannot change what executes.
    pub(crate) text: Vec<u32>,
    /// Debug output from `WriteInt`.
    pub output: Vec<i64>,
}

/// How a call of [`Machine::exec`] ended.
pub(crate) struct Ran {
    /// Records retired; a faulting record is not one.
    pub(crate) done: usize,
    /// The last retired record transferred control.
    pub(crate) taken: bool,
    pub(crate) end: End,
}

/// Why [`Machine::exec`] returned.
pub(crate) enum End {
    /// Control left the records (a transfer, or past the last one);
    /// `Machine::pc` holds the next pc.
    Next,
    /// The last retired record was HALT.
    Halt,
    Fault(ExecError),
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

/// The image's text segment (its first), which holds the entry point.
///
/// # Errors
///
/// [`ExecError::NoText`] for an image without segments.
pub fn text_segment(image: &Image) -> Result<&Segment, ExecError> {
    image.segments.first().ok_or(ExecError::NoText)
}

impl Machine {
    /// Loads an image, keeping its text segment's words undecoded.
    /// Undecodable words (inter-module alignment padding) become lazy faults
    /// that trigger only if control ever reaches them.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoText`] for an image without a text segment.
    pub fn load(image: &Image) -> Result<Machine, ExecError> {
        let text_seg = text_segment(image)?;
        let text = (text_seg.bytes.chunks_exact(4))
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
            .collect();
        let mut m = Machine {
            mem: Mem::from_image(image),
            ir: [0; REG_SLOTS],
            fr: [0; REG_SLOTS],
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

    /// `v0`: the program's result at HALT.
    pub(crate) fn result(&self) -> i64 {
        self.ir[Reg::V0.number() as usize] as i64
    }

    fn fetch(&self, pc: u64) -> Result<Inst, ExecError> {
        if pc < self.text_base || !pc.is_multiple_of(4) {
            return Err(ExecError::BadPc { pc });
        }
        let idx = ((pc - self.text_base) / 4) as usize;
        match self.text.get(idx) {
            Some(&word) => decode(word).map_err(|_| ExecError::BadInstruction { pc, word }),
            None => Err(ExecError::BadPc { pc }),
        }
    }

    /// Runs until HALT or `limit` instructions, reporting each retired
    /// instruction to `obs`. The reference interpreter: it lowers each
    /// instruction it fetches and executes it alone.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`]; well-linked programs only ever hit `StepLimit`.
    pub fn run(&mut self, limit: u64, obs: &mut dyn Observer) -> Result<RunResult, ExecError> {
        let mut insts: u64 = 0;
        let mut ea = [0u64];
        loop {
            if insts >= limit {
                return Err(ExecError::StepLimit { limit });
            }
            let pc = self.pc;
            let inst = self.fetch(pc)?;
            let u = lower(pc, &inst);
            let ran = self.exec(std::slice::from_ref(&u), &mut ea);
            insts += ran.done as u64;
            match ran.end {
                End::Next => {
                    let ea = u.is_mem().then_some(ea[0]);
                    obs.retire(&Retired { pc, inst, ea, taken: ran.taken });
                }
                End::Halt => {
                    obs.retire(&Retired { pc, inst, ea: None, taken: false });
                    return Ok(RunResult {
                        result: self.result(),
                        insts,
                        output: std::mem::take(&mut self.output),
                    });
                }
                End::Fault(e) => return Err(e),
            }
        }
    }

    /// Executes `uops`, lowered from consecutive instructions starting at
    /// `self.pc`, until one transfers control, halts or faults, or all
    /// retire: the single source of instruction semantics for both the
    /// reference interpreter and the block engine. A memory record writes
    /// its effective address to its position in `eas`, which must be at
    /// least as long as `uops`. On [`End::Next`] `self.pc` is the next pc.
    pub(crate) fn exec(&mut self, uops: &[Uop], eas: &mut [u64]) -> Ran {
        assert!(eas.len() >= uops.len(), "an address slot per record");
        let ir = &mut self.ir;
        let fr = &mut self.fr;
        let mem = &mut self.mem;
        let fault = |done: usize, f: Fault| Ran { done, taken: false, end: End::Fault(f.into()) };
        let f = f64::from_bits;
        let fcmp = |t: bool| if t { 2.0f64.to_bits() } else { 0 };
        for (i, (u, ea)) in uops.iter().zip(eas.iter_mut()).enumerate() {
            let (a, b, c) = (u.a as usize, u.b as usize, u.c as usize);
            // The integer operands. An operate's second operand is a
            // register, or a literal in `imm` with `b` the zero slot; a
            // memory operation's address is the same sum.
            let x = ir[a] as i64;
            let y = ir[b].wrapping_add(u.imm) as i64;
            match u.op {
                Op::Lda => ir[c] = y as u64,
                Op::Ldl => {
                    *ea = y as u64;
                    match mem.read_u32(*ea) {
                        Ok(v) => ir[c] = v as i32 as i64 as u64,
                        Err(e) => return fault(i, e),
                    }
                }
                Op::Ldq => {
                    *ea = y as u64;
                    match mem.read_u64(*ea) {
                        Ok(v) => ir[c] = v,
                        Err(e) => return fault(i, e),
                    }
                }
                Op::LdqU => {
                    *ea = y as u64 & !7;
                    match mem.read_u64(*ea) {
                        Ok(v) => ir[c] = v,
                        Err(e) => return fault(i, e),
                    }
                }
                Op::Ldt => {
                    *ea = y as u64;
                    match mem.read_u64(*ea) {
                        Ok(v) => fr[c] = v,
                        Err(e) => return fault(i, e),
                    }
                }
                Op::Stl => {
                    *ea = y as u64;
                    if let Err(e) = mem.write_u32(*ea, x as u32) {
                        return fault(i, e);
                    }
                }
                Op::Stq => {
                    *ea = y as u64;
                    if let Err(e) = mem.write_u64(*ea, x as u64) {
                        return fault(i, e);
                    }
                }
                Op::Stt => {
                    *ea = y as u64;
                    if let Err(e) = mem.write_u64(*ea, fr[a]) {
                        return fault(i, e);
                    }
                }
                Op::Nop => {}
                Op::Addq => ir[c] = x.wrapping_add(y) as u64,
                Op::Subq => ir[c] = x.wrapping_sub(y) as u64,
                Op::Addl => ir[c] = (x as i32).wrapping_add(y as i32) as i64 as u64,
                Op::Subl => ir[c] = (x as i32).wrapping_sub(y as i32) as i64 as u64,
                Op::Mulq => ir[c] = x.wrapping_mul(y) as u64,
                Op::Mull => ir[c] = (x as i32).wrapping_mul(y as i32) as i64 as u64,
                Op::S4Addq => ir[c] = (x << 2).wrapping_add(y) as u64,
                Op::S8Addq => ir[c] = (x << 3).wrapping_add(y) as u64,
                Op::And => ir[c] = (x & y) as u64,
                Op::Bic => ir[c] = (x & !y) as u64,
                Op::Bis => ir[c] = (x | y) as u64,
                Op::Ornot => ir[c] = (x | !y) as u64,
                Op::Xor => ir[c] = (x ^ y) as u64,
                Op::Eqv => ir[c] = (x ^ !y) as u64,
                Op::Sll => ir[c] = x.wrapping_shl((y & 63) as u32) as u64,
                Op::Srl => ir[c] = (x as u64).wrapping_shr((y & 63) as u32),
                Op::Sra => ir[c] = x.wrapping_shr((y & 63) as u32) as u64,
                Op::Cmpeq => ir[c] = u64::from(x == y),
                Op::Cmplt => ir[c] = u64::from(x < y),
                Op::Cmple => ir[c] = u64::from(x <= y),
                Op::Cmpult => ir[c] = u64::from((x as u64) < y as u64),
                Op::Cmpule => ir[c] = u64::from((x as u64) <= y as u64),
                // A conditional move that is not taken leaves `c` alone.
                Op::Cmoveq if x == 0 => ir[c] = y as u64,
                Op::Cmovne if x != 0 => ir[c] = y as u64,
                Op::Cmovlt if x < 0 => ir[c] = y as u64,
                Op::Cmovge if x >= 0 => ir[c] = y as u64,
                Op::Cmoveq | Op::Cmovne | Op::Cmovlt | Op::Cmovge => {}
                Op::Addt => fr[c] = (f(fr[a]) + f(fr[b])).to_bits(),
                Op::Subt => fr[c] = (f(fr[a]) - f(fr[b])).to_bits(),
                Op::Mult => fr[c] = (f(fr[a]) * f(fr[b])).to_bits(),
                Op::Divt => fr[c] = (f(fr[a]) / f(fr[b])).to_bits(),
                // Comparisons write 2.0 for true, +0.0 for false.
                Op::Cmpteq => fr[c] = fcmp(f(fr[a]) == f(fr[b])),
                Op::Cmptlt => fr[c] = fcmp(f(fr[a]) < f(fr[b])),
                Op::Cmptle => fr[c] = fcmp(f(fr[a]) <= f(fr[b])),
                // Source is the integer bit pattern in fb.
                Op::Cvtqt => fr[c] = (fr[b] as i64 as f64).to_bits(),
                // Truncate toward zero, saturating (the mini-C interpreter's
                // `as i64`).
                Op::Cvttq => fr[c] = f(fr[b]) as i64 as u64,
                Op::Cpys => fr[c] = (fr[a] & SIGN) | (fr[b] & !SIGN),
                Op::Cpysn => fr[c] = (!fr[a] & SIGN) | (fr[b] & !SIGN),
                Op::Br | Op::Bsr => {
                    ir[c] = u.link;
                    return branch(&mut self.pc, i, true, u);
                }
                Op::Beq => return branch(&mut self.pc, i, x == 0, u),
                Op::Bne => return branch(&mut self.pc, i, x != 0, u),
                Op::Blt => return branch(&mut self.pc, i, x < 0, u),
                Op::Ble => return branch(&mut self.pc, i, x <= 0, u),
                Op::Bgt => return branch(&mut self.pc, i, x > 0, u),
                Op::Bge => return branch(&mut self.pc, i, x >= 0, u),
                Op::Blbc => return branch(&mut self.pc, i, x & 1 == 0, u),
                Op::Blbs => return branch(&mut self.pc, i, x & 1 == 1, u),
                Op::Fbeq => return branch(&mut self.pc, i, f(fr[a]) == 0.0, u),
                Op::Fbne => return branch(&mut self.pc, i, f(fr[a]) != 0.0, u),
                Op::Fblt => return branch(&mut self.pc, i, f(fr[a]) < 0.0, u),
                Op::Fbge => return branch(&mut self.pc, i, f(fr[a]) >= 0.0, u),
                Op::Jmp | Op::Jsr => {
                    // Read the target before writing the link: `jsr ra, (ra)`.
                    let target = ir[b] & !3;
                    ir[c] = u.link;
                    self.pc = target;
                    return Ran { done: i + 1, taken: true, end: End::Next };
                }
                Op::Halt => return Ran { done: i + 1, taken: false, end: End::Halt },
                Op::WriteInt => self.output.push(x),
            }
        }
        if let Some(last) = uops.last() {
            self.pc = last.link;
        }
        Ran { done: uops.len(), taken: false, end: End::Next }
    }
}

/// The sign bit of an IEEE double.
const SIGN: u64 = 1 << 63;

/// Ends a [`Machine::exec`] call at the branch record `i`, taken or not.
#[inline(always)]
fn branch(pc: &mut u64, i: usize, taken: bool, u: &Uop) -> Ran {
    *pc = if taken { u.imm } else { u.link };
    Ran { done: i + 1, taken, end: End::Next }
}

/// Convenience: load and run an image functionally.
///
/// # Errors
///
/// See [`Machine::run`].
pub fn run_image(image: &Image, limit: u64) -> Result<RunResult, ExecError> {
    Machine::load(image)?.run(limit, &mut NoTiming)
}

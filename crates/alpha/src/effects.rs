//! Register define/use sets, used by the compile-time scheduler, OM's
//! transformations, and the rescheduler to reason about dependences.
//!
//! Sets are 32-bit masks over register numbers, kept separately for the
//! integer and floating-point files. `r31`/`f31` never appear in any set
//! (reads of the zero register carry no dependence and writes are discarded).

use crate::inst::{Inst, JmpOp, MemOp, Operand, PalOp};
use crate::reg::Reg;

/// Define/use summary of a single instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects {
    /// Integer registers read.
    pub int_uses: u32,
    /// Integer registers written.
    pub int_defs: u32,
    /// Floating-point registers read.
    pub fp_uses: u32,
    /// Floating-point registers written.
    pub fp_defs: u32,
    /// True if the instruction reads memory.
    pub mem_read: bool,
    /// True if the instruction writes memory.
    pub mem_write: bool,
    /// True for control transfers (branches, jumps, halt).
    pub control: bool,
}

fn bit(r: Reg) -> u32 {
    if r.is_zero() {
        0
    } else {
        1 << r.number()
    }
}

impl Effects {
    /// Computes the define/use summary of `inst`.
    pub fn of(inst: &Inst) -> Effects {
        let mut e = Effects::default();
        match *inst {
            Inst::Mem { op, ra, rb, .. } => {
                e.int_uses |= bit(rb);
                match op {
                    MemOp::Lda | MemOp::Ldah => e.int_defs |= bit(ra),
                    MemOp::Ldl | MemOp::Ldq | MemOp::LdqU => {
                        e.int_defs |= bit(ra);
                        e.mem_read = true;
                    }
                    MemOp::Ldt => {
                        e.fp_defs |= bit(ra);
                        e.mem_read = true;
                    }
                    MemOp::Stl | MemOp::Stq => {
                        e.int_uses |= bit(ra);
                        e.mem_write = true;
                    }
                    MemOp::Stt => {
                        e.fp_uses |= bit(ra);
                        e.mem_write = true;
                    }
                }
            }
            Inst::Br { op, ra, .. } => {
                e.control = true;
                if op.is_unconditional() {
                    // BR/BSR write the return address.
                    e.int_defs |= bit(ra);
                } else if op.ra_is_fp() {
                    e.fp_uses |= bit(ra);
                } else {
                    e.int_uses |= bit(ra);
                }
            }
            Inst::Jmp { op, ra, rb, .. } => {
                e.control = true;
                e.int_uses |= bit(rb);
                if !matches!(op, JmpOp::Ret) || !ra.is_zero() {
                    e.int_defs |= bit(ra);
                }
            }
            Inst::Opr { op, ra, rb, rc } => {
                e.int_uses |= bit(ra);
                if let Operand::Reg(r) = rb {
                    e.int_uses |= bit(r);
                }
                if op.is_cmov() {
                    // A conditional move also reads its destination.
                    e.int_uses |= bit(rc);
                }
                e.int_defs |= bit(rc);
            }
            Inst::FOpr { op, fa, fb, fc } => {
                e.fp_uses |= bit(fa) | bit(fb);
                let _ = op;
                e.fp_defs |= bit(fc);
            }
            Inst::Pal { op } => match op {
                PalOp::Halt => {
                    e.control = true;
                    e.int_uses |= bit(Reg::V0);
                }
                PalOp::WriteInt => {
                    e.int_uses |= bit(Reg::A0);
                }
            },
        }
        e
    }

    /// True if `self` must stay ordered after `earlier` (RAW, WAR, WAW on a
    /// register file, any memory conflict, or either being a control
    /// transfer). This is the dependence test of
    /// [`crate::timing::list_schedule`], the compiler's and OM's scheduler.
    pub fn depends_on(&self, earlier: &Effects) -> bool {
        if self.control || earlier.control {
            return true;
        }
        // Register hazards.
        if self.int_uses & earlier.int_defs != 0
            || self.int_defs & earlier.int_uses != 0
            || self.int_defs & earlier.int_defs != 0
            || self.fp_uses & earlier.fp_defs != 0
            || self.fp_defs & earlier.fp_uses != 0
            || self.fp_defs & earlier.fp_defs != 0
        {
            return true;
        }
        // Memory hazards: without alias analysis (the paper notes OM lacks
        // the compiler's alias information), loads may not cross stores and
        // stores may not cross each other.
        if (self.mem_read && earlier.mem_write)
            || (self.mem_write && earlier.mem_read)
            || (self.mem_write && earlier.mem_write)
        {
            return true;
        }
        false
    }

    /// True if the instruction reads integer register `r`.
    pub fn reads_int(&self, r: Reg) -> bool {
        self.int_uses & bit(r) != 0
    }

    /// True if the instruction writes integer register `r`.
    pub fn writes_int(&self, r: Reg) -> bool {
        self.int_defs & bit(r) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BrOp, OprOp};

    #[test]
    fn load_reads_base_and_memory() {
        let e = Effects::of(&Inst::ldq(Reg::PV, 144, Reg::GP));
        assert!(e.reads_int(Reg::GP));
        assert!(e.writes_int(Reg::PV));
        assert!(e.mem_read && !e.mem_write);
    }

    #[test]
    fn store_reads_value_and_writes_memory() {
        let e = Effects::of(&Inst::stq(Reg::RA, 0, Reg::SP));
        assert!(e.reads_int(Reg::RA) && e.reads_int(Reg::SP));
        assert_eq!(e.int_defs, 0);
        assert!(e.mem_write);
    }

    #[test]
    fn zero_register_carries_no_dependence() {
        let e = Effects::of(&Inst::nop());
        assert_eq!(e.int_uses, 0);
        assert_eq!(e.int_defs, 0);
        let e = Effects::of(&Inst::unop());
        assert_eq!((e.int_uses, e.int_defs), (0, 0));
    }

    #[test]
    fn raw_dependence_detected() {
        let def = Effects::of(&Inst::ldq(Reg::new(1), 0, Reg::GP));
        let use_ = Effects::of(&Inst::Opr {
            op: OprOp::Addq,
            ra: Reg::new(1),
            rb: Operand::Lit(1),
            rc: Reg::new(2),
        });
        assert!(use_.depends_on(&def));
        assert!(!def.depends_on(&Effects::of(&Inst::nop())));
    }

    #[test]
    fn stores_do_not_reorder() {
        let s1 = Effects::of(&Inst::stq(Reg::new(1), 0, Reg::SP));
        let s2 = Effects::of(&Inst::stq(Reg::new(2), 8, Reg::SP));
        assert!(s2.depends_on(&s1));
    }

    #[test]
    fn independent_loads_may_reorder() {
        let l1 = Effects::of(&Inst::ldq(Reg::new(1), 0, Reg::GP));
        let l2 = Effects::of(&Inst::ldq(Reg::new(2), 8, Reg::GP));
        assert!(!l2.depends_on(&l1));
    }

    #[test]
    fn control_serializes() {
        let br = Effects::of(&Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 0 });
        let add = Effects::of(&Inst::mov(Reg::new(1), Reg::new(2)));
        assert!(add.depends_on(&br));
        assert!(br.depends_on(&add));
    }

    #[test]
    fn bsr_defines_return_address() {
        let e = Effects::of(&Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 5 });
        assert!(e.writes_int(Reg::RA));
        assert!(e.control);
    }

    #[test]
    fn cmov_reads_destination() {
        let e = Effects::of(&Inst::Opr {
            op: OprOp::Cmovne,
            ra: Reg::new(1),
            rb: Operand::Reg(Reg::new(2)),
            rc: Reg::new(3),
        });
        assert!(e.reads_int(Reg::new(3)));
        assert!(e.writes_int(Reg::new(3)));
    }
}

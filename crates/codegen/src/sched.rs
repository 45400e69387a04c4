//! Compile-time pipeline scheduling (per basic block, latency-driven).
//!
//! This reproduces the DEC `-O2` behavior the paper calls out: list
//! scheduling that is free to move the prologue's GP-setting pair away from
//! the procedure entry when other instructions look more urgent. That motion
//! is precisely what prevents OM-simple from redirecting BSRs past the
//! prologue ("unfortunately, compile-time scheduling often moved them"), and
//! what OM-full undoes by restoring the pair to its logical place.
//!
//! The scheduler is [`list_schedule`], shared with OM's final rescheduling
//! pass. It never reorders across a dependence
//! ([`om_alpha::Effects::depends_on`]: register hazards, memory conflicts,
//! control), so scheduled code is behaviorally identical — property-tested
//! at the pipeline level.

use crate::code::{CBlock, CFunc};
use om_alpha::timing::{list_schedule, ListScheduler};

/// Schedules every block of `f` in place.
pub fn schedule_func(f: &mut CFunc) {
    let mut sched = ListScheduler::default();
    for b in &mut f.blocks {
        sched.schedule(&mut b.insts, |i| &i.inst);
    }
}

/// List-schedules one block ([`list_schedule`]).
pub fn schedule_block(b: &mut CBlock) {
    list_schedule(&mut b.insts, |i| &i.inst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeBuffer, Mark};
    use om_alpha::{Inst, Reg};
    use om_objfile::Visibility;

    fn block_of(insts: Vec<(Inst, Mark)>) -> CBlock {
        let mut c = CodeBuffer::new();
        for (i, m) in insts {
            c.push(i, m);
        }
        let f = c.finish("t".into(), Visibility::Exported);
        f.blocks.into_iter().next().unwrap()
    }

    #[test]
    fn dependences_are_preserved() {
        // load r1 ; add r2 = r1 + r1 — the add may never precede the load.
        let mut b = block_of(vec![
            (Inst::ldq(Reg::new(1), 0, Reg::GP), Mark::None),
            (
                Inst::Opr {
                    op: om_alpha::OprOp::Addq,
                    ra: Reg::new(1),
                    rb: om_alpha::Operand::Reg(Reg::new(1)),
                    rc: Reg::new(2),
                },
                Mark::None,
            ),
        ]);
        schedule_block(&mut b);
        assert!(matches!(b.insts[0].inst, Inst::Mem { .. }));
    }

    #[test]
    fn independent_long_latency_work_hoists() {
        // mov ; load — the load (latency 3) should be scheduled first.
        let mut b = block_of(vec![
            (Inst::mov(Reg::new(3), Reg::new(4)), Mark::None),
            (Inst::ldq(Reg::new(1), 0, Reg::GP), Mark::None),
        ]);
        schedule_block(&mut b);
        assert!(matches!(b.insts[0].inst, Inst::Mem { op, .. } if op.is_load()));
    }

    #[test]
    fn stores_keep_their_order() {
        let mut b = block_of(vec![
            (Inst::stq(Reg::new(1), 0, Reg::SP), Mark::None),
            (Inst::stq(Reg::new(2), 8, Reg::SP), Mark::None),
        ]);
        schedule_block(&mut b);
        match (&b.insts[0].inst, &b.insts[1].inst) {
            (Inst::Mem { disp: 0, .. }, Inst::Mem { disp: 8, .. }) => {}
            other => panic!("stores reordered: {other:?}"),
        }
    }

    #[test]
    fn gp_pair_can_sink_below_frame_setup() {
        // A frame-setup chain with more dependents than the GP pair: the
        // scheduler prefers it, sinking the GPDISP pair off the entry — the
        // phenomenon the paper reports.
        let lo = 97;
        let mut c = CodeBuffer::new();
        c.push(
            Inst::ldah(Reg::GP, 0, Reg::PV),
            Mark::GpdispHi { lo, anchor: crate::code::Anchor::Entry },
        );
        c.push_with_id(lo, Inst::lda(Reg::GP, 0, Reg::GP), Mark::GpdispLo { hi: 0 });
        c.inst(Inst::lda(Reg::SP, -32, Reg::SP));
        c.inst(Inst::stq(Reg::RA, 16, Reg::SP));
        c.inst(Inst::stq(Reg::new(9), 24, Reg::SP));
        let f = c.finish("t".into(), Visibility::Exported);
        let mut b = f.blocks.into_iter().next().unwrap();
        schedule_block(&mut b);
        // The sp-adjust has fan-out 2 (both stores) vs the ldah's 1, at equal
        // critical path length, so it is picked first.
        assert!(
            matches!(b.insts[0].inst, Inst::Mem { ra, .. } if ra == Reg::SP),
            "expected frame setup first, got {}",
            b.insts[0].inst
        );
        // The pair's relative order survives.
        let hi_pos = b.insts.iter().position(|i| matches!(i.mark, Mark::GpdispHi { .. })).unwrap();
        let lo_pos = b.insts.iter().position(|i| matches!(i.mark, Mark::GpdispLo { .. })).unwrap();
        assert!(hi_pos < lo_pos);
    }

    #[test]
    fn single_instruction_blocks_untouched() {
        let mut b = block_of(vec![(Inst::ret(), Mark::None)]);
        schedule_block(&mut b);
        assert_eq!(b.insts.len(), 1);
    }
}

//! Unit tests of the rescheduler: block-set preservation, pinning rules,
//! and quadword alignment placement.

use om_alpha::{Inst, Reg};
use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::resched::{align_backward_targets_where, backward_target_ids, schedule_proc};
use om_core::sym::{translate, SMark, SymProc};
use om_core::{OmStats, SymProgram};
use om_linker::{build_symbol_table, select_modules};
use std::collections::HashSet;

fn program(src: &str) -> SymProgram {
    let objects = vec![
        crt0::module().unwrap(),
        compile_source("m", src, &CompileOpts::o2()).unwrap(),
    ];
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    translate(&modules, &symtab).unwrap()
}

/// Index of `main` in module 1 (the compiled source).
fn main_index(program: &SymProgram) -> usize {
    let m = &program.modules[1];
    m.procs.iter().position(|p| m.proc_name(p) == "main").unwrap()
}

fn main_proc(src: &str) -> SymProc {
    let program = program(src);
    program.modules[1].procs[main_index(&program)].clone()
}

#[test]
fn scheduling_permutes_within_blocks_only() {
    let mut p = main_proc(
        "int a; int b;
         int main() {
           int i = 0;
           int s = 0;
           for (i = 0; i < 8; i = i + 1) { s = s + a * 3 + b * 5 + i; }
           a = s;
           return s;
         }",
    );
    let before = p.insts.clone();

    // Compute the block partition of the original order.
    let mut leaders: HashSet<usize> = HashSet::new();
    leaders.insert(0);
    for (k, i) in before.iter().enumerate() {
        if i.inst.is_control() {
            leaders.insert(k + 1);
        }
        if let SMark::BrLocal { target } = i.mark {
            let pos = before.iter().position(|x| x.id == target).unwrap();
            leaders.insert(pos);
        }
    }
    let mut starts: Vec<usize> = leaders.into_iter().filter(|&k| k < before.len()).collect();
    starts.sort_unstable();

    schedule_proc(&mut p.insts);
    assert_eq!(p.insts.len(), before.len(), "scheduling neither adds nor removes");

    // Each original block's id-set must map to the same positions.
    for (bi, &s) in starts.iter().enumerate() {
        let e = starts.get(bi + 1).copied().unwrap_or(before.len());
        let orig: HashSet<u32> = before[s..e].iter().map(|i| i.id).collect();
        let now: HashSet<u32> = p.insts[s..e].iter().map(|i| i.id).collect();
        assert_eq!(orig, now, "block {bi} must keep its instruction set");
    }
}

#[test]
fn branch_targets_keep_their_position_at_block_heads() {
    let mut p = main_proc(
        "int g;
         int main() {
           int i = 0;
           while (i < 5) { g = g + i; i = i + 1; }
           return g;
         }",
    );
    schedule_proc(&mut p.insts);
    // Every branch target must still be the first instruction of its block:
    // i.e., the instruction before a target must be a control transfer or
    // the target must be pinned at a block head (no non-control instruction
    // was hoisted above it within its block).
    let targets: Vec<u32> = p
        .insts
        .iter()
        .filter_map(|i| match i.mark {
            SMark::BrLocal { target } => Some(target),
            _ => None,
        })
        .collect();
    for t in targets {
        let pos = p.insts.iter().position(|i| i.id == t).unwrap();
        if pos == 0 {
            continue;
        }
        let prev = &p.insts[pos - 1];
        assert!(
            prev.inst.is_control() || prev.id < t,
            "instruction {} (originally after target {t}) may not precede it",
            prev.id
        );
    }
}

#[test]
fn alignment_pads_backward_targets_to_quadwords() {
    use om_core::{optimize_and_link, OmLevel};
    let objects = vec![
        crt0::module().unwrap(),
        compile_source(
            "m",
            "int g;
             int main() {
               int i = 0;
               for (i = 0; i < 100; i = i + 1) { g = g + i * 3; }
               return g;
             }",
            &CompileOpts::o2(),
        )
        .unwrap(),
    ];
    let out = optimize_and_link(&objects, &[], OmLevel::FullSched).unwrap();
    // Find every backward branch in the final image and check its target is
    // 8-byte aligned.
    let text = &out.image.segments[0];
    let mut checked = 0;
    for (k, w) in text.bytes.chunks_exact(4).enumerate() {
        let word = u32::from_le_bytes(w.try_into().unwrap());
        let Ok(Inst::Br { op, disp, .. }) = om_alpha::decode(word) else { continue };
        if matches!(op, om_alpha::BrOp::Bsr) {
            continue; // calls target procedure entries (16-aligned anyway)
        }
        if disp < 0 {
            let pc = text.base + 4 * k as u64;
            let target = (pc as i64 + 4 + disp as i64 * 4) as u64;
            assert_eq!(target % 8, 0, "backward target {target:#x} must be aligned");
            checked += 1;
        }
    }
    assert!(checked > 0, "the loop must produce a backward conditional branch");
    let _ = Reg::ZERO;
}

/// Checks `after`, the alignment of `before` (the procedure at byte offset
/// `base` of its module), with `keep` selecting target ranks: the UNOPs
/// are new instructions, each directly in front of a selected target; every
/// selected target is quadword-aligned; and nothing else moved. Returns the
/// UNOP positions.
fn padded_positions(
    before: &SymProc,
    after: &SymProc,
    base: u64,
    keep: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let old: HashSet<u32> = before.insts.iter().map(|i| i.id).collect();
    let pads: Vec<usize> = (after.insts.iter().enumerate())
        .filter(|(_, i)| !old.contains(&i.id))
        .map(|(k, _)| k)
        .collect();
    let kept: Vec<_> = after.insts.iter().filter(|i| old.contains(&i.id)).copied().collect();
    assert_eq!(kept, before.insts, "alignment only inserts");
    let targets = backward_target_ids(before);
    assert_eq!(backward_target_ids(after), targets, "padding adds no target");
    let pos = |id: u32| after.insts.iter().position(|i| i.id == id).unwrap();
    let selected: Vec<u32> =
        (targets.iter().enumerate()).filter(|(rank, _)| keep(*rank)).map(|(_, &id)| id).collect();
    for &id in &selected {
        assert_eq!((base + 4 * pos(id) as u64) % 8, 0, "selected target {id} is aligned");
    }
    for &k in &pads {
        assert_eq!(after.insts[k].inst, Inst::unop());
        assert!(selected.contains(&after.insts[k + 1].id), "UNOP at {k} pads a selected target");
    }
    pads
}

#[test]
fn alignment_pads_several_targets_of_one_procedure() {
    let src = "int g; int h;
         int main() {
           int i = 0;
           int j = 0;
           for (i = 0; i < 10; i = i + 1) { g = g + i; }
           for (i = 0; i < 10; i = i + 1) { h = h + g * i; }
           for (i = 0; i < 10; i = i + 1) { g = g - h; }
           for (i = 0; i < 10; i = i + 1) { for (j = 0; j < 3; j = j + 1) { h = h + j; } }
           for (i = 0; i < 10; i = i + 1) { g = g + h + i; }
           return g + h;
         }";
    // Scheduled, not yet aligned: the input of both alignment entry points.
    let mut scheduled = program(src);
    om_core::resched::run_with(&mut scheduled, &mut OmStats::default(), false, None);
    let pi = main_index(&scheduled);
    let before = scheduled.modules[1].procs[pi].clone();
    assert!(backward_target_ids(&before).len() >= 5, "one target per loop");
    let base_of = |p: &SymProgram| -> u64 {
        p.modules[1].procs[..pi].iter().map(|q| 4 * q.insts.len() as u64).sum()
    };

    // Every target, through the pass itself.
    let mut all = program(src);
    let mut stats = OmStats::default();
    om_core::resched::run_with(&mut all, &mut stats, true, None);
    let pads = padded_positions(&before, &all.modules[1].procs[pi], base_of(&all), |_| true);
    assert!(pads.len() > 1, "main needs several UNOPs: {pads:?}");
    let total: usize = (all.modules.iter().zip(&scheduled.modules))
        .flat_map(|(a, s)| a.procs.iter().zip(&s.procs))
        .map(|(a, s)| a.insts.len() - s.insts.len())
        .sum();
    assert_eq!(stats.unops_inserted, total);

    // Even ranks of main only.
    let even = |rank: usize| rank.is_multiple_of(2);
    let mut some = scheduled.clone();
    let mut stats = OmStats::default();
    align_backward_targets_where(&mut some, &mut stats, |mi, p, rank| {
        mi == 1 && p == pi && even(rank)
    });
    let pads = padded_positions(&before, &some.modules[1].procs[pi], base_of(&some), even);
    assert!(pads.len() > 1, "the even ranks of main need several UNOPs: {pads:?}");
    assert_eq!(stats.unops_inserted, pads.len());
    let only_main = (some.modules.iter().enumerate())
        .flat_map(|(mi, m)| m.procs.iter().enumerate().map(move |(p, q)| (mi, p, q)))
        .filter(|&(mi, p, _)| (mi, p) != (1, pi))
        .all(|(mi, p, q)| q.insts == scheduled.modules[mi].procs[p].insts);
    assert!(only_main, "no other procedure is padded");
}

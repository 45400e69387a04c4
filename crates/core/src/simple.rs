//! OM-simple: the address-calculation optimizations a traditional linker
//! could perform — local analysis only, one-for-one instruction replacement,
//! never moving code (§4).
//!
//! * address loads are *converted* to LDA (16-bit GP reach) or LDAH+fixed-up
//!   use (32-bit reach), or *nullified* to no-ops when every use can absorb a
//!   16-bit GP displacement;
//! * JSRs become BSRs when the destination is near enough;
//! * a BSR can skip the destination's prologue — and its PV load can be
//!   nullified — only when the GPDISP pair is literally the first two
//!   instructions (compile-time scheduling usually moved it, which is why
//!   this rarely fires, exactly as the paper reports);
//! * after-call GP resets become no-ops when caller and callee share a GAT;
//! * commons are sorted by size near the GAT (a layout policy, applied when
//!   the optimized program is linked).

use crate::analysis::{
    call_sites, load_dest, prologue_pair_at_entry, reads_pv_outside, use_index, CallKind,
    Snapshot, UseKind,
};
use crate::fault::{armed, FaultKind, FaultPlan};
use crate::pipeline::CallBook;
use crate::stats::OmStats;
use crate::sym::{GlobalRef, OmError, SMark, SymProgram};
use om_alpha::{BrOp, Inst, MemOp, Reg};
use std::collections::HashSet;

/// True if `disp` fits a branch's signed 21-bit word-displacement field.
pub fn bsr_reachable(from: u64, to: u64) -> bool {
    let delta = to as i64 - (from as i64 + 4);
    if delta % 4 != 0 {
        return false;
    }
    let words = delta / 4;
    (-(1 << 20)..(1 << 20)).contains(&words)
}

/// Runs OM-simple over the program under `options` (layout policy,
/// preemptible symbols, fault plan).
///
/// # Errors
///
/// Propagates snapshot (layout) failures.
pub fn run_with(
    program: &mut SymProgram,
    stats: &mut OmStats,
    book: &mut CallBook,
    options: &crate::pipeline::OmOptions,
) -> Result<(), OmError> {
    program.preserve_gat = true;
    let snap = Snapshot::capture_with(program, options.sort_commons)?;
    let preempt: HashSet<&str> = options.preemptible.iter().map(String::as_str).collect();
    let m = crate::obs::PassMeter::begin("calls", stats);
    transform_calls(program, &snap, stats, book, &preempt);
    m.end(stats);
    let m = crate::obs::PassMeter::begin("convert", stats);
    transform_address_loads(program, &snap, stats, &preempt, options.fault.as_ref());
    m.end(stats);
    Ok(())
}

/// Rewrites call sites: JSR→BSR, prologue skipping, GP-reset nullification.
pub fn transform_calls(
    program: &mut SymProgram,
    snap: &Snapshot,
    stats: &mut OmStats,
    book: &mut CallBook,
    preempt: &HashSet<&str>,
) {
    let single_group = snap.single_group();
    let nmods = program.modules.len();
    for mi in 0..nmods {
        let nprocs = program.modules[mi].procs.len();
        for pi in 0..nprocs {
            let sites = call_sites(&program.modules[mi].procs[pi]);
            let uses = use_index(&program.modules[mi].procs[pi]);
            for site in sites {
                let jsr_id = program.modules[mi].procs[pi].insts[site.at].id;
                let key = (mi, pi, jsr_id);

                // GP reset removal condition. A preemptible callee might be
                // replaced at dynamic-link time by code in another GAT group,
                // so nothing about it can be assumed.
                let same_gp_target = match &site.kind {
                    CallKind::DirectJsr { target, .. } | CallKind::Bsr { target, .. } => {
                        if preempt.contains(crate::analysis::ref_name(program, target)) {
                            false
                        } else {
                            match target {
                                GlobalRef::Def { module, .. } => {
                                    snap.group(mi) == snap.group(*module)
                                }
                                GlobalRef::Common { .. } => single_group,
                            }
                        }
                    }
                    CallKind::Indirect => single_group,
                };
                if let Some((hi, lo)) = site.gp_reset {
                    if same_gp_target {
                        let proc = &mut program.modules[mi].procs[pi];
                        for id in [hi, lo] {
                            let idx = proc.index_of(id);
                            proc.insts[idx].inst = Inst::nop();
                            proc.insts[idx].mark = SMark::None;
                        }
                        stats.insts_nullified += 2;
                        book.entry(key).or_insert((false, true)).1 = false;
                    }
                }

                // JSR → BSR conversion (never for preemptible targets: the
                // dynamic linker may bind the call elsewhere).
                let CallKind::DirectJsr { load, target } = site.kind else { continue };
                if preempt.contains(crate::analysis::ref_name(program, &target)) {
                    continue;
                }
                let Some((tm, tp)) = program.proc_of(&target) else { continue };
                let jsr_addr = snap.inst_addr(program, mi, pi, site.at);
                let target_addr = snap.addr(&target);
                if !bsr_reachable(jsr_addr, target_addr) {
                    continue;
                }

                // Decide whether the BSR can skip the prologue and drop PV.
                let mut addend = 0i64;
                let mut kill_load = false;
                let same_gp = snap.group(mi) == snap.group(tm);
                if same_gp {
                    let tproc = &program.modules[tm].procs[tp];
                    if let Some((hi, lo)) = prologue_pair_at_entry(tproc) {
                        let sole_use = uses
                            .get(&load)
                            .map(|u| u.len() == 1 && u[0].1 == UseKind::Jsr)
                            .unwrap_or(false);
                        if sole_use && !reads_pv_outside(tproc, &[hi, lo]) {
                            addend = 8;
                            kill_load = true;
                        }
                    }
                }

                let proc = &mut program.modules[mi].procs[pi];
                proc.insts[site.at].inst = Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 };
                proc.insts[site.at].mark = SMark::BrSym { target: target.clone(), addend };
                stats.calls_jsr_to_bsr += 1;
                if kill_load {
                    let li = proc.index_of(load);
                    proc.insts[li].inst = Inst::nop();
                    proc.insts[li].mark = SMark::None;
                    stats.insts_nullified += 1;
                    stats.addr_loads_nullified += 1;
                    book.entry(key).or_insert((true, false)).0 = false;
                }
            }
        }
    }
}

/// Converts or nullifies GAT address loads.
pub fn transform_address_loads(
    program: &mut SymProgram,
    snap: &Snapshot,
    stats: &mut OmStats,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) {
    let nmods = program.modules.len();
    for mi in 0..nmods {
        let gp = snap.gp(mi);
        let nprocs = program.modules[mi].procs.len();
        for pi in 0..nprocs {
            let uses = use_index(&program.modules[mi].procs[pi]);
            let loads = crate::analysis::literal_loads(&program.modules[mi].procs[pi]);
            // [`FaultKind::NullifyDelete`] removes an instruction mid-walk;
            // deferring the deletion keeps the collected indices valid.
            let mut delete_after: Vec<crate::sym::InstId> = Vec::new();
            for k in loads {
                let (load_id, target, addend, escaping, rd) = {
                    let i = &program.modules[mi].procs[pi].insts[k];
                    let SMark::Literal { target, addend, escaping } = &i.mark else {
                        unreachable!()
                    };
                    (i.id, target.clone(), *addend, *escaping, load_dest(i))
                };
                // A preemptible object's final address is unknown until
                // dynamic-link time: its GAT slot must survive untouched.
                if preempt.contains(crate::analysis::ref_name(program, &target)) {
                    continue;
                }
                let us = uses.get(&load_id).cloned().unwrap_or_default();
                if us.iter().any(|&(_, k)| k == UseKind::Jsr) {
                    // A PV load for a call that stayed a JSR: the call-site
                    // transform owns it.
                    continue;
                }

                let target_addr = snap.addr(&target).wrapping_add(addend as u64);
                let disp = target_addr as i64 - gp as i64;
                let rewritable = !escaping && !us.is_empty()
                    && us.iter().all(|&(_, k)| k == UseKind::Base);

                let proc = &mut program.modules[mi].procs[pi];
                if rewritable {
                    let use_disps: Vec<(usize, i64)> = us
                        .iter()
                        .map(|&(ui, _)| match proc.insts[ui].inst {
                            Inst::Mem { disp, .. } => (ui, disp as i64),
                            _ => unreachable!("base use is a memory instruction"),
                        })
                        .collect();

                    let all_fit_16 = use_disps
                        .iter()
                        .all(|&(_, d)| i16::try_from(disp + d).is_ok());
                    if all_fit_16 {
                        // Fault point: every use's rewritten addend is off by
                        // +8 — carried consistently into the relocations, so
                        // only execution can notice.
                        let skew = if armed(fault, FaultKind::AddendSkew) { 8 } else { 0 };
                        // Nullify: every use absorbs its own GP displacement,
                        // addressing directly off GP.
                        for &(ui, d) in &use_disps {
                            set_mem_disp(&mut proc.insts[ui].inst, 0);
                            set_mem_base(&mut proc.insts[ui].inst, Reg::GP);
                            proc.insts[ui].mark = SMark::Gprel {
                                target: target.clone(),
                                addend: addend + d + skew,
                            };
                        }
                        if armed(fault, FaultKind::NullifyDelete) {
                            // Fault point: drop the load instead of no-op'ing
                            // it, leaving the nullification count inflated.
                            delete_after.push(load_id);
                        } else {
                            proc.insts[k].inst = Inst::nop();
                            proc.insts[k].mark = SMark::None;
                        }
                        stats.insts_nullified += 1;
                        stats.addr_loads_nullified += 1;
                        continue;
                    }

                    // 32-bit conversion requires a single shared displacement
                    // so the LDAH high half is exact for every use.
                    let d0 = use_disps[0].1;
                    if use_disps.iter().all(|&(_, d)| d == d0) {
                        proc.insts[k].inst = Inst::Mem {
                            op: MemOp::Ldah,
                            ra: rd,
                            rb: Reg::GP,
                            disp: 0,
                        };
                        proc.insts[k].mark = SMark::GprelHi {
                            target: target.clone(),
                            addend: addend + d0,
                        };
                        for &(ui, _) in &use_disps {
                            set_mem_disp(&mut proc.insts[ui].inst, 0);
                            set_mem_base(&mut proc.insts[ui].inst, rd);
                            proc.insts[ui].mark = SMark::GprelLo {
                                target: target.clone(),
                                addend: addend + d0,
                                hi_addend: addend + d0,
                            };
                        }
                        stats.addr_loads_converted += 1;
                    }
                    continue;
                }

                // Escaping (or use-free) load: the register must still receive
                // the exact address, so only a single-instruction LDA works —
                // and only within the 16-bit window.
                if i16::try_from(disp).is_ok() {
                    proc.insts[k].inst = Inst::Mem {
                        op: MemOp::Lda,
                        ra: rd,
                        rb: Reg::GP,
                        disp: 0,
                    };
                    proc.insts[k].mark = SMark::Gprel { target: target.clone(), addend };
                    // The load is no longer a GAT literal; detach its use
                    // links (the consumers are unchanged — the register holds
                    // the same address).
                    for i in proc.insts.iter_mut() {
                        if matches!(
                            i.mark,
                            SMark::LituseAddr { load } | SMark::LituseBase { load }
                                if load == load_id
                        ) {
                            i.mark = SMark::None;
                        }
                    }
                    stats.addr_loads_converted += 1;
                }
            }
            if !delete_after.is_empty() {
                let doomed: HashSet<crate::sym::InstId> = delete_after.into_iter().collect();
                program.modules[mi].procs[pi].delete(&doomed);
            }
        }
    }
}

fn set_mem_disp(inst: &mut Inst, d: i16) {
    if let Inst::Mem { disp, .. } = inst {
        *disp = d;
    } else {
        panic!("displacement rewrite on non-memory instruction");
    }
}

fn set_mem_base(inst: &mut Inst, base: Reg) {
    if let Inst::Mem { rb, .. } = inst {
        *rb = base;
    } else {
        panic!("base rewrite on non-memory instruction");
    }
}

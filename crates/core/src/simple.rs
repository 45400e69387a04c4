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
//!
//! The call-site rewriter ([`collect_sites`], [`convert_calls`]) and the
//! address-load pass ([`transform_address_loads`]) are OM-full's too. The
//! only difference the paper draws between the levels is how an instruction
//! goes away: [`Removal::Nullify`] here, [`Removal::Delete`] in
//! [`crate::full`]. Every pass removes instructions through `remove`.

use crate::analysis::{
    call_sites, load_dest, prologue_pair_at_entry, reads_pv_outside, ref_name, sole_jsr_use,
    use_index, CallKind, Snapshot, UseKind,
};
use crate::fault::{armed, FaultKind, FaultPlan};
use crate::pipeline::CallBook;
use crate::stats::OmStats;
use crate::sym::{GlobalRef, InstId, OmError, SMark, SymProc, SymProgram};
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
    let sites = collect_sites(program, &snap);
    let fault = options.fault.as_ref();
    convert_calls(
        program, &snap, &sites, &HashSet::new(), Removal::Nullify, stats, book, &preempt, fault,
    );
    m.end(stats);
    let m = crate::obs::PassMeter::begin("convert", stats);
    transform_address_loads(program, &snap, Removal::Nullify, stats, &preempt, fault);
    m.end(stats);
    Ok(())
}

/// How a rewrite removes an instruction — the one difference the paper
/// draws between OM-simple and OM-full (§4).
#[derive(Debug, Clone, Copy)]
pub enum Removal {
    /// OM-simple: replace it with a no-op in place (`insts_nullified`).
    Nullify,
    /// OM-full: delete it, shrinking the code (`insts_deleted`).
    Delete,
}

/// One call site with its caller coordinates, frozen under a snapshot.
#[derive(Debug)]
pub struct Site {
    pub mi: usize,
    pub pi: usize,
    /// Address of the call instruction under the snapshot (deletions shift
    /// indices, so it is taken before any rewrite).
    pub addr: u64,
    pub jsr_id: InstId,
    pub kind: CallKind,
    pub gp_reset: Option<(InstId, InstId)>,
}

/// Every call site of the program, in module/procedure/code order.
pub fn collect_sites(program: &SymProgram, snap: &Snapshot) -> Vec<Site> {
    let mut sites = Vec::new();
    for (mi, m) in program.modules.iter().enumerate() {
        for (pi, p) in m.procs.iter().enumerate() {
            for s in call_sites(p) {
                sites.push(Site {
                    mi,
                    pi,
                    addr: snap.inst_addr(mi, pi, s.at),
                    jsr_id: p.insts[s.at].id,
                    kind: s.kind,
                    gp_reset: s.gp_reset,
                });
            }
        }
    }
    sites
}

/// Rewrites call sites: GP-reset removal, JSR→BSR, and prologue skipping
/// with PV-load removal. `dropped` names the procedures whose prologue GP
/// setup OM-full already deleted (their callers enter at `entry+0` and
/// need no PV); OM-simple passes an empty set. Returns true if anything
/// changed.
#[allow(clippy::too_many_arguments)]
pub fn convert_calls(
    program: &mut SymProgram,
    snap: &Snapshot,
    sites: &[Site],
    dropped: &HashSet<GlobalRef>,
    removal: Removal,
    stats: &mut OmStats,
    book: &mut CallBook,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) -> bool {
    let single_group = snap.single_group();
    let mut changed = false;
    for s in sites {
        let key = (s.mi, s.pi, s.jsr_id);

        // GP reset removal condition. A preemptible callee might be
        // replaced at dynamic-link time by code in another GAT group, so
        // nothing about it can be assumed.
        let same_gp_target = match s.kind {
            CallKind::DirectJsr { sym, .. } | CallKind::Bsr { sym, .. } => {
                let target = program.target(s.mi, sym);
                !preempt.contains(ref_name(program, target))
                    && match target {
                        GlobalRef::Def { module, .. } => snap.group(s.mi) == snap.group(module),
                        GlobalRef::Common { .. } => single_group,
                    }
            }
            CallKind::Indirect => single_group,
        };
        if let Some((hi, lo)) = s.gp_reset {
            if same_gp_target {
                remove(&mut program.modules[s.mi].procs[s.pi], &[hi, lo], removal, stats);
                book.entry(key).or_insert((false, true)).1 = false;
                changed = true;
            }
        }

        // JSR → BSR conversion (never for preemptible targets: the dynamic
        // linker may bind the call elsewhere).
        let CallKind::DirectJsr { load, sym } = s.kind else { continue };
        let target = program.target(s.mi, sym);
        if preempt.contains(ref_name(program, target)) {
            continue;
        }
        let Some((tm, tp)) = program.proc_of(target) else { continue };
        if !bsr_reachable(s.addr, snap.addr(target)) {
            continue;
        }

        // Decide the entry point and whether PV dies. A callee whose
        // prologue OM-full dropped needs no PV at all; otherwise the BSR can
        // skip a same-GP callee's prologue, and drop the PV load, only when
        // the GPDISP pair is literally the first two instructions.
        let sole_use = sole_jsr_use(&program.modules[s.mi].procs[s.pi], load);
        let tproc = &program.modules[tm].procs[tp];
        let entry_pair = prologue_pair_at_entry(tproc);
        let (mut addend, kill_load) = if dropped.contains(&target) {
            (0, sole_use)
        } else if same_gp_target {
            match entry_pair {
                Some((hi, lo)) if sole_use && !reads_pv_outside(tproc, &[hi, lo]) => (8, true),
                _ => (0, false),
            }
        } else {
            // Different GP group: the callee still derives its GP from PV,
            // so the PV load must stay; BSR is still profitable.
            (0, false)
        };

        // Fault point: a `BSR target+8` against a callee whose entry holds
        // real code (no GPDISP pair there to skip) silently drops two
        // instructions from the callee's execution.
        if addend == 0 && entry_pair.is_none() && armed(fault, FaultKind::BsrSkew) {
            addend = 8;
        }
        // Fault point: the PV load dies below, but the branch forgets the
        // +8 prologue skip that compensates — the callee rebuilds GP from a
        // stale PV.
        if addend == 8 && kill_load && armed(fault, FaultKind::PvLoadDrop) {
            addend = 0;
        }

        let p = &mut program.modules[s.mi].procs[s.pi];
        let at = p.index_of(s.jsr_id);
        p.insts[at].inst = Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 };
        p.insts[at].mark = SMark::BrSym { sym, addend };
        stats.calls_jsr_to_bsr += 1;
        changed = true;
        if kill_load {
            remove(p, &[load], removal, stats);
            stats.addr_loads_nullified += 1;
            book.entry(key).or_insert((true, false)).0 = false;
        }
    }
    changed
}

/// Removes the instructions `ids` from `p` the way `removal` says: the only
/// way any OM pass removes an instruction.
pub(crate) fn remove(p: &mut SymProc, ids: &[InstId], removal: Removal, stats: &mut OmStats) {
    match removal {
        Removal::Nullify => {
            for &id in ids {
                let k = p.index_of(id);
                p.insts[k].inst = Inst::nop();
                p.insts[k].mark = SMark::None;
            }
            stats.insts_nullified += ids.len();
        }
        Removal::Delete => {
            p.delete(ids);
            stats.insts_deleted += ids.len();
        }
    }
}

/// Converts GAT address loads, and removes (the way `removal` says) every
/// load whose uses all absorb its GP displacement. Returns true if it
/// converted or removed anything.
pub fn transform_address_loads(
    program: &mut SymProgram,
    snap: &Snapshot,
    removal: Removal,
    stats: &mut OmStats,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) -> bool {
    let mut changed = false;
    let nmods = program.modules.len();
    for mi in 0..nmods {
        let gp = snap.gp(mi);
        let nprocs = program.modules[mi].procs.len();
        for pi in 0..nprocs {
            let uses = use_index(&program.modules[mi].procs[pi]);
            let loads = crate::analysis::literal_loads(&program.modules[mi].procs[pi]);
            // The walk indexes instructions, so removal waits until it ends.
            let mut doomed = Vec::new();
            let mut faulted = None;
            for k in loads {
                let i = &program.modules[mi].procs[pi].insts[k];
                let SMark::Literal { sym, addend, escaping } = i.mark else { unreachable!() };
                let (load_id, rd, target) = (i.id, load_dest(i), program.target(mi, sym));
                // A preemptible object's final address is unknown until
                // dynamic-link time: its GAT slot must survive untouched.
                if preempt.contains(ref_name(program, target)) {
                    continue;
                }
                let us = uses.get(&load_id).cloned().unwrap_or_default();
                if us.iter().any(|&(_, k)| k == UseKind::Jsr) {
                    // A PV load for a call that stayed a JSR: the call-site
                    // transform owns it.
                    continue;
                }

                let target_addr = snap.addr(target).wrapping_add(addend as u64);
                let disp = target_addr as i64 - gp as i64;
                let rewritable = !escaping && !us.is_empty()
                    && us.iter().all(|&(_, k)| k == UseKind::Base);

                let proc = &mut program.modules[mi].procs[pi];
                if rewritable {
                    // Translation guarantees every base use is a memory
                    // instruction.
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
                        // Every use absorbs its own GP displacement,
                        // addressing directly off GP; the load goes.
                        for &(ui, d) in &use_disps {
                            set_mem_disp(&mut proc.insts[ui].inst, 0);
                            set_mem_base(&mut proc.insts[ui].inst, Reg::GP);
                            proc.insts[ui].mark = SMark::Gprel { sym, addend: addend + d + skew };
                        }
                        if armed(fault, FaultKind::NullifyDelete) {
                            faulted = Some(load_id);
                        } else {
                            doomed.push(load_id);
                        }
                        stats.addr_loads_nullified += 1;
                        changed = true;
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
                        proc.insts[k].mark = SMark::GprelHi { sym, addend: addend + d0 };
                        for &(ui, _) in &use_disps {
                            set_mem_disp(&mut proc.insts[ui].inst, 0);
                            set_mem_base(&mut proc.insts[ui].inst, rd);
                            proc.insts[ui].mark = SMark::GprelLo {
                                sym,
                                addend: addend + d0,
                                hi_addend: addend + d0,
                            };
                        }
                        stats.addr_loads_converted += 1;
                        changed = true;
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
                    proc.insts[k].mark = SMark::Gprel { sym, addend };
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
                    changed = true;
                }
            }
            let p = &mut program.modules[mi].procs[pi];
            remove(p, &doomed, removal, stats);
            if let Some(id) = faulted {
                // Fault point: delete the load whatever the level, but count
                // it as nullified — the instruction accounting no longer
                // balances at either level.
                p.delete(&[id]);
                stats.insts_nullified += 1;
            }
        }
    }
    changed
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

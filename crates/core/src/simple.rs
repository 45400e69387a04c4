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
//! The call-site rewriter (`convert_calls`) and the address-load pass
//! (`transform_address_loads`) are OM-full's too: OM-simple runs them once
//! over a freshly collected `analysis::Residue`, OM-full once per round
//! over what the last round left. The only difference the paper draws
//! between the levels is how an instruction goes away: [`Removal::Nullify`]
//! here, [`Removal::Delete`] in [`crate::full`]. Every pass removes
//! instructions through `remove`, one batch per procedure.

use crate::analysis::{
    load_dest, prologue_pair_at_entry, reads_pv_outside, ref_name, CallKind, Residue, Snapshot,
    UseKind,
};
use crate::fault::{armed, FaultKind, FaultPlan};
use crate::pipeline::CallBook;
use crate::stats::OmStats;
use crate::sym::{GlobalRef, InstId, OmError, SMark, SymProgram};
use om_alpha::{field, BrOp, Inst, MemOp, Reg};
use std::collections::HashSet;

/// Runs OM-simple over the program under `options` (layout policy,
/// preemptible symbols, fault plan): one round of the passes OM-full
/// repeats. `book` gets each call site's `(needs PV load, needs GP reset)`
/// as the round left it, keyed by `(module, procedure, call id)`.
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
    run_observed(program, stats, book, options, &mut |_, _| {})
}

/// [`run_with`], handing `each_round` the program and the snapshot the
/// round decides against, before the round changes anything (a test
/// compares it with a fresh [`Snapshot::capture_with`]).
///
/// # Errors
///
/// Propagates snapshot (layout) failures.
pub fn run_observed(
    program: &mut SymProgram,
    stats: &mut OmStats,
    book: &mut CallBook,
    options: &crate::pipeline::OmOptions,
    each_round: &mut dyn FnMut(&SymProgram, &Snapshot),
) -> Result<(), OmError> {
    run(program, stats, options, each_round)?.fill_book(book);
    Ok(())
}

/// [`run_observed`], returning the residue the round left instead of
/// filling a call book.
pub(crate) fn run(
    program: &mut SymProgram,
    stats: &mut OmStats,
    options: &crate::pipeline::OmOptions,
    each_round: &mut dyn FnMut(&SymProgram, &Snapshot),
) -> Result<Residue, OmError> {
    program.preserve_gat = true;
    let mut residue = {
        let _s = om_obs::span("residue");
        Residue::collect(program)
    };
    let snap = Snapshot::of_residue(program, &residue, options.sort_commons)?;
    each_round(program, &snap);
    let preempt: HashSet<&str> = options.preemptible.iter().map(String::as_str).collect();
    let fault = options.fault.as_ref();
    let mut m = crate::obs::PassMeter::begin("calls", stats);
    m.arg("sites", residue.live_sites.len());
    let removal = Removal::Nullify;
    convert_calls(program, &snap, &mut residue, &[], removal, stats, &preempt, fault);
    m.end(stats);
    let mut m = crate::obs::PassMeter::begin("convert", stats);
    m.arg("loads", residue.live_loads.len());
    transform_address_loads(program, &snap, &mut residue, removal, stats, &preempt, fault);
    m.end(stats);
    Ok(residue)
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

/// Rewrites the live call sites of `residue`: GP-reset removal, JSR→BSR,
/// and prologue skipping with PV-load removal. `dropped` lists, sorted, the
/// procedures whose prologue GP setup OM-full drops this round (their
/// callers enter at `entry+0` and need no PV); OM-simple passes none. Each
/// procedure's removals, its dropped prologue included, go in one batch at
/// the end of its sites, so a callee dropped this round reads as having no
/// entry pair whether or not its batch has run. Returns true if anything
/// changed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn convert_calls(
    program: &mut SymProgram,
    snap: &Snapshot,
    residue: &mut Residue,
    dropped: &[usize],
    removal: Removal,
    stats: &mut OmStats,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) -> bool {
    let single_group = snap.single_group();
    let mut changed = false;
    let live = std::mem::take(&mut residue.live_sites);
    let mut drops = dropped.iter().copied().peekable();
    let mut doomed: Vec<InstId> = Vec::new();
    let mut next = 0;
    loop {
        // The next procedure with work: a live site, a dropped prologue, or
        // both.
        let site_proc = live.get(next).map(|&si| residue.sites[si as usize].proc);
        let Some(proc) = site_proc.into_iter().chain(drops.peek().copied()).min() else {
            break;
        };
        let (mi, pi) = residue.coords(proc);
        doomed.clear();
        if drops.next_if_eq(&proc).is_some() {
            let p = &program.modules[mi].procs[pi];
            let (hi, lo) = prologue_pair_at_entry(p).expect("dropped for its entry pair");
            doomed.extend([hi, lo]);
        }
        while let Some(si) = live.get(next).map(|&si| si as usize) {
            if residue.sites[si].proc != proc {
                break;
            }
            next += 1;
            let s = &residue.sites[si];

            // GP reset removal condition. A preemptible callee might be
            // replaced at dynamic-link time by code in another GAT group, so
            // nothing about it can be assumed.
            let same_gp_target = match s.kind {
                CallKind::DirectJsr { sym, .. } | CallKind::Bsr { sym, .. } => {
                    let target = program.target(mi, sym);
                    !preempt.contains(ref_name(program, target))
                        && match target {
                            GlobalRef::Def { module, .. } => snap.group(mi) == snap.group(module),
                            GlobalRef::Common(_) | GlobalRef::Unresolved => single_group,
                        }
                }
                CallKind::Indirect => single_group,
            };
            if let Some((hi, lo)) = s.gp_reset.filter(|_| same_gp_target) {
                doomed.extend([hi, lo]);
                residue.sites[si].gp_reset = None;
                changed = true;
            }
            changed |= convert_jsr(
                program, snap, residue, si, dropped, same_gp_target, &mut doomed, stats, preempt,
                fault,
            );
        }
        remove(program, residue, proc, &doomed, removal, stats);
    }
    // A site is settled once it holds no GP reset and is no longer a JSR,
    // a load once removed.
    let (sites, loads) = (&residue.sites, &residue.loads);
    residue.live_sites = live;
    residue.live_sites.retain(|&si| {
        let s = &sites[si as usize];
        s.gp_reset.is_some() || matches!(s.kind, CallKind::DirectJsr { .. })
    });
    residue.live_loads.retain(|&li| loads[li as usize].live);
    changed
}

/// JSR → BSR conversion of site `si`, if it is a direct JSR (never for
/// preemptible targets: the dynamic linker may bind the call elsewhere).
/// A PV load that dies joins `doomed`. Returns true if the call changed.
#[allow(clippy::too_many_arguments)]
fn convert_jsr(
    program: &mut SymProgram,
    snap: &Snapshot,
    residue: &mut Residue,
    si: usize,
    dropped: &[usize],
    same_gp_target: bool,
    doomed: &mut Vec<InstId>,
    stats: &mut OmStats,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) -> bool {
    let s = &residue.sites[si];
    let CallKind::DirectJsr { load, sym } = s.kind else { return false };
    let (mi, pi) = residue.coords(s.proc);
    let target = program.target(mi, sym);
    if preempt.contains(ref_name(program, target)) {
        return false;
    }
    let Some(callee) = residue.proc_of(target) else { return false };
    let Some(entry) = snap.addr(target) else { return false };
    if !field::branch_reaches(residue.site_addr(snap, si), entry) {
        return false;
    }

    // Decide the entry point and whether PV dies. A callee whose prologue
    // OM-full dropped needs no PV at all; otherwise the BSR can skip a
    // same-GP callee's prologue, and drop the PV load, only when the GPDISP
    // pair is literally the first two instructions.
    let sole_use = s.load.is_some_and(|li| residue.sole_jsr_use(program, li));
    let (tm, tp) = residue.coords(callee);
    let tproc = &program.modules[tm].procs[tp];
    let is_dropped = dropped.binary_search(&callee).is_ok();
    let entry_pair = if is_dropped { None } else { prologue_pair_at_entry(tproc) };
    let (mut addend, kill_load) = if is_dropped {
        (0, sole_use)
    } else if same_gp_target {
        match entry_pair {
            Some((hi, lo)) if sole_use && !reads_pv_outside(tproc, &[hi, lo]) => (8, true),
            _ => (0, false),
        }
    } else {
        // Different GP group: the callee still derives its GP from PV, so
        // the PV load must stay; BSR is still profitable.
        (0, false)
    };

    // Fault point: a `BSR target+8` against a callee whose entry holds real
    // code (no GPDISP pair there to skip) silently drops two instructions
    // from the callee's execution.
    if addend == 0 && entry_pair.is_none() && armed(fault, FaultKind::BsrSkew) {
        addend = 8;
    }
    // Fault point: the PV load dies below, but the branch forgets the +8
    // prologue skip that compensates — the callee rebuilds GP from a stale
    // PV.
    if addend == 8 && kill_load && armed(fault, FaultKind::PvLoadDrop) {
        addend = 0;
    }

    let at = residue.at(s.proc, s.jsr).expect("OM deletes no call");
    let li = s.load;
    let sm = &mut program.modules[mi];
    let addend = sm.addends.store(addend);
    let i = &mut sm.procs[pi].insts[at];
    i.inst = Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 };
    i.mark = SMark::BrSym { sym, addend };
    residue.sites[si].kind = CallKind::Bsr { sym, addend };
    stats.calls_jsr_to_bsr += 1;
    if kill_load {
        doomed.push(load);
        stats.addr_loads_nullified += 1;
        residue.sites[si].pv = false;
        if let Some(li) = li {
            residue.loads[li].live = false;
        }
    }
    true
}

/// Removes the instructions `ids` of procedure `proc` the way `removal`
/// says, keeping `residue`'s instruction indices current: the only way any
/// OM pass removes an instruction.
pub(crate) fn remove(
    program: &mut SymProgram,
    residue: &mut Residue,
    proc: usize,
    ids: &[InstId],
    removal: Removal,
    stats: &mut OmStats,
) {
    if ids.is_empty() {
        return;
    }
    let (mi, pi) = residue.coords(proc);
    let sm = &mut program.modules[mi];
    let p = &mut sm.procs[pi];
    match removal {
        Removal::Nullify => {
            for &id in ids {
                let k = residue.at(proc, id).unwrap_or_else(|| {
                    panic!("dangling instruction id {id} in {}", sm.source.symbol(p.sym).name)
                });
                p.insts[k].inst = Inst::nop();
                p.insts[k].mark = SMark::None;
            }
            stats.insts_nullified += ids.len();
        }
        Removal::Delete => {
            residue.delete(proc, p, ids);
            stats.insts_deleted += ids.len();
        }
    }
}

/// Converts the live GAT address loads of `residue`, and removes (the way
/// `removal` says) every load whose uses all absorb its GP displacement,
/// one batch per procedure. Returns true if it converted or removed
/// anything.
pub(crate) fn transform_address_loads(
    program: &mut SymProgram,
    snap: &Snapshot,
    residue: &mut Residue,
    removal: Removal,
    stats: &mut OmStats,
    preempt: &HashSet<&str>,
    fault: Option<&FaultPlan>,
) -> bool {
    let mut live = std::mem::take(&mut residue.live_loads);
    let mut changed = false;
    // Reused from load to load: its consumers, and their displacements.
    let mut us: Vec<(usize, UseKind)> = Vec::new();
    let mut use_disps: Vec<(usize, i64)> = Vec::new();
    let mut doomed: Vec<InstId> = Vec::new();
    let mut next = 0;
    while let Some(&first) = live.get(next) {
        let proc = residue.loads[first as usize].proc;
        let (mi, pi) = residue.coords(proc);
        let gp = snap.gp(mi);
        // Removal waits until the procedure's loads are done: the walk
        // reads instructions by index.
        doomed.clear();
        let mut faulted = None;
        while let Some(li) = live.get(next).map(|&li| li as usize) {
            if residue.loads[li].proc != proc {
                break;
            }
            next += 1;
            let load_id = residue.loads[li].id;
            let k = residue.at(proc, load_id).expect("a live load is in its procedure");
            let i = &program.modules[mi].procs[pi].insts[k];
            let SMark::Literal { sym, addend, escaping } = i.mark else { unreachable!() };
            let addend = program.modules[mi].addend(addend);
            let (rd, target) = (load_dest(i), program.target(mi, sym));
            // An unresolved target has no address, and a preemptible one's is
            // unknown until dynamic-link time: its GAT slot survives untouched.
            let Some(target_addr) = snap.addr(target) else { continue };
            if preempt.contains(ref_name(program, target)) {
                continue;
            }
            us.clear();
            us.extend(residue.uses(program, li));
            if us.iter().any(|&(_, k)| k == UseKind::Jsr) {
                // A PV load for a call that stayed a JSR: the call-site
                // transform owns it.
                continue;
            }

            let disp = field::displacement(target_addr.wrapping_add_signed(addend), gp);
            let rewritable =
                !escaping && !us.is_empty() && us.iter().all(|&(_, k)| k == UseKind::Base);

            let sm = &mut program.modules[mi];
            let (proc_insts, addends) = (&mut sm.procs[pi].insts, &mut sm.addends);
            if rewritable {
                // Translation guarantees every base use is a memory
                // instruction.
                use_disps.clear();
                use_disps.extend(us.iter().map(|&(ui, _)| match proc_insts[ui].inst {
                    Inst::Mem { disp, .. } => (ui, disp as i64),
                    _ => unreachable!("base use is a memory instruction"),
                }));

                let all_fit_16 =
                    use_disps.iter().all(|&(_, d)| field::mem_disp(disp.wrapping_add(d)).is_some());
                if all_fit_16 {
                    // Fault point: every use's rewritten addend is off by
                    // +8 — carried consistently into the relocations, so
                    // only execution can notice.
                    let skew = if armed(fault, FaultKind::AddendSkew) { 8 } else { 0 };
                    // Every use absorbs its own GP displacement, addressing
                    // directly off GP; the load goes.
                    for &(ui, d) in &use_disps {
                        rebase(&mut proc_insts[ui].inst, Reg::GP);
                        let addend = addends.store(addend.wrapping_add(d + skew));
                        proc_insts[ui].mark = SMark::Gprel { sym, addend };
                    }
                    if armed(fault, FaultKind::NullifyDelete) {
                        faulted = Some(load_id);
                    } else {
                        doomed.push(load_id);
                    }
                    residue.loads[li].live = false;
                    stats.addr_loads_nullified += 1;
                    changed = true;
                    continue;
                }

                // 32-bit conversion requires a single shared displacement
                // so the LDAH high half is exact for every use, and a
                // target within the pair's ±2 GB of GP; otherwise the load
                // stays.
                let d0 = use_disps[0].1;
                if use_disps.iter().all(|&(_, d)| d == d0)
                    && field::split_pair(disp.wrapping_add(d0)).is_some()
                {
                    proc_insts[k].inst =
                        Inst::Mem { op: MemOp::Ldah, ra: rd, rb: Reg::GP, disp: 0 };
                    // One addend for both halves.
                    let addend = addends.store(addend.wrapping_add(d0));
                    proc_insts[k].mark = SMark::GprelHi { sym, addend };
                    for &(ui, _) in &use_disps {
                        rebase(&mut proc_insts[ui].inst, rd);
                        proc_insts[ui].mark = SMark::GprelLo { sym, addend };
                    }
                    residue.loads[li].live = false;
                    stats.addr_loads_converted += 1;
                    changed = true;
                }
                continue;
            }

            // Escaping (or use-free) load: the register must still receive
            // the exact address, so only a single-instruction LDA works —
            // and only within the 16-bit window.
            if field::mem_disp(disp).is_some() {
                proc_insts[k].inst = Inst::Mem { op: MemOp::Lda, ra: rd, rb: Reg::GP, disp: 0 };
                proc_insts[k].mark = SMark::Gprel { sym, addend: addends.store(addend) };
                // The load is no longer a GAT literal; detach its use links
                // (the consumers are unchanged — the register holds the
                // same address).
                for &(ui, _) in &us {
                    proc_insts[ui].mark = SMark::None;
                }
                residue.loads[li].live = false;
                stats.addr_loads_converted += 1;
                changed = true;
            }
        }
        remove(program, residue, proc, &doomed, removal, stats);
        if let Some(id) = faulted {
            // Fault point: delete the load whatever the level, but count it
            // as nullified — the instruction accounting no longer balances
            // at either level.
            residue.delete(proc, &mut program.modules[mi].procs[pi], &[id]);
            stats.insts_nullified += 1;
        }
    }
    let loads = &residue.loads;
    live.retain(|&li| loads[li as usize].live);
    residue.live_loads = live;
    changed
}

/// Points memory instruction `inst` at `base` with a zero displacement,
/// which the relocation of its new mark patches.
fn rebase(inst: &mut Inst, base: Reg) {
    let Inst::Mem { rb, disp, .. } = inst else { panic!("rebase of a non-memory instruction") };
    (*rb, *disp) = (base, 0);
}

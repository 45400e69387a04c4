//! Whole-program analysis over the symbolic form: layout snapshots, call-site
//! recognition, address-load use indexing, and the address-taken set.
//!
//! This is the "rather deeper understanding of the program control flow than
//! has hitherto been typical for linkers" (§3) — easy here because the loader
//! format hands OM procedure boundaries, GP ownership, and LITUSE links.

use crate::sym::{GlobalRef, InstId, OmError, SAnchor, SInst, SMark, SymProc, SymProgram};
use om_alpha::{Effects, Inst, JmpOp, Reg};
use om_linker::{layout, sym_addr, LayoutOpts, ProgramLayout, SymbolTable};
use om_objfile::{Module, RelocKind};
use std::collections::{HashMap, HashSet};

/// Emitted modules with their symbol table and layout. OM-simple and each
/// OM-full round capture a provisional one for reachability decisions; the
/// pipeline returns the final link's from
/// [`crate::optimize_and_link_artifacts`].
///
/// Distances only shrink as OM deletes instructions and GAT slots, so any
/// "fits in 16/21 bits" decision made against a snapshot remains valid for
/// the final layout.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub modules: Vec<Module>,
    pub symtab: SymbolTable,
    pub layout: ProgramLayout,
}

impl Snapshot {
    /// Emits the current symbolic program and lays it out with OM's layout
    /// policy (commons sorted by size near the GAT, unless ablated).
    ///
    /// # Errors
    ///
    /// Propagates symbol-table or layout failures.
    pub fn capture(program: &SymProgram) -> Result<Snapshot, OmError> {
        Snapshot::capture_with(program, true)
    }

    /// [`Snapshot::capture`] with an explicit common-sorting policy (used by
    /// the ablation harness).
    ///
    /// # Errors
    ///
    /// Propagates symbol-table or layout failures.
    pub fn capture_with(program: &SymProgram, sort_commons: bool) -> Result<Snapshot, OmError> {
        let modules = crate::sym::emit_all(program)?;
        let symtab = om_linker::build_symbol_table(&modules)?;
        let lay = layout(&modules, &symtab, &LayoutOpts { sort_commons })?;
        Ok(Snapshot { modules, symtab, layout: lay })
    }

    /// Address of a resolved reference.
    ///
    /// # Panics
    ///
    /// Panics on dangling references (cannot happen after `capture`).
    pub fn addr(&self, r: &GlobalRef) -> u64 {
        match r {
            GlobalRef::Def { module, sym } => {
                sym_addr(&self.modules, &self.symtab, &self.layout, *module, *sym)
                    .expect("resolved reference")
            }
            GlobalRef::Common { name } => self.layout.common_addr[name],
        }
    }

    /// GP value used by module `mi`.
    pub fn gp(&self, mi: usize) -> u64 {
        self.layout.gp_values[self.layout.group_of_module[mi] as usize]
    }

    /// GAT group of module `mi`.
    pub fn group(&self, mi: usize) -> u32 {
        self.layout.group_of_module[mi]
    }

    /// True when the whole program shares one GP value — the common case the
    /// paper highlights ("most often one is enough"), which lets OM drop
    /// GP-resets even after calls through procedure variables.
    pub fn single_group(&self) -> bool {
        self.layout.gp_values.len() == 1
    }

    /// Text address of instruction `idx` of procedure `pi` in module `mi`.
    pub fn inst_addr(&self, program: &SymProgram, mi: usize, pi: usize, idx: usize) -> u64 {
        let mut off = 0u64;
        for p in &program.modules[mi].procs[..pi] {
            off += 4 * p.insts.len() as u64;
        }
        self.layout.bases[mi].text + off + 4 * idx as u64
    }

    /// Number of merged GAT slots in this snapshot.
    pub fn gat_slots(&self) -> usize {
        self.layout.gat_slots
    }
}

/// How a call site transfers control.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// `ldq pv, lit(gp); jsr` — the conservative sequence.
    DirectJsr { load: InstId, target: GlobalRef },
    /// A BSR the compiler already emitted (intra-unit static call) or that a
    /// previous OM pass produced (`addend` = 8 when it skips the prologue).
    Bsr { target: GlobalRef, addend: i64 },
    /// JSR through a procedure variable: target unknowable.
    Indirect,
}

/// One recognized call site in a procedure.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the JSR/BSR instruction.
    pub at: usize,
    pub kind: CallKind,
    /// Ids of the after-call GP-reset pair `(hi, lo)`, if present.
    pub gp_reset: Option<(InstId, InstId)>,
}

/// Finds the call sites of `proc`.
pub fn call_sites(proc: &SymProc) -> Vec<CallSite> {
    // Map jsr id → gp-reset pair ids.
    let mut resets: HashMap<InstId, (InstId, InstId)> = HashMap::new();
    for i in &proc.insts {
        if let SMark::GpdispHi { lo, anchor: SAnchor::AfterCall(jsr) } = i.mark {
            resets.insert(jsr, (i.id, lo));
        }
    }
    let mut out = Vec::new();
    for (k, i) in proc.insts.iter().enumerate() {
        match (&i.inst, &i.mark) {
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::LituseJsr { load }) => {
                let target = proc
                    .insts
                    .iter()
                    .find(|l| l.id == *load)
                    .and_then(|l| match &l.mark {
                        SMark::Literal { target, .. } => Some(target.clone()),
                        _ => None,
                    });
                let kind = match target {
                    Some(t) => CallKind::DirectJsr { load: *load, target: t },
                    None => CallKind::Indirect, // load already transformed
                };
                out.push(CallSite { at: k, kind, gp_reset: resets.get(&i.id).copied() });
            }
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::None) => {
                out.push(CallSite {
                    at: k,
                    kind: CallKind::Indirect,
                    gp_reset: resets.get(&i.id).copied(),
                });
            }
            (Inst::Br { op: om_alpha::BrOp::Bsr, .. }, SMark::BrSym { target, addend }) => {
                out.push(CallSite {
                    at: k,
                    kind: CallKind::Bsr { target: target.clone(), addend: *addend },
                    gp_reset: resets.get(&i.id).copied(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Index of LITUSE consumers per address load: `load id → (use index, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    Base,
    Jsr,
    Addr,
}

/// Builds the use index of a procedure.
pub fn use_index(proc: &SymProc) -> HashMap<InstId, Vec<(usize, UseKind)>> {
    let mut map: HashMap<InstId, Vec<(usize, UseKind)>> = HashMap::new();
    for (k, i) in proc.insts.iter().enumerate() {
        let (load, kind) = match i.mark {
            SMark::LituseBase { load } => (load, UseKind::Base),
            SMark::LituseJsr { load } => (load, UseKind::Jsr),
            SMark::LituseAddr { load } => (load, UseKind::Addr),
            _ => continue,
        };
        map.entry(load).or_default().push((k, kind));
    }
    map
}

/// Computes the set of procedures whose address escapes: referenced by an
/// escaping GAT load anywhere, stored in initialized data (`RefQuad`), or
/// the program entry. OM-full must keep these procedures' prologues.
pub fn address_taken(program: &SymProgram) -> HashSet<GlobalRef> {
    let mut taken = HashSet::new();
    for (mi, m) in program.modules.iter().enumerate() {
        for p in &m.procs {
            // Loads whose value feeds address arithmetic count as escapes
            // too (conservative: the computed address could be anything).
            let uses = use_index(p);
            for i in &p.insts {
                if let SMark::Literal { target, escaping, .. } = &i.mark {
                    let has_addr_use = uses
                        .get(&i.id)
                        .is_some_and(|us| us.iter().any(|&(_, k)| k == UseKind::Addr));
                    if *escaping || has_addr_use {
                        taken.insert(target.clone());
                    }
                }
            }
        }
        // Data-section pointers to procedures (initialized fnptr globals).
        for r in &m.source.relocs {
            if r.sec == om_objfile::SecId::Text {
                continue;
            }
            if let RelocKind::RefQuad { sym, .. } = r.kind {
                taken.insert(crate::sym::resolve_ref(&m.source, &program.symtab, mi, sym));
            }
        }
        // The entry procedure.
        for p in &m.procs {
            if p.name == "__start" {
                taken.insert(GlobalRef::Def { module: mi, sym: p.sym });
            }
        }
    }
    taken
}

/// True if the procedure's first two instructions are its entry GPDISP pair.
pub fn prologue_pair_at_entry(proc: &SymProc) -> Option<(InstId, InstId)> {
    let first = proc.insts.first()?;
    if let SMark::GpdispHi { lo, anchor: SAnchor::Entry } = first.mark {
        let second = proc.insts.get(1)?;
        if second.id == lo {
            return Some((first.id, lo));
        }
    }
    None
}

/// Finds the entry GPDISP pair anywhere in the procedure.
pub fn find_entry_pair(proc: &SymProc) -> Option<(usize, usize)> {
    let hi = proc.insts.iter().position(
        |i| matches!(i.mark, SMark::GpdispHi { anchor: SAnchor::Entry, .. }),
    )?;
    let SMark::GpdispHi { lo, .. } = proc.insts[hi].mark else { unreachable!() };
    let lo_idx = proc.insts.iter().position(|i| i.id == lo)?;
    Some((hi, lo_idx))
}

/// True if any instruction outside `exclude` reads the *incoming* PV value —
/// a conservative veto on removing PV setup for this procedure.
///
/// PV reads at JSR instructions don't count: every call site establishes its
/// own PV immediately beforehand (the compiler's calling convention), so a
/// recursive procedure's internal calls never depend on the PV its callers
/// passed in.
pub fn reads_pv_outside(proc: &SymProc, exclude: &[InstId]) -> bool {
    proc.insts.iter().any(|i| {
        !exclude.contains(&i.id)
            && !matches!(i.inst, Inst::Jmp { op: JmpOp::Jsr, .. })
            && Effects::of(&i.inst).reads_int(Reg::PV)
    })
}

/// Counts instructions that retire as no-ops.
pub fn count_nops(proc: &SymProc) -> usize {
    proc.insts.iter().filter(|i| i.inst.is_nop()).count()
}

/// All instructions of a procedure as `(index, &SInst)` that are address
/// loads still in GAT form.
pub fn literal_loads(proc: &SymProc) -> Vec<usize> {
    proc.insts
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i.mark, SMark::Literal { .. }))
        .map(|(k, _)| k)
        .collect()
}

/// The link name a [`GlobalRef`] resolves to.
pub fn ref_name<'a>(program: &'a SymProgram, r: &'a GlobalRef) -> &'a str {
    match r {
        GlobalRef::Def { module, sym } => &program.modules[*module].source.symbol(*sym).name,
        GlobalRef::Common { name } => name,
    }
}

/// The destination register of an address load (`ra` of the LDQ).
pub fn load_dest(i: &SInst) -> Reg {
    match i.inst {
        Inst::Mem { ra, .. } => ra,
        _ => panic!("address load is not a memory instruction"),
    }
}

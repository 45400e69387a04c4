//! Whole-program analysis over the symbolic form: layout snapshots, call-site
//! recognition, address-load use indexing, and the address-taken set.
//!
//! This is the "rather deeper understanding of the program control flow than
//! has hitherto been typical for linkers" (§3) — easy here because the loader
//! format hands OM procedure boundaries, GP ownership, and LITUSE links.
//!
//! A [`Snapshot`] lays the symbolic program out from sizes alone: each
//! procedure's instruction count, the `.lita` entries emit would write
//! (`sym::gat_entries`) and the link's commons. It never emits a
//! module or rebuilds the symbol table, so an OM-full round costs one layout.
//! The final link's emitted modules, symbol table and layout are
//! [`Artifacts`].

use crate::sym::{
    gat_entries, GlobalRef, InstId, OmError, SAnchor, SInst, SMark, SymProc, SymProgram,
};
use om_alpha::{Effects, Inst, JmpOp, Reg};
use om_linker::{layout, LayoutOpts, LinkError, Placed, ProgramLayout, SymbolTable};
use om_objfile::{LitaEntry, Module, RelocKind, SecId, SymId, Symbol, SymbolDef};
use std::collections::{HashMap, HashSet};

/// A provisional layout of the symbolic program. OM-simple and each OM-full
/// round capture one for reachability decisions.
///
/// Distances only shrink as OM deletes instructions and GAT slots, so any
/// "fits in 16/21 bits" decision made against a snapshot remains valid for
/// the final layout.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub layout: ProgramLayout,
    /// Per module, the address of each symbol id that names a definition
    /// or the first mention of a common.
    sym_addrs: Vec<Vec<u64>>,
    /// Per module, the text address of each procedure.
    proc_addrs: Vec<Vec<u64>>,
}

/// The final link's emitted modules, with the symbol table and layout its
/// image was patched against ([`crate::optimize_and_link_artifacts`]): what
/// post-hoc image verification needs, and what the mutation harness's image
/// mutators are built on.
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub modules: Vec<Module>,
    pub symtab: SymbolTable,
    pub layout: ProgramLayout,
}

/// A symbolic module as [`layout`] sees it: the input's name, symbols and
/// data sections, the text its procedures would emit, and its `.lita`.
struct SizedModule<'a> {
    source: &'a Module,
    text: u64,
    lita: Vec<LitaEntry>,
}

impl Placed for SizedModule<'_> {
    fn name(&self) -> &str {
        &self.source.name
    }
    fn symbols(&self) -> &[Symbol] {
        &self.source.symbols
    }
    fn section_len(&self, sec: SecId) -> u64 {
        if sec == SecId::Text { self.text } else { self.source.section_len(sec) }
    }
    fn lita(&self) -> &[LitaEntry] {
        &self.lita
    }
}

impl Snapshot {
    /// Lays out the current symbolic program with OM's layout policy
    /// (commons sorted by size near the GAT, unless ablated).
    ///
    /// # Errors
    ///
    /// Propagates layout failures.
    pub fn capture(program: &SymProgram) -> Result<Snapshot, OmError> {
        Snapshot::capture_with(program, true)
    }

    /// [`Snapshot::capture`] with an explicit common-sorting policy (used by
    /// the ablation harness). The layout and every address equal those of
    /// the emitted program's link, without emitting it.
    ///
    /// # Errors
    ///
    /// Propagates layout failures, and [`LinkError::Undefined`] for a common
    /// the layout did not allocate.
    pub fn capture_with(program: &SymProgram, sort_commons: bool) -> Result<Snapshot, OmError> {
        let _s = om_obs::span("snapshot");
        let sized: Vec<SizedModule> = program
            .modules
            .iter()
            .enumerate()
            .map(|(mi, m)| SizedModule {
                source: &m.source,
                text: m.procs.iter().map(|p| 4 * p.insts.len() as u64).sum(),
                lita: gat_entries(program, mi),
            })
            .collect();
        let layout = layout(&sized, &program.commons, &LayoutOpts { sort_commons })?;
        let mut sym_addrs = Vec::with_capacity(sized.len());
        let mut proc_addrs = Vec::with_capacity(sized.len());
        for (mi, m) in program.modules.iter().enumerate() {
            let b = layout.bases[mi];
            let mut syms = Vec::with_capacity(m.source.symbols.len());
            for (id, s) in m.source.symbols_with_ids() {
                syms.push(match s.def {
                    SymbolDef::Proc { .. } => 0, // placed below, in emit order
                    SymbolDef::Data { sec, offset, .. } => b.of(sec) + offset,
                    // A common is named by its first mention, which may be
                    // an extern declaration.
                    _ if program.target(mi, id) == (GlobalRef::Common { module: mi, sym: id }) => {
                        *layout.common_addr.get(&s.name).ok_or_else(|| LinkError::Undefined {
                            name: s.name.clone(),
                            referenced_by: m.source.name.clone(),
                        })?
                    }
                    _ => 0, // resolves to another module's definition
                });
            }
            let (mut procs, mut pc) = (Vec::with_capacity(m.procs.len()), b.text);
            for p in &m.procs {
                syms[p.sym.0 as usize] = pc;
                procs.push(pc);
                pc += 4 * p.insts.len() as u64;
            }
            sym_addrs.push(syms);
            proc_addrs.push(procs);
        }
        Ok(Snapshot { layout, sym_addrs, proc_addrs })
    }

    /// Address of a resolved reference.
    pub fn addr(&self, r: GlobalRef) -> u64 {
        let (GlobalRef::Def { module, sym } | GlobalRef::Common { module, sym }) = r;
        self.sym_addrs[module][sym.0 as usize]
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

    /// Text address of instruction `idx` of procedure `pi` in module `mi`,
    /// as the program stood at capture.
    pub fn inst_addr(&self, mi: usize, pi: usize, idx: usize) -> u64 {
        self.proc_addrs[mi][pi] + 4 * idx as u64
    }

    /// Number of merged GAT slots in this snapshot.
    pub fn gat_slots(&self) -> usize {
        self.layout.gat_slots
    }
}

/// How a call site transfers control. `sym` names the callee in the
/// caller's module; [`SymProgram::target`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CallKind {
    /// `ldq pv, lit(gp); jsr` — the conservative sequence.
    DirectJsr { load: InstId, sym: SymId },
    /// A BSR the compiler already emitted (intra-unit static call) or that a
    /// previous OM pass produced (`addend` = 8 when it skips the prologue).
    Bsr { sym: SymId, addend: i64 },
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
                let sym = proc.insts.iter().find(|l| l.id == *load).and_then(|l| match l.mark {
                    SMark::Literal { sym, .. } => Some(sym),
                    _ => None,
                });
                let kind = match sym {
                    Some(sym) => CallKind::DirectJsr { load: *load, sym },
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
            (Inst::Br { op: om_alpha::BrOp::Bsr, .. }, SMark::BrSym { sym, addend }) => {
                out.push(CallSite {
                    at: k,
                    kind: CallKind::Bsr { sym: *sym, addend: *addend },
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

/// True when the only use of address load `load` is a JSR: one load's
/// uses, scanned without building the procedure's [`use_index`].
pub(crate) fn sole_jsr_use(proc: &SymProc, load: InstId) -> bool {
    let mut uses = proc.insts.iter().filter(|i| {
        matches!(i.mark, SMark::LituseBase { load: l } | SMark::LituseJsr { load: l }
            | SMark::LituseAddr { load: l } if l == load)
    });
    let sole = (uses.next(), uses.next());
    matches!(sole, (Some(SInst { mark: SMark::LituseJsr { .. }, .. }), None))
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
            let addr_used: Vec<InstId> = (p.insts.iter())
                .filter_map(|i| match i.mark {
                    SMark::LituseAddr { load } => Some(load),
                    _ => None,
                })
                .collect();
            for i in &p.insts {
                if let SMark::Literal { sym, escaping, .. } = i.mark {
                    if escaping || addr_used.contains(&i.id) {
                        taken.insert(program.target(mi, sym));
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
                taken.insert(program.target(mi, sym));
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
pub fn ref_name(program: &SymProgram, r: GlobalRef) -> &str {
    let (GlobalRef::Def { module, sym } | GlobalRef::Common { module, sym }) = r;
    &program.modules[module].source.symbol(sym).name
}

/// The destination register of an address load (`ra` of the LDQ).
pub fn load_dest(i: &SInst) -> Reg {
    match i.inst {
        Inst::Mem { ra, .. } => ra,
        _ => panic!("address load is not a memory instruction"),
    }
}

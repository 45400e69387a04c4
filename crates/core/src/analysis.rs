//! Whole-program analysis over the symbolic form: layout snapshots, call-site
//! recognition, address-load use indexing, and the address-taken set.
//!
//! This is the "rather deeper understanding of the program control flow than
//! has hitherto been typical for linkers" (§3) — easy here because the loader
//! format hands OM procedure boundaries, GP ownership, and LITUSE links.
//!
//! A [`Snapshot`] lays the symbolic program out from sizes alone: each
//! procedure's instruction count, the `.lita` entries emit would write
//! (`sym::gat_entries`) and the link's symbol table. It never emits a
//! module or rebuilds the symbol table, so an OM-full round costs one layout.
//! The final link's emitted modules, symbol table and layout are
//! [`Artifacts`].

use crate::sym::{
    gat_entries, Addend, GlobalRef, InstId, OmError, SInst, SMark, SymProc, SymProgram,
};
use om_alpha::{Effects, Inst, JmpOp, Reg};
use om_linker::{layout, LayoutOpts, LinkError, Placed, ProgramLayout, SymbolTable};
use om_objfile::{LitaEntry, Module, RelocKind, SecId, SymId, Symbol, SymbolDef};
use std::collections::HashSet;

/// A provisional layout of the symbolic program. OM-simple and each OM-full
/// round capture one for reachability decisions.
///
/// Distances only shrink as OM deletes instructions and GAT slots, so any
/// "fits in 16/21 bits" decision made against a snapshot remains valid for
/// the final layout.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub layout: ProgramLayout,
    /// Per module, the address of each symbol id that defines a procedure
    /// or data (0 for any other).
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
    /// Propagates layout failures, and [`LinkError::Undefined`] for a local
    /// common the symbol table leaves unresolved (no exported common of its
    /// name), so no target of a captured program is unresolved.
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
        let layout = layout(&sized, &program.symtab, &LayoutOpts { sort_commons })?;
        let mut sym_addrs = Vec::with_capacity(sized.len());
        let mut proc_addrs = Vec::with_capacity(sized.len());
        for (mi, m) in program.modules.iter().enumerate() {
            let b = layout.bases[mi];
            let mut syms = Vec::with_capacity(m.source.symbols.len());
            for (id, s) in m.source.symbols_with_ids() {
                syms.push(match s.def {
                    SymbolDef::Proc { .. } => 0, // placed below, in emit order
                    SymbolDef::Data { sec, offset, .. } => b.of(sec) + offset,
                    SymbolDef::Common { .. } if program.target(mi, id) == GlobalRef::Unresolved => {
                        return Err(OmError::Link(LinkError::Undefined {
                            name: s.name.clone(),
                            referenced_by: m.source.name.clone(),
                        }));
                    }
                    _ => 0, // a common or an extern: `addr` reads its target
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
        match r {
            GlobalRef::Def { module, sym } => self.sym_addrs[module][sym.0 as usize],
            GlobalRef::Common(c) => self.layout.common_addr[c as usize],
            GlobalRef::Unresolved => unreachable!("a captured program resolves every target"),
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
    Bsr { sym: SymId, addend: Addend },
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
    let mut scan = CallScan::default();
    scan.scan(proc);
    scan.sites
}

/// Finds call sites procedure after procedure, reusing its by-id tables
/// and its site list: no procedure allocates.
#[derive(Default)]
pub(crate) struct CallScan {
    at: Vec<u32>,
    resets: Vec<Option<(InstId, InstId)>>,
    sites: Vec<CallSite>,
}

impl CallScan {
    /// The call sites of `proc`, as [`call_sites`] finds them.
    pub(crate) fn scan(&mut self, proc: &SymProc) -> &[CallSite] {
        self.at.clear();
        self.at.resize(proc.id_limit(), GONE);
        for (k, i) in proc.insts.iter().enumerate() {
            self.at[i.id as usize] = k as u32;
        }
        self.sites.clear();
        call_sites_into(proc, &self.at, &mut self.resets, &mut self.sites);
        &self.sites
    }
}

/// [`call_sites`] with the procedure's index of each instruction id in
/// hand (`at`), and a by-id table `resets` to reuse, appending to `out`.
fn call_sites_into(
    proc: &SymProc,
    at: &[u32],
    resets: &mut Vec<Option<(InstId, InstId)>>,
    out: &mut Vec<CallSite>,
) {
    // The after-call GP reset `(hi, lo)` anchored at each call, by call id.
    resets.clear();
    resets.resize(proc.id_limit(), None);
    for i in &proc.insts {
        if let SMark::GpdispAfterCall { lo, call } = i.mark {
            if let Some(r) = resets.get_mut(call as usize) {
                *r = Some((i.id, lo));
            }
        }
    }
    for (k, i) in proc.insts.iter().enumerate() {
        let kind = match (&i.inst, &i.mark) {
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::LituseJsr { load }) => {
                let load_at = at.get(*load as usize).and_then(|&l| proc.insts.get(l as usize));
                match load_at.map(|l| l.mark) {
                    Some(SMark::Literal { sym, .. }) => CallKind::DirectJsr { load: *load, sym },
                    _ => CallKind::Indirect, // load already transformed
                }
            }
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::None) => CallKind::Indirect,
            (Inst::Br { op: om_alpha::BrOp::Bsr, .. }, SMark::BrSym { sym, addend }) => {
                CallKind::Bsr { sym: *sym, addend: *addend }
            }
            _ => continue,
        };
        out.push(CallSite { at: k, kind, gp_reset: resets[i.id as usize] });
    }
}

/// How an instruction consumes an address load (its LITUSE kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    Base,
    Jsr,
    Addr,
}

impl UseKind {
    /// The load `mark` names as a consumer, and how it consumes it.
    fn of(mark: SMark) -> Option<(InstId, UseKind)> {
        match mark {
            SMark::LituseBase { load } => Some((load, UseKind::Base)),
            SMark::LituseJsr { load } => Some((load, UseKind::Jsr)),
            SMark::LituseAddr { load } => Some((load, UseKind::Addr)),
            _ => None,
        }
    }
}

/// The LITUSE consumers of every address load of a procedure, by load id:
/// `(index, kind)` in code order, stored flat and sliced by a prefix sum.
#[derive(Debug, Clone, Default)]
pub struct UseIndex {
    start: Vec<u32>,
    next: Vec<u32>,
    uses: Vec<(usize, UseKind)>,
}

impl UseIndex {
    /// The consumers of load `load`: `(index, kind)` in code order.
    pub fn of(&self, load: InstId) -> &[(usize, UseKind)] {
        let l = load as usize;
        match (self.start.get(l), self.start.get(l + 1)) {
            (Some(&a), Some(&b)) => &self.uses[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Re-indexes for `proc`, reusing the tables: count per load id, then
    /// place.
    fn rebuild(&mut self, proc: &SymProc) {
        let n = proc.id_limit();
        // A use naming an id the procedure never allocated has no load to
        // index it by.
        let marks = || {
            proc.insts.iter().enumerate().filter_map(|(k, i)| {
                UseKind::of(i.mark).filter(|&(load, _)| (load as usize) < n).map(|u| (k, u))
            })
        };
        self.start.clear();
        self.start.resize(n + 1, 0);
        for (_, (load, _)) in marks() {
            self.start[load as usize + 1] += 1;
        }
        for l in 0..n {
            self.start[l + 1] += self.start[l];
        }
        self.next.clear();
        self.next.extend_from_slice(&self.start);
        self.uses.clear();
        self.uses.resize(self.start[n] as usize, (0, UseKind::Base));
        for (k, (load, kind)) in marks() {
            let slot = &mut self.next[load as usize];
            self.uses[*slot as usize] = (k, kind);
            *slot += 1;
        }
    }
}

/// Builds the use index of a procedure.
pub fn use_index(proc: &SymProc) -> UseIndex {
    let mut index = UseIndex::default();
    index.rebuild(proc);
    index
}

/// Computes the set of procedures whose address escapes: referenced by an
/// escaping GAT load anywhere, stored in initialized data (`RefQuad`), or
/// the program entry. OM-full must keep these procedures' prologues.
pub fn address_taken(program: &SymProgram) -> HashSet<GlobalRef> {
    let r = Residue::collect(program);
    (0..r.procs.len())
        .filter(|&proc| r.taken[proc])
        .map(|proc| {
            let (mi, pi) = r.procs[proc];
            GlobalRef::Def { module: mi, sym: program.modules[mi].procs[pi].sym }
        })
        .collect()
}

/// True if the procedure's first two instructions are its entry GPDISP pair.
pub fn prologue_pair_at_entry(proc: &SymProc) -> Option<(InstId, InstId)> {
    let first = proc.insts.first()?;
    if let SMark::GpdispEntry { lo } = first.mark {
        let second = proc.insts.get(1)?;
        if second.id == lo {
            return Some((first.id, lo));
        }
    }
    None
}

/// Finds the entry GPDISP pair anywhere in the procedure.
pub fn find_entry_pair(proc: &SymProc) -> Option<(usize, usize)> {
    let hi = proc.insts.iter().position(|i| matches!(i.mark, SMark::GpdispEntry { .. }))?;
    let SMark::GpdispEntry { lo } = proc.insts[hi].mark else { unreachable!() };
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

/// Marks an instruction id that names no instruction (never allocated, or
/// deleted), and a symbol id that names no procedure.
const GONE: u32 = u32::MAX;

/// What OM's passes have left to do in a program: its call sites, its
/// `Literal` address loads with their consumers, and the current index of
/// every instruction, collected once before the first round in
/// module/procedure/code order (DESIGN §4.4).
///
/// Each pass visits only the live part of a worklist and drops what it
/// settles: a call site once it holds no GP reset and is no longer a JSR, a
/// load once it is converted or removed. Nothing settled comes back, since
/// OM creates no call, load or LITUSE link and moves no instruction in its
/// rounds, so a round costs what the previous one left. Procedures are
/// named by a dense index in program order.
pub(crate) struct Residue {
    /// `(module, procedure)` of each dense procedure index.
    procs: Vec<(usize, usize)>,
    /// Per module, the dense index of the procedure each symbol id names.
    proc_by_sym: Vec<Vec<u32>>,
    /// The index of every instruction by id: procedure `p`'s table is
    /// `pos[pos_start[p]..pos_start[p + 1]]`, `id_limit` long.
    pos_start: Vec<usize>,
    pos: Vec<u32>,
    /// Per procedure, whether its address escapes (see [`address_taken`]).
    /// No round changes this: converting an escaping load needs its value
    /// within 16 bits of GP, and text sits 512 MB below the data segment
    /// that holds every GP.
    pub(crate) taken: Vec<bool>,
    pub(crate) sites: Vec<Site>,
    pub(crate) loads: Vec<Load>,
    /// Each load's consumers by instruction id, in code order.
    use_ids: Vec<InstId>,
    /// The sites that name each procedure as their callee (direct JSRs and
    /// BSRs).
    callers: Vec<Vec<u32>>,
    /// Indices of the sites and loads still in play, in program order.
    pub(crate) live_sites: Vec<u32>,
    pub(crate) live_loads: Vec<u32>,
}

/// One call site and how it stands now.
pub(crate) struct Site {
    pub(crate) proc: usize,
    pub(crate) jsr: InstId,
    pub(crate) kind: CallKind,
    pub(crate) gp_reset: Option<(InstId, InstId)>,
    /// A direct JSR's PV load, as an index into [`Residue::loads`].
    pub(crate) load: Option<usize>,
}

/// One address load that was a `Literal` when collected.
pub(crate) struct Load {
    pub(crate) proc: usize,
    pub(crate) id: InstId,
    /// Its consumers at collection, as a range of `Residue::use_ids`.
    uses: std::ops::Range<usize>,
    /// Still a `Literal`: neither converted nor removed.
    pub(crate) live: bool,
}

impl Residue {
    /// Collects every call site and `Literal` load of `program`, all live,
    /// and the procedures whose address is taken.
    pub(crate) fn collect(program: &SymProgram) -> Residue {
        let mut r = Residue {
            procs: Vec::new(),
            proc_by_sym: Vec::new(),
            pos_start: vec![0],
            pos: Vec::new(),
            taken: Vec::new(),
            sites: Vec::new(),
            loads: Vec::new(),
            use_ids: Vec::new(),
            callers: Vec::new(),
            live_sites: Vec::new(),
            live_loads: Vec::new(),
        };
        // Per procedure, reused: its use index, its resets by call id, its
        // call sites.
        let (mut uses, mut resets, mut calls) = (UseIndex::default(), Vec::new(), Vec::new());
        // References whose address escapes, resolved once every module's
        // procedures are numbered.
        let mut escapes: Vec<GlobalRef> = Vec::new();
        for (mi, m) in program.modules.iter().enumerate() {
            let mut by_sym = vec![GONE; m.source.symbols.len()];
            for (pi, p) in m.procs.iter().enumerate() {
                let proc = r.procs.len();
                r.procs.push((mi, pi));
                if let Some(b) = by_sym.get_mut(p.sym.0 as usize).filter(|b| **b == GONE) {
                    *b = proc as u32;
                }
                r.pos.resize(r.pos.len() + p.id_limit(), GONE);
                r.pos_start.push(r.pos.len());
                r.reindex(proc, p);
                // The entry procedure is reached from outside the program.
                r.taken.push(m.proc_name(p) == "__start");

                uses.rebuild(p);
                let first_load = r.loads.len();
                for i in &p.insts {
                    let SMark::Literal { sym, escaping, .. } = i.mark else { continue };
                    let from = r.use_ids.len();
                    let consumers = uses.of(i.id);
                    r.use_ids.extend(consumers.iter().map(|&(u, _)| p.insts[u].id));
                    r.loads.push(Load { proc, id: i.id, uses: from..r.use_ids.len(), live: true });
                    // A value that feeds address arithmetic escapes too
                    // (conservative: the computed address could be anything).
                    if escaping || consumers.iter().any(|&(_, k)| k == UseKind::Addr) {
                        escapes.push(program.target(mi, sym));
                    }
                }

                calls.clear();
                let at = &r.pos[r.pos_start[proc]..r.pos_start[proc + 1]];
                call_sites_into(p, at, &mut resets, &mut calls);
                for s in &calls {
                    // A direct JSR's load is a `Literal` of this procedure,
                    // and those are in code order.
                    let load = match s.kind {
                        CallKind::DirectJsr { load, .. } => {
                            let k = r.at(proc, load);
                            let ours = &r.loads[first_load..];
                            ours.binary_search_by_key(&k, |l| r.at(proc, l.id))
                                .ok()
                                .map(|j| first_load + j)
                        }
                        _ => None,
                    };
                    let jsr = p.insts[s.at].id;
                    r.sites.push(Site { proc, jsr, kind: s.kind, gp_reset: s.gp_reset, load });
                }
            }
            r.proc_by_sym.push(by_sym);
            // Data-section pointers to procedures (initialized fnptr
            // globals): the only relocations a translation keeps.
            for rel in &m.source.relocs {
                if let RelocKind::RefQuad { sym, .. } = rel.kind {
                    escapes.push(program.target(mi, sym));
                }
            }
        }
        for e in escapes {
            if let Some(proc) = r.proc_of(e) {
                r.taken[proc] = true;
            }
        }

        // The callers of each procedure, in site order.
        r.callers = vec![Vec::new(); r.procs.len()];
        for (si, s) in r.sites.iter().enumerate() {
            let (CallKind::DirectJsr { sym, .. } | CallKind::Bsr { sym, .. }) = s.kind else {
                continue;
            };
            if let Some(callee) = r.proc_of(program.target(r.procs[s.proc].0, sym)) {
                r.callers[callee].push(si as u32);
            }
        }
        r.live_sites = (0..r.sites.len() as u32).collect();
        r.live_loads = (0..r.loads.len() as u32).collect();
        r
    }

    /// `(module, procedure)` of dense procedure `proc`.
    pub(crate) fn coords(&self, proc: usize) -> (usize, usize) {
        self.procs[proc]
    }

    /// The dense index of the procedure `r` names, if it names one.
    pub(crate) fn proc_of(&self, r: GlobalRef) -> Option<usize> {
        let GlobalRef::Def { module, sym } = r else { return None };
        let p = *self.proc_by_sym[module].get(sym.0 as usize)?;
        (p != GONE).then_some(p as usize)
    }

    /// The index of instruction `id` of procedure `proc`, if it is there.
    pub(crate) fn at(&self, proc: usize, id: InstId) -> Option<usize> {
        let k = *self.pos[self.pos_start[proc]..self.pos_start[proc + 1]].get(id as usize)?;
        (k != GONE).then_some(k as usize)
    }

    /// Re-reads the index of each instruction of procedure `proc`, which is
    /// `p` (after a deletion).
    pub(crate) fn reindex(&mut self, proc: usize, p: &SymProc) {
        let table = &mut self.pos[self.pos_start[proc]..self.pos_start[proc + 1]];
        table.fill(GONE);
        for (k, i) in p.insts.iter().enumerate() {
            table[i.id as usize] = k as u32;
        }
    }

    /// Address of call site `si` under `snap`, which must have been taken
    /// since the site's procedure last changed size.
    pub(crate) fn site_addr(&self, snap: &Snapshot, si: usize) -> u64 {
        let s = &self.sites[si];
        let (mi, pi) = self.procs[s.proc];
        snap.inst_addr(mi, pi, self.at(s.proc, s.jsr).expect("OM deletes no call"))
    }

    /// The sites that name procedure `proc` as their callee.
    pub(crate) fn callers(&self, proc: usize) -> &[u32] {
        &self.callers[proc]
    }

    /// The current consumers of load `li`, `(index, kind)` in code order:
    /// those collected with it whose mark still names it.
    pub(crate) fn uses<'a>(
        &'a self,
        program: &'a SymProgram,
        li: usize,
    ) -> impl Iterator<Item = (usize, UseKind)> + 'a {
        let l = &self.loads[li];
        let (mi, pi) = self.procs[l.proc];
        let insts = &program.modules[mi].procs[pi].insts;
        self.use_ids[l.uses.clone()].iter().filter_map(move |&u| {
            let k = self.at(l.proc, u)?;
            let (load, kind) = UseKind::of(insts[k].mark)?;
            (load == l.id).then_some((k, kind))
        })
    }

    /// True when the only current consumer of load `li` is a JSR.
    pub(crate) fn sole_jsr_use(&self, program: &SymProgram, li: usize) -> bool {
        let mut uses = self.uses(program, li);
        matches!((uses.next(), uses.next()), (Some((_, UseKind::Jsr)), None))
    }
}

/// The link name a [`GlobalRef`] resolves to (empty for an unresolved one).
pub fn ref_name(program: &SymProgram, r: GlobalRef) -> &str {
    match r {
        GlobalRef::Def { module, sym } => &program.modules[module].source.symbol(sym).name,
        GlobalRef::Common(c) => &program.symtab.commons()[c as usize].name,
        GlobalRef::Unresolved => "",
    }
}

/// The destination register of an address load (`ra` of the LDQ).
pub fn load_dest(i: &SInst) -> Reg {
    match i.inst {
        Inst::Mem { ra, .. } => ra,
        _ => panic!("address load is not a memory instruction"),
    }
}

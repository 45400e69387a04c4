//! Whole-program analysis over the symbolic form: layout snapshots, call-site
//! recognition, address-load use indexing, and the address-taken set.
//!
//! This is the "rather deeper understanding of the program control flow than
//! has hitherto been typical for linkers" (§3) — easy here because the loader
//! format hands OM procedure boundaries, GP ownership, and LITUSE links.
//!
//! A [`Snapshot`] lays the symbolic program out from sizes alone: each
//! procedure's instruction count, the `.lita` entries emit would write
//! (`sym::GatLists`, or, inside OM's passes, the residue's live loads)
//! and the link's symbol table. It never emits a module or rebuilds the
//! symbol table, so an OM-full round costs one layout.
//! The final link's emitted modules, symbol table and layout are
//! [`Artifacts`].

use crate::pipeline::CallBook;
use crate::sym::{
    literals, Addend, GatLists, GlobalRef, InstId, OmError, SInst, SMark, SymProc, SymProgram,
};
use om_alpha::{BrOp, Effects, Inst, JmpOp, Reg};
use om_linker::{layout, LayoutOpts, Placed, ProgramLayout, SymbolTable};
use om_objfile::{LitaEntry, Module, RelocKind, SecId, SymId, Symbol, SymbolDef};
use std::collections::HashSet;

/// A provisional layout of the symbolic program. OM-simple and each OM-full
/// round capture one for reachability decisions.
///
/// Distances only shrink as OM deletes instructions and GAT slots, so any
/// "fits in 16/21 bits" decision made against a snapshot remains valid for
/// the final layout.
#[derive(Debug, Clone, PartialEq)]
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
    /// Propagates layout failures.
    pub fn capture_with(program: &SymProgram, sort_commons: bool) -> Result<Snapshot, OmError> {
        let _s = om_obs::span("snapshot");
        let mut lists = GatLists::new(&program.symtab, program.preserve_gat);
        let litas = (program.modules.iter().enumerate())
            .map(|(mi, m)| lists.list(mi, literals(m), &m.source.lita))
            .collect();
        Snapshot::lay_out(program, litas, sort_commons)
    }

    /// [`Snapshot::capture_with`] of a program whose `Literal` loads are
    /// exactly `residue`'s live ones: each module's `.lita` is listed from
    /// them ([`Residue::gat_entries`]), not from a walk over every
    /// instruction.
    pub(crate) fn of_residue(
        program: &SymProgram,
        residue: &Residue,
        sort_commons: bool,
    ) -> Result<Snapshot, OmError> {
        let _s = om_obs::span("snapshot");
        Snapshot::lay_out(program, residue.gat_entries(program), sort_commons)
    }

    /// Lays `program` out with `litas` as its modules' `.lita`s.
    fn lay_out(
        program: &SymProgram,
        litas: Vec<Vec<LitaEntry>>,
        sort_commons: bool,
    ) -> Result<Snapshot, OmError> {
        let sized: Vec<SizedModule> = (program.modules.iter().zip(litas))
            .map(|(m, lita)| SizedModule {
                source: &m.source,
                text: m.procs.iter().map(|p| 4 * p.insts.len() as u64).sum(),
                lita,
            })
            .collect();
        let layout = layout(&sized, &program.symtab, &LayoutOpts { sort_commons })?;
        let mut sym_addrs = Vec::with_capacity(sized.len());
        let mut proc_addrs = Vec::with_capacity(sized.len());
        for (mi, m) in program.modules.iter().enumerate() {
            let b = layout.bases[mi];
            let mut syms: Vec<u64> = (m.source.symbols.iter())
                .map(|s| match s.def {
                    SymbolDef::Data { sec, offset, .. } => b.of(sec) + offset,
                    _ => 0, // a procedure is placed below; `addr` reads any other's target
                })
                .collect();
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

    /// Address of a reference; `None` for one the symbol table leaves
    /// unresolved, which OM's passes leave for the final link to report.
    pub fn addr(&self, r: GlobalRef) -> Option<u64> {
        match r {
            GlobalRef::Def { module, sym } => Some(self.sym_addrs[module][sym.0 as usize]),
            GlobalRef::Common(c) => Some(self.layout.common_addr[c as usize]),
            GlobalRef::Unresolved => None,
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

impl CallKind {
    /// How `i` calls, if it is a call site: the one rule [`call_sites`], the
    /// translation's [`Census`] and the residue apply. `mark_of(load)` is
    /// the mark of the procedure's instruction with id `load`, if it holds
    /// one; a JSR whose load is no longer a `Literal` is indirect.
    fn of(i: &SInst, mark_of: impl FnOnce(InstId) -> Option<SMark>) -> Option<CallKind> {
        match (&i.inst, i.mark) {
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::LituseJsr { load }) => {
                Some(match mark_of(load) {
                    Some(SMark::Literal { sym, .. }) => CallKind::DirectJsr { load, sym },
                    _ => CallKind::Indirect,
                })
            }
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::None) => Some(CallKind::Indirect),
            (Inst::Br { op: BrOp::Bsr, .. }, SMark::BrSym { sym, addend }) => {
                Some(CallKind::Bsr { sym, addend })
            }
            _ => None,
        }
    }

    /// True when the call needs its PV load: every JSR.
    fn needs_pv(self) -> bool {
        !matches!(self, CallKind::Bsr { .. })
    }
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

/// Finds the call sites of `proc`. A `GpdispAfterCall` mark names the call
/// it follows; where two name one call, the later one is its reset.
pub fn call_sites(proc: &SymProc) -> Vec<CallSite> {
    let mut at = vec![GONE; proc.id_limit()];
    let mut resets = vec![None; proc.id_limit()];
    for (k, i) in proc.insts.iter().enumerate() {
        at[i.id as usize] = k as u32;
        if let SMark::GpdispAfterCall { lo, call } = i.mark {
            if let Some(r) = resets.get_mut(call as usize) {
                *r = Some((i.id, lo));
            }
        }
    }
    let mark_of = |load: InstId| {
        at.get(load as usize).and_then(|&l| proc.insts.get(l as usize)).map(|l| l.mark)
    };
    (proc.insts.iter().enumerate())
        .filter_map(|(k, i)| {
            let kind = CallKind::of(i, mark_of)?;
            Some(CallSite { at: k, kind, gp_reset: resets[i.id as usize] })
        })
        .collect()
}

/// What a translated module holds for OM's before-statistics (Figures 3–5):
/// its instructions, its `Literal` address loads, and its call sites as
/// [`call_sites`] finds them. [`crate::sym::translate_module`] counts them,
/// so a cached translation carries them and the pipeline's census only
/// sums modules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    pub insts: usize,
    pub literal_loads: usize,
    pub calls: usize,
    /// Calls through a procedure variable.
    pub calls_indirect: usize,
    /// Calls that need a PV load (every JSR).
    pub calls_pv: usize,
    /// Calls followed by a GP reset.
    pub calls_gp_reset: usize,
}

impl Census {
    /// Counts a freshly translated procedure, whose instruction ids are
    /// its indices. `reset` is a scratch table, reused from procedure to
    /// procedure.
    pub(crate) fn add(&mut self, proc: &SymProc, reset: &mut Vec<bool>) {
        let insts = &proc.insts;
        reset.clear();
        reset.resize(insts.len(), false);
        for i in insts {
            if let SMark::GpdispAfterCall { call, .. } = i.mark {
                if let Some(r) = reset.get_mut(call as usize) {
                    *r = true;
                }
            }
        }
        self.insts += insts.len();
        for i in insts {
            if matches!(i.mark, SMark::Literal { .. }) {
                self.literal_loads += 1;
            }
            let Some(kind) = CallKind::of(i, |l| insts.get(l as usize).map(|l| l.mark)) else {
                continue;
            };
            self.calls += 1;
            self.calls_indirect += usize::from(kind == CallKind::Indirect);
            self.calls_pv += usize::from(kind.needs_pv());
            self.calls_gp_reset += usize::from(reset[i.id as usize]);
        }
    }

    /// Adds `other`'s counts to these.
    pub(crate) fn merge(&mut self, other: &Census) {
        self.insts += other.insts;
        self.literal_loads += other.literal_loads;
        self.calls += other.calls;
        self.calls_indirect += other.calls_indirect;
        self.calls_pv += other.calls_pv;
        self.calls_gp_reset += other.calls_gp_reset;
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

/// Items grouped by a dense key, stored flat and sliced by a prefix sum:
/// key `k`'s are `items[start[k]..start[k + 1]]`, in the order given.
#[derive(Debug, Clone)]
struct Groups<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Groups<T> {
    fn default() -> Groups<T> {
        Groups { start: Vec::new(), items: Vec::new() }
    }
}

impl<T: Copy> Groups<T> {
    /// Groups `pairs`, `(key, item)` with every key below `keys`: counted
    /// per key, then placed.
    fn new(keys: usize, pairs: &[(u32, T)]) -> Groups<T> {
        let mut start = vec![0u32; keys + 1];
        for &(k, _) in pairs {
            start[k as usize + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        // Every slot is written below; the first item only fills them.
        let mut items = pairs.first().map_or(Vec::new(), |&(_, t)| vec![t; pairs.len()]);
        for &(k, t) in pairs {
            let slot = &mut next[k as usize];
            items[*slot as usize] = t;
            *slot += 1;
        }
        Groups { start, items }
    }

    /// The items of key `k` (none for a key past the last).
    fn of(&self, k: usize) -> &[T] {
        match self.start.get(k..k + 2) {
            Some(&[a, b]) => &self.items[a as usize..b as usize],
            _ => &[],
        }
    }
}

/// The LITUSE consumers of every address load of a procedure, by load id:
/// `(index, kind)` in code order.
#[derive(Debug, Clone, Default)]
pub struct UseIndex(Groups<(usize, UseKind)>);

impl UseIndex {
    /// The consumers of load `load`: `(index, kind)` in code order.
    pub fn of(&self, load: InstId) -> &[(usize, UseKind)] {
        self.0.of(load as usize)
    }
}

/// Builds the use index of a procedure. A use naming an id the procedure
/// never allocated has no load to index it by.
pub fn use_index(proc: &SymProc) -> UseIndex {
    let n = proc.id_limit();
    let uses: Vec<(u32, (usize, UseKind))> = (proc.insts.iter().enumerate())
        .filter_map(|(k, i)| {
            let (load, kind) = UseKind::of(i.mark).filter(|&(load, _)| (load as usize) < n)?;
            Some((load, (k, kind)))
        })
        .collect();
    UseIndex(Groups::new(n, &uses))
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
/// `Literal` address loads with their consumers and `.lita` entries, and
/// the current index of every instruction, collected once before the
/// first snapshot in module/procedure/code order (DESIGN §4.4).
///
/// Each pass visits only the live part of a worklist and drops what it
/// settles: a call site once it holds no GP reset and is no longer a JSR, a
/// load once it is converted or removed. Nothing settled comes back, since
/// OM creates no call, load or LITUSE link and moves no instruction in its
/// rounds, so a round costs what the previous one left. The live loads are
/// exactly the program's `Literal` marks, so a snapshot lists each module's
/// GAT from them ([`Residue::gat_entries`]), and each site keeps whether it
/// still needs its PV load and its GP reset, which Figure 4 counts.
/// Procedures are named by a dense index in program order.
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
    /// Per procedure, whether it held an entry GPDISP pair when collected.
    pub(crate) entry_pair: Vec<bool>,
    pub(crate) sites: Vec<Site>,
    pub(crate) loads: Vec<Load>,
    /// Each load's consumers at collection by instruction id, in code order.
    uses: Groups<InstId>,
    /// The sites that name each procedure as their callee (direct JSRs and
    /// BSRs), in site order.
    callers: Groups<u32>,
    /// Indices of the sites and loads still in play, in program order.
    pub(crate) live_sites: Vec<u32>,
    pub(crate) live_loads: Vec<u32>,
    /// Scratch for [`SymProc::delete_with`], reused from deletion to
    /// deletion.
    forward: Vec<InstId>,
}

/// One call site and how it stands now.
pub(crate) struct Site {
    pub(crate) proc: usize,
    pub(crate) jsr: InstId,
    pub(crate) kind: CallKind,
    pub(crate) gp_reset: Option<(InstId, InstId)>,
    /// Still needs its PV load: any JSR, and a BSR whose PV load stayed.
    pub(crate) pv: bool,
    /// A direct JSR's PV load, as an index into [`Residue::loads`].
    pub(crate) load: Option<usize>,
}

/// One address load that was a `Literal` when collected.
pub(crate) struct Load {
    pub(crate) proc: usize,
    pub(crate) id: InstId,
    /// Its `.lita` entry, `sym + addend`.
    sym: SymId,
    addend: Addend,
    /// Still a `Literal`: neither converted nor removed.
    pub(crate) live: bool,
}

/// What [`Residue::collect`] gathers on its way: per procedure (reused
/// from one to the next), per module, and for the whole program.
#[derive(Default)]
struct Scratch {
    /// This procedure's loads' indices, in code order.
    load_at: Vec<u32>,
    /// LITUSE marks: `(load id, index, kind)`, in code order.
    uses: Vec<(InstId, u32, UseKind)>,
    /// `GpdispAfterCall` marks: `(call id, hi id, lo id)`, in code order.
    resets: Vec<(InstId, InstId, InstId)>,
    /// Indices of the JSR and BSR instructions, then of the call sites.
    calls: Vec<u32>,
    site_at: Vec<u32>,
    /// Every load's consumers, `(load, id)`, in program order.
    consumers: Vec<(u32, InstId)>,
}

impl Residue {
    /// Collects every call site and `Literal` load of `program`, all live,
    /// and the procedures whose address is taken: one pass over each
    /// procedure's instructions, into tables sized from the translations'
    /// [`Census`] (exact before any round; OM creates no call or load).
    pub(crate) fn collect(program: &SymProgram) -> Residue {
        let mut census = Census::default();
        let (mut procs, mut ids) = (0, 0);
        for m in &program.modules {
            census.merge(&m.census);
            procs += m.procs.len();
            ids += m.procs.iter().map(SymProc::id_limit).sum::<usize>();
        }
        let mut r = Residue {
            procs: Vec::with_capacity(procs),
            proc_by_sym: Vec::with_capacity(program.modules.len()),
            pos_start: Vec::with_capacity(procs + 1),
            pos: Vec::with_capacity(ids),
            taken: Vec::with_capacity(procs),
            entry_pair: Vec::with_capacity(procs),
            sites: Vec::with_capacity(census.calls),
            loads: Vec::with_capacity(census.literal_loads),
            uses: Groups::default(),
            callers: Groups::default(),
            live_sites: Vec::new(),
            live_loads: Vec::new(),
            forward: Vec::new(),
        };
        r.pos_start.push(0);
        let mut s = Scratch::default();
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
                // The entry procedure is reached from outside the program.
                r.taken.push(m.proc_name(p) == "__start");
                r.index(program, mi, proc, &mut s, &mut escapes);
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

        r.uses = Groups::new(r.loads.len(), &s.consumers);
        let callers: Vec<(u32, u32)> = (r.sites.iter().enumerate())
            .filter_map(|(si, site)| {
                let (CallKind::DirectJsr { sym, .. } | CallKind::Bsr { sym, .. }) = site.kind
                else {
                    return None;
                };
                let callee = r.proc_of(program.target(r.procs[site.proc].0, sym))?;
                Some((callee as u32, si as u32))
            })
            .collect();
        r.callers = Groups::new(r.procs.len(), &callers);
        r.live_sites = (0..r.sites.len() as u32).collect();
        r.live_loads = (0..r.loads.len() as u32).collect();
        r
    }

    /// Indexes procedure `proc` of module `mi` in one pass over its
    /// instructions: its positions by id, its loads, the LITUSE marks,
    /// after-call resets and calls it holds, then the loads' consumers and
    /// the call sites from those. Loads that escape join `escapes`.
    fn index(
        &mut self,
        program: &SymProgram,
        mi: usize,
        proc: usize,
        s: &mut Scratch,
        escapes: &mut Vec<GlobalRef>,
    ) {
        let m = &program.modules[mi];
        let p = &m.procs[self.procs[proc].1];
        let base = self.pos.len();
        self.pos.resize(base + p.id_limit(), GONE);
        self.pos_start.push(self.pos.len());
        let (first_load, first_site) = (self.loads.len(), self.sites.len());
        s.load_at.clear();
        s.uses.clear();
        s.resets.clear();
        s.calls.clear();
        let mut entry_pair = false;
        for (k, i) in p.insts.iter().enumerate() {
            self.pos[base + i.id as usize] = k as u32;
            match i.mark {
                SMark::Literal { sym, addend, escaping } => {
                    s.load_at.push(k as u32);
                    self.loads.push(Load { proc, id: i.id, sym, addend, live: true });
                    if escaping {
                        escapes.push(program.target(mi, sym));
                    }
                }
                SMark::GpdispEntry { .. } => entry_pair = true,
                SMark::GpdispAfterCall { lo, call } => s.resets.push((call, i.id, lo)),
                mark => {
                    if let Some((load, kind)) = UseKind::of(mark) {
                        s.uses.push((load, k as u32, kind));
                    }
                }
            }
            if matches!(i.inst, Inst::Jmp { op: JmpOp::Jsr, .. } | Inst::Br { op: BrOp::Bsr, .. }) {
                s.calls.push(k as u32);
            }
        }
        self.entry_pair.push(entry_pair);

        // The load of this procedure an instruction id names, if any.
        let pos = &self.pos[base..];
        let load_at = &s.load_at;
        let load_of = |id: InstId| {
            let k = *pos.get(id as usize)?;
            load_at.binary_search(&k).ok().map(|j| first_load + j)
        };
        // A value that feeds address arithmetic escapes too (conservative:
        // the computed address could be anything).
        for &(load, k, kind) in &s.uses {
            let Some(li) = load_of(load) else { continue };
            s.consumers.push((li as u32, p.insts[k as usize].id));
            if kind == UseKind::Addr {
                let SMark::Literal { sym, .. } = p.insts[load_at[li - first_load] as usize].mark
                else {
                    unreachable!("a load is a literal")
                };
                escapes.push(program.target(mi, sym));
            }
        }

        s.site_at.clear();
        for &k in &s.calls {
            let i = &p.insts[k as usize];
            let mark_of = |load: InstId| {
                pos.get(load as usize).and_then(|&l| p.insts.get(l as usize)).map(|l| l.mark)
            };
            let Some(kind) = CallKind::of(i, mark_of) else { continue };
            let load = match kind {
                CallKind::DirectJsr { load, .. } => load_of(load),
                _ => None,
            };
            let pv = kind.needs_pv();
            self.sites.push(Site { proc, jsr: i.id, kind, gp_reset: None, pv, load });
            s.site_at.push(k);
        }
        // A reset names the call it follows; where two name one call, the
        // later is its reset.
        for &(call, hi, lo) in &s.resets {
            let Some(&k) = pos.get(call as usize) else { continue };
            if let Ok(j) = s.site_at.binary_search(&k) {
                self.sites[first_site + j].gp_reset = Some((hi, lo));
            }
        }
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

    /// Deletes the instructions `ids` from procedure `proc`, which is `p`,
    /// and re-reads the positions that moved: those from the first deleted
    /// instruction on.
    pub(crate) fn delete(&mut self, proc: usize, p: &mut SymProc, ids: &[InstId]) {
        let table = &mut self.pos[self.pos_start[proc]..self.pos_start[proc + 1]];
        let first = ids.iter().filter_map(|&id| table.get(id as usize)).filter(|&&k| k != GONE);
        let Some(from) = first.copied().min() else { return };
        p.delete_with(ids, &mut self.forward);
        for &id in ids {
            if let Some(k) = table.get_mut(id as usize) {
                *k = GONE;
            }
        }
        for (k, i) in p.insts.iter().enumerate().skip(from as usize) {
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
        self.callers.of(proc)
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
        self.uses.of(li).iter().filter_map(move |&u| {
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

    /// Each module's `.lita` as emit would write it now (`sym::GatLists`),
    /// read off the live loads instead of every instruction.
    pub(crate) fn gat_entries(&self, program: &SymProgram) -> Vec<Vec<LitaEntry>> {
        let mut lists = GatLists::new(&program.symtab, program.preserve_gat);
        let mut loads = self.live_loads.iter().map(|&li| &self.loads[li as usize]).peekable();
        (program.modules.iter().enumerate())
            .map(|(mi, m)| {
                let live = std::iter::from_fn(|| loads.next_if(|l| self.procs[l.proc].0 == mi));
                let literals = live.map(|l| LitaEntry { sym: l.sym, addend: m.addend(l.addend) });
                lists.list(mi, literals, &m.source.lita)
            })
            .collect()
    }

    /// How many call sites still need their PV load and their GP reset
    /// (Figure 4's after-counts).
    pub(crate) fn call_counts(&self) -> (usize, usize) {
        let count = |f: fn(&Site) -> bool| self.sites.iter().filter(|s| f(s)).count();
        (count(|s| s.pv), count(|s| s.gp_reset.is_some()))
    }

    /// Records each site's `(needs PV load, needs GP reset)` in `book`,
    /// keyed by `(module, procedure, call id)`.
    pub(crate) fn fill_book(&self, book: &mut CallBook) {
        for s in &self.sites {
            let (mi, pi) = self.procs[s.proc];
            book.insert((mi, pi, s.jsr), (s.pv, s.gp_reset.is_some()));
        }
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

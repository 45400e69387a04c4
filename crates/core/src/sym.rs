//! OM's symbolic program form.
//!
//! "The key idea behind OM is the translation into symbolic form and back"
//! (§4). [`translate`] lifts every module of the program into [`SymProgram`]:
//! procedures become instruction lists whose positional information —
//! branch displacements, GAT slot indices, GPDISP pair offsets, LITUSE
//! links — is replaced by symbolic references that survive deletion and
//! reordering. [`emit_all`] lowers a transformed program back to ordinary
//! object code, recomputing every offset. This is what makes OM-full's code
//! motion safe by construction.
//!
//! There is one symbolic form. A mark names a symbol by the [`SymId`] of its
//! own module, exactly as the relocation it came from did, so
//! [`translate_module`]'s result depends only on that module's bytes and can
//! be cached by content hash. What an id names program-wide is the link's
//! [`SymbolTable`], which resolved every symbol once: [`resolve_symbolic`]
//! binds the translations to it, and passes read it through
//! [`SymProgram::target`].
//! Emit writes each mark's id back unchanged, so every emitted
//! module keeps its input's symbol table.

use om_alpha::{decode, Inst, MemOp, Reg};
pub use om_linker::GlobalRef;
use om_linker::SymbolTable;
use om_objfile::{LitaEntry, Module, Reloc, RelocKind, SecId, SymId, SymbolDef};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Errors while translating object code to symbolic form.
#[derive(Debug, Clone, PartialEq)]
pub enum OmError {
    /// A text word outside any procedure or undecodable.
    BadText { module: String, offset: u64, what: String },
    /// A relocation that contradicts the code it annotates.
    BadReloc { module: String, what: String },
    Link(om_linker::LinkError),
    /// Post-link verification found invariant violations (see
    /// [`crate::verify`]).
    Verify { checks: usize, violations: Vec<String> },
    /// An internal pipeline invariant was violated (a dangling symbolic
    /// reference at emit time, or a panic caught at a link-server request
    /// boundary). Surfaced as an error so one bad module or transformation
    /// bug fails its request instead of aborting the process.
    Internal { context: String, what: String },
}

impl fmt::Display for OmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmError::BadText { module, offset, what } => {
                write!(f, "bad text in `{module}` at +{offset:#x}: {what}")
            }
            OmError::BadReloc { module, what } => write!(f, "bad relocation in `{module}`: {what}"),
            OmError::Link(e) => write!(f, "{e}"),
            OmError::Internal { context, what } => {
                write!(f, "internal invariant violated in `{context}`: {what}")
            }
            OmError::Verify { checks, violations } => {
                write!(f, "verification failed: {} of {checks} checks", violations.len())?;
                for v in violations.iter().take(8) {
                    write!(f, "\n  {v}")?;
                }
                if violations.len() > 8 {
                    write!(f, "\n  … and {} more", violations.len() - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OmError {}

impl From<om_linker::LinkError> for OmError {
    fn from(e: om_linker::LinkError) -> Self {
        OmError::Link(e)
    }
}

/// Identifier of an instruction within its procedure; stable across
/// transformation.
pub type InstId = u32;

/// A mark's addend, held in 4 bytes. A value in `-2^30..2^31` is held as
/// itself; any other value (wider than `i32`, or below `-2^30`) lives in its
/// module's table of wide addends, and the mark holds `i32::MIN` plus its
/// index there. So does the addend of a `GprelLo` whose high half was
/// computed with a different addend. [`SymModule::addend`] reads the value
/// back.
///
/// Two `Addend`s name equal values when they are equal; wide values can be
/// equal under different indices, so compare what `SymModule::addend`
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Addend(i32);

/// The lowest addend a mark holds inline; below it are table indices.
const INLINE_MIN: i32 = -(1 << 30);

impl Addend {
    pub(crate) const ZERO: Addend = Addend(0);

    /// The value, when the mark holds it inline.
    pub fn inline(self) -> Option<i64> {
        (self.0 >= INLINE_MIN).then_some(self.0 as i64)
    }

    fn small(v: i64) -> Option<Addend> {
        i32::try_from(v).ok().filter(|&v| v >= INLINE_MIN).map(Addend)
    }
}

/// A module's addends that its marks cannot hold inline (see [`Addend`]):
/// `(addend, hi_addend)` pairs, where `hi_addend` differs from `addend` only
/// for a `GprelLo` whose high half was computed with another addend. Empty
/// for every module our compilers emit.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Addends(Vec<(i64, i64)>);

impl Addends {
    /// Addend `v` as a mark of this module holds it: inline when it fits,
    /// else stored here.
    pub(crate) fn store(&mut self, v: i64) -> Addend {
        self.store_pair(v, v)
    }

    /// The addend of a `GprelLo` whose high half was computed with
    /// `hi_addend`: inline only when the two agree and fit.
    pub(crate) fn store_pair(&mut self, addend: i64, hi_addend: i64) -> Addend {
        if addend == hi_addend {
            if let Some(a) = Addend::small(addend) {
                return a;
            }
        }
        // Every index names a mark, and a program of 2^30 marks could not be
        // held in memory.
        let k = i32::try_from(self.0.len()).ok().filter(|&k| k < 1 << 30);
        let k = k.expect("wide addend table overflow");
        self.0.push((addend, hi_addend));
        Addend(i32::MIN + k)
    }

    fn pair(&self, a: Addend) -> (i64, i64) {
        match a.inline() {
            Some(v) => (v, v),
            None => self.0[(a.0 - i32::MIN) as usize],
        }
    }
}

/// Symbolic annotation of one instruction, 12 bytes. `sym` operands are ids
/// into the symbol table of the instruction's own module;
/// [`SymProgram::target`] resolves them. Addends are read through
/// [`SymModule::addend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SMark {
    None,
    /// GAT address load of `sym + addend`; `escaping` if its value leaks
    /// into unrewritable dataflow.
    Literal { sym: SymId, addend: Addend, escaping: bool },
    LituseBase { load: InstId },
    LituseJsr { load: InstId },
    LituseAddr { load: InstId },
    /// High half of the entry GPDISP pair: PV holds this procedure's entry.
    GpdispEntry { lo: InstId },
    /// High half of an after-call GP reset: RA holds the return point of
    /// the call instruction `call`.
    GpdispAfterCall { lo: InstId, call: InstId },
    GpdispLo { hi: InstId },
    /// Branch to another procedure (`addend` lets OM-full skip prologues).
    BrSym { sym: SymId, addend: Addend },
    /// Intra-procedure branch to the instruction with this id.
    BrLocal { target: InstId },
    /// 16-bit GP-relative reference (an OM conversion product).
    Gprel { sym: SymId, addend: Addend },
    /// High half of a 32-bit GP-relative reference.
    GprelHi { sym: SymId, addend: Addend },
    /// Low half, paired with a `GprelHi`; [`SymModule::hi_addend`] gives the
    /// addend the high half was computed with.
    GprelLo { sym: SymId, addend: Addend },
}

impl SMark {
    /// The low half's id, if this is the high half of a GPDISP pair.
    pub(crate) fn gpdisp_lo(self) -> Option<InstId> {
        match self {
            SMark::GpdispEntry { lo } | SMark::GpdispAfterCall { lo, .. } => Some(lo),
            _ => None,
        }
    }
}

/// One symbolic instruction, 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SInst {
    pub id: InstId,
    pub inst: Inst,
    pub mark: SMark,
}

/// A procedure in symbolic form. Its name and visibility are those of its
/// symbol ([`SymModule::proc_name`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SymProc {
    /// Symbol-table id of the procedure in its module.
    pub sym: SymId,
    pub insts: Vec<SInst>,
    next_id: InstId,
}

impl SymProc {
    /// Allocates a fresh instruction id (for insertions).
    pub fn fresh_id(&mut self) -> InstId {
        self.next_id += 1;
        self.next_id - 1
    }

    /// One past the largest instruction id this procedure has allocated:
    /// ids are dense in `0..id_limit()`, so tables indexed by id use it as
    /// their length.
    pub(crate) fn id_limit(&self) -> usize {
        self.next_id as usize
    }

    /// Deletes the instructions whose ids are in `doomed`, retargeting any
    /// local branch that pointed at a deleted instruction to the next
    /// surviving one.
    ///
    /// # Panics
    ///
    /// Panics if the procedure's last instruction is deleted (cannot
    /// happen: [`translate_module`] rejects a procedure that does not end
    /// in a control instruction, and OM deletes none).
    pub fn delete(&mut self, doomed: &[InstId]) {
        if doomed.is_empty() {
            return;
        }
        // By id: `KEPT`, or the surviving instruction a deleted one forwards
        // to (`NONE` until the backward walk finds it, and for an id the
        // procedure does not hold).
        const KEPT: InstId = InstId::MAX;
        const NONE: InstId = InstId::MAX - 1;
        let mut forward = vec![KEPT; self.id_limit()];
        for &id in doomed {
            if let Some(f) = forward.get_mut(id as usize) {
                *f = NONE;
            }
        }
        let mut next_survivor: Option<InstId> = None;
        for i in self.insts.iter().rev() {
            let f = &mut forward[i.id as usize];
            if *f == KEPT {
                next_survivor = Some(i.id);
            } else {
                *f = next_survivor.expect("deleted a procedure's last instruction");
            }
        }
        self.insts.retain_mut(|i| {
            if forward[i.id as usize] != KEPT {
                return false;
            }
            if let SMark::BrLocal { target } = &mut i.mark {
                match forward.get(*target as usize) {
                    Some(&n) if n != KEPT && n != NONE => *target = n,
                    _ => {}
                }
            }
            true
        });
    }
}

/// A module in symbolic form: what emit, layout and the verifier read of the
/// input, plus symbolic procedures replacing its text. Independent of every
/// other module in the program — the unit of OM's per-module translation
/// cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SymModule {
    /// The input module without its text and text relocations: its name,
    /// symbols, `.lita`, and data sections with their relocations. Shared,
    /// so a cached translation joins a program copying only its procedures.
    pub source: Arc<Module>,
    /// The addends its marks do not hold inline.
    pub(crate) addends: Addends,
    pub procs: Vec<SymProc>,
}

impl SymModule {
    /// The value of addend `a` of one of this module's marks.
    pub fn addend(&self, a: Addend) -> i64 {
        self.addends.pair(a).0
    }

    /// The addend the high half of a `GprelLo` with addend `a` was computed
    /// with.
    pub fn hi_addend(&self, a: Addend) -> i64 {
        self.addends.pair(a).1
    }

    /// The name of procedure `p` of this module.
    pub fn proc_name(&self, p: &SymProc) -> &str {
        &self.source.symbol(p.sym).name
    }
}

/// The whole program in symbolic form.
#[derive(Debug, Clone)]
pub struct SymProgram {
    pub modules: Vec<SymModule>,
    /// The link's symbol table, shared: what each symbol id of each module
    /// names program-wide, and the commons a layout of the program places
    /// (see [`crate::analysis::Snapshot`]).
    pub(crate) symtab: SymbolTable,
    /// When set (OM-simple), emitted modules retain every original GAT slot
    /// even if no surviving instruction references it: a traditional linker
    /// that only rewrites instructions in place does not reduce the GAT.
    /// OM-full clears this, enabling GAT reduction.
    pub preserve_gat: bool,
}

impl SymProgram {
    /// Total instruction count across the program.
    pub fn inst_count(&self) -> usize {
        self.modules
            .iter()
            .flat_map(|m| m.procs.iter())
            .map(|p| p.insts.len())
            .sum()
    }

    /// The program object that symbol `sym` of module `mi` names.
    pub fn target(&self, mi: usize, sym: SymId) -> GlobalRef {
        self.symtab.target(mi, sym)
    }

    /// Finds a procedure by target reference, if the reference names one.
    pub fn proc_of(&self, r: GlobalRef) -> Option<(usize, usize)> {
        let GlobalRef::Def { module, sym } = r else { return None };
        self.modules[module]
            .procs
            .iter()
            .position(|p| p.sym == sym)
            .map(|pi| (module, pi))
    }
}

/// A module's text relocations bucketed by instruction word, built in one
/// counting pass: the relocations of word `w` are `order[start[w]..start[w +
/// 1]]` (indices into `relocs`), in the order the module lists them. A
/// relocation past the last whole word is never looked up, so it is left
/// out.
struct RelocsByWord<'m> {
    relocs: &'m [Reloc],
    start: Vec<u32>,
    order: Vec<u32>,
}

impl<'m> RelocsByWord<'m> {
    fn new(m: &'m Module) -> RelocsByWord<'m> {
        let words = m.text.len() / 4;
        let word_of = |r: &Reloc| {
            let w = usize::try_from(r.offset / 4).unwrap_or(usize::MAX);
            (r.sec == SecId::Text && w < words).then_some(w)
        };
        let mut start = vec![0u32; words + 1];
        for w in m.relocs.iter().filter_map(word_of) {
            start[w + 1] += 1;
        }
        for w in 0..words {
            start[w + 1] += start[w];
        }
        let mut next = start.clone();
        let mut order = vec![0u32; start[words] as usize];
        for (ri, r) in m.relocs.iter().enumerate() {
            if let Some(w) = word_of(r) {
                order[next[w] as usize] = ri as u32;
                next[w] += 1;
            }
        }
        RelocsByWord { relocs: &m.relocs, start, order }
    }

    /// The text relocations at byte offset `off` of the text, in module
    /// order. `off + 4` must not pass the text's end. Only a procedure that
    /// starts off a word boundary asks for a misaligned `off`; it shares its
    /// word's bucket, so the bucket is filtered by offset.
    fn at(&self, off: u64) -> impl Iterator<Item = &'m Reloc> + '_ {
        let w = (off / 4) as usize;
        let bucket = &self.order[self.start[w] as usize..self.start[w + 1] as usize];
        bucket.iter().map(|&ri| &self.relocs[ri as usize]).filter(move |r| r.offset == off)
    }
}

/// Translates one module into symbolic form — the whole decode/tiling/mark
/// analysis, with no reference to the rest of the program. The result
/// depends only on the module's bytes, which is what makes it cacheable by
/// content hash.
///
/// # Errors
///
/// Returns [`OmError`] if text does not decode, procedures do not tile the
/// text, or relocations are inconsistent — the conservative checks the paper
/// says OM can afford because "it can use the loader symbol table and the
/// relocation tables to clarify the code".
pub fn translate_module(m: &Module) -> Result<SymModule, OmError> {
    let mut procs: Vec<SymProc> = Vec::new();
    let mut addends = Addends::default();
    let proc_list = m.procedures();
    let by_word = RelocsByWord::new(m);

    // Check tiling.
    let mut expected = 0;
    for (_, s) in &proc_list {
        let SymbolDef::Proc { offset, size, .. } = s.def else { unreachable!() };
        if offset != expected {
            return Err(OmError::BadText {
                module: m.name.clone(),
                offset: expected,
                what: "text not tiled by procedures".into(),
            });
        }
        expected = offset + size;
    }
    if expected != m.text.len() as u64 {
        return Err(OmError::BadText {
            module: m.name.clone(),
            offset: expected,
            what: "trailing text outside any procedure".into(),
        });
    }

    for (sym_id, s) in &proc_list {
        let SymbolDef::Proc { offset, size, .. } = s.def else { unreachable!() };
        let n = (size / 4) as usize;
        let id_of_offset =
            |o: u64| -> Option<InstId> { o.checked_sub(offset).map(|d| (d / 4) as u32) };

        let mut insts = Vec::with_capacity(n);
        for k in 0..n {
            let off = offset + 4 * k as u64;
            let bytes: [u8; 4] =
                m.text[off as usize..off as usize + 4].try_into().unwrap();
            let word = u32::from_le_bytes(bytes);
            let inst = decode(word).map_err(|e| OmError::BadText {
                module: m.name.clone(),
                offset: off,
                what: e.to_string(),
            })?;
            let id = k as InstId;

            let mut mark = SMark::None;
            for r in by_word.at(off) {
                let bad = |what: String| OmError::BadReloc { module: m.name.clone(), what };
                let linked = |load_offset: u64| -> Result<InstId, OmError> {
                    id_of_offset(load_offset)
                        .filter(|&i| (i as usize) < n)
                        .ok_or_else(|| bad(format!("lituse crosses procedures at {off:#x}")))
                };
                match &r.kind {
                    RelocKind::Literal { lita } => {
                        if !matches!(inst, Inst::Mem { op: MemOp::Ldq, rb: Reg::GP, .. }) {
                            return Err(bad(format!("literal at {off:#x} is not `ldq rx, d(gp)`")));
                        }
                        let e: &LitaEntry = &m.lita[*lita as usize];
                        // Only the *self-referential* LituseAddr marks a
                        // load as escaping-with-unknown-uses; a LituseAddr
                        // on a different instruction is a known (but
                        // unrewritable) use and keeps its own mark.
                        let escaping = by_word.at(off).any(|u| {
                            matches!(u.kind, RelocKind::LituseAddr { load_offset } if load_offset == off)
                        });
                        mark = SMark::Literal {
                            sym: e.sym,
                            addend: addends.store(e.addend),
                            escaping,
                        };
                    }
                    RelocKind::LituseBase { load_offset } => {
                        if !matches!(inst, Inst::Mem { .. }) {
                            return Err(bad(format!("base use at {off:#x} is not memory-format")));
                        }
                        mark = SMark::LituseBase { load: linked(*load_offset)? };
                    }
                    RelocKind::LituseJsr { load_offset } => {
                        mark = SMark::LituseJsr { load: linked(*load_offset)? };
                    }
                    RelocKind::LituseAddr { load_offset } => {
                        if *load_offset != off {
                            mark = SMark::LituseAddr { load: linked(*load_offset)? };
                        }
                    }
                    RelocKind::Gpdisp { pair_offset, anchor, .. } => {
                        let lo = id_of_offset((off as i64 + pair_offset) as u64)
                            .filter(|&i| (i as usize) < n)
                            .ok_or_else(|| bad("gpdisp pair crosses procedures".into()))?;
                        mark = if *anchor == offset {
                            SMark::GpdispEntry { lo }
                        } else {
                            let call = id_of_offset(anchor - 4)
                                .filter(|&i| (i as usize) < n)
                                .ok_or_else(|| bad("gpdisp anchor outside procedure".into()))?;
                            SMark::GpdispAfterCall { lo, call }
                        };
                    }
                    RelocKind::BrAddr { sym, addend } => {
                        mark = SMark::BrSym { sym: *sym, addend: addends.store(*addend) };
                    }
                    RelocKind::Gprel16 { sym, addend, .. } => {
                        mark = SMark::Gprel { sym: *sym, addend: addends.store(*addend) };
                    }
                    RelocKind::GprelHigh { sym, addend, .. } => {
                        mark = SMark::GprelHi { sym: *sym, addend: addends.store(*addend) };
                    }
                    RelocKind::GprelLow { sym, addend, hi_addend, .. } => {
                        let addend = addends.store_pair(*addend, *hi_addend);
                        mark = SMark::GprelLo { sym: *sym, addend };
                    }
                    RelocKind::RefQuad { .. } => {
                        return Err(bad("refquad in text".into()));
                    }
                }
            }

            // Mark the GPDISP low halves (they carry no relocation).
            insts.push(SInst { id, inst, mark });
        }

        // OM never deletes a procedure's last instruction, and
        // `SymProc::delete` could not retarget a branch past it.
        if !insts.last().is_some_and(|i| i.inst.is_control()) {
            return Err(OmError::BadText {
                module: m.name.clone(),
                offset: offset + size,
                what: format!("{} does not end in a control instruction", s.name),
            });
        }

        // Second pass over the collected instructions: GpdispLo partners
        // and local branch targets.
        let his: Vec<(usize, InstId)> = insts
            .iter()
            .enumerate()
            .filter_map(|(k, i)| i.mark.gpdisp_lo().map(|lo| (k, lo)))
            .collect();
        for (k, lo) in his {
            let hi_id = insts[k].id;
            let lo_idx = lo as usize;
            if lo_idx >= insts.len() || !matches!(insts[lo_idx].mark, SMark::None) {
                return Err(OmError::BadReloc {
                    module: m.name.clone(),
                    what: format!("gpdisp low half missing in {}", s.name),
                });
            }
            insts[lo_idx].mark = SMark::GpdispLo { hi: hi_id };
        }
        for k in 0..insts.len() {
            if let (Inst::Br { disp, .. }, SMark::None) = (&insts[k].inst, &insts[k].mark) {
                let target = k as i64 + 1 + *disp as i64;
                if target < 0 || target as usize > insts.len() {
                    return Err(OmError::BadText {
                        module: m.name.clone(),
                        offset: offset + 4 * k as u64,
                        what: "branch leaves its procedure".into(),
                    });
                }
                // A branch to the very end would be malformed; our
                // compilers never emit one.
                if target as usize == insts.len() {
                    return Err(OmError::BadText {
                        module: m.name.clone(),
                        offset: offset + 4 * k as u64,
                        what: "branch to procedure end".into(),
                    });
                }
                insts[k].mark = SMark::BrLocal { target: target as InstId };
            }
        }

        procs.push(SymProc { sym: *sym_id, next_id: insts.len() as InstId, insts });
    }
    // Everything but the text, which the procedures now hold.
    let source = Module {
        name: m.name.clone(),
        text: Vec::new(),
        data: m.data.clone(),
        sdata: m.sdata.clone(),
        sbss_size: m.sbss_size,
        bss_size: m.bss_size,
        lita: m.lita.clone(),
        symbols: m.symbols.clone(),
        relocs: m.relocs.iter().filter(|r| r.sec != SecId::Text).copied().collect(),
    };
    Ok(SymModule { source: Arc::new(source), addends, procs })
}

/// Binds per-module translations into a whole program against `symtab`,
/// the link's symbol table over the same modules, which already resolved
/// every symbol: no instruction is rewritten and no name is looked up, and
/// the program shares the table instead of copying it. It is the cheap half
/// of [`translate`], so relinking a program whose modules are all cached
/// costs only this pass.
///
/// The program owns its modules: a translation passed by value, or in an
/// [`Arc`] no one else holds, moves in; one that is borrowed, or that a
/// module cache still shares, is cloned, which copies its procedures and
/// shares its source.
pub fn resolve_symbolic<I>(modules: I, symtab: &SymbolTable) -> SymProgram
where
    I: IntoIterator,
    I::Item: Into<SymModule>,
{
    SymProgram {
        modules: modules.into_iter().map(Into::into).collect(),
        symtab: symtab.clone(),
        preserve_gat: true,
    }
}

/// A borrowed translation joins a program as a copy.
impl From<&SymModule> for SymModule {
    fn from(m: &SymModule) -> SymModule {
        m.clone()
    }
}

/// A shared translation joins a program by move when no one else holds it,
/// as a copy when the module cache does.
impl From<Arc<SymModule>> for SymModule {
    fn from(m: Arc<SymModule>) -> SymModule {
        Arc::try_unwrap(m).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Translates the whole program into symbolic form: [`translate_module`]
/// per module, bound together by [`resolve_symbolic`].
///
/// # Errors
///
/// Returns [`OmError`] if any module fails translation (see
/// [`translate_module`]).
pub fn translate(modules: &[Module], symtab: &SymbolTable) -> Result<SymProgram, OmError> {
    let translated = modules
        .iter()
        .map(translate_module)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(resolve_symbolic(translated, symtab))
}

/// Lowers symbolic module `sm` back to object code over `m`, its source,
/// with `lita` as its `.lita`. Reads only `sm`'s procedures and addends.
///
/// The returned module keeps the source's symbol table, with procedure
/// offsets and sizes updated, so every mark's [`SymId`] and every
/// [`GlobalRef`] stays valid across emit/translate rounds. Text, `.lita`,
/// and text relocations are rebuilt from the symbolic procedures.
///
/// # Errors
///
/// Returns [`OmError::Internal`] on dangling symbolic references — these
/// indicate a transformation bug, but a link server must report them to the
/// offending request rather than abort the process.
fn emit_module(sm: &SymModule, mut m: Module, lita: Vec<LitaEntry>) -> Result<Module, OmError> {
    m.lita = lita;
    let slot_of: HashMap<(SymId, i64), u32> =
        m.lita.iter().enumerate().map(|(k, e)| ((e.sym, e.addend), k as u32)).collect();

    // Offsets by instruction id (dense per procedure, so sized by
    // `next_id`; an id past it would be a bug, and grows the table rather
    // than panic), reused across procedures; `NO_OFFSET` where the id is
    // gone.
    const NO_OFFSET: u64 = u64::MAX;
    let mut off_of: Vec<u64> = Vec::new();
    for p in &sm.procs {
        let name = m.symbols.get(p.sym.0 as usize).map_or("", |s| s.name.as_str());
        let start = m.text.len() as u64;
        off_of.clear();
        off_of.resize(p.next_id as usize, NO_OFFSET);
        for (k, i) in p.insts.iter().enumerate() {
            let id = i.id as usize;
            if id >= off_of.len() {
                off_of.resize(id + 1, NO_OFFSET);
            }
            off_of[id] = start + 4 * k as u64;
        }
        // A mark naming an instruction id absent from the procedure is a
        // transformation bug (the former `index_of` panic class); surface it
        // as a typed error so one bad request cannot take down a server.
        let off = |id: InstId| -> Result<u64, OmError> {
            off_of.get(id as usize).copied().filter(|&o| o != NO_OFFSET).ok_or_else(|| {
                OmError::Internal {
                    context: "emit".into(),
                    what: format!("dangling instruction id {id} in {name}"),
                }
            })
        };
        for (k, si) in p.insts.iter().enumerate() {
            let here = start + 4 * k as u64;
            let mut inst = si.inst;
            match si.mark {
                SMark::None => {}
                SMark::Literal { sym, addend, escaping } => {
                    let lita = slot_of[&(sym, sm.addend(addend))];
                    m.relocs.push(Reloc::text(here, RelocKind::Literal { lita }));
                    if escaping {
                        m.relocs
                            .push(Reloc::text(here, RelocKind::LituseAddr { load_offset: here }));
                    }
                }
                SMark::LituseBase { load } => {
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::LituseBase { load_offset: off(load)? },
                    ));
                }
                SMark::LituseJsr { load } => {
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::LituseJsr { load_offset: off(load)? },
                    ));
                }
                SMark::LituseAddr { load } => {
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::LituseAddr { load_offset: off(load)? },
                    ));
                }
                SMark::GpdispEntry { lo } | SMark::GpdispAfterCall { lo, .. } => {
                    let anchor = match si.mark {
                        SMark::GpdispAfterCall { call, .. } => off(call)? + 4,
                        _ => start,
                    };
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::Gpdisp {
                            pair_offset: off(lo)? as i64 - here as i64,
                            anchor,
                            gp_group: 0,
                        },
                    ));
                }
                SMark::GpdispLo { .. } => {}
                SMark::BrSym { sym, addend } => {
                    let addend = sm.addend(addend);
                    m.relocs.push(Reloc::text(here, RelocKind::BrAddr { sym, addend }));
                }
                SMark::BrLocal { target } => {
                    let toff = off(target)?;
                    let disp = (toff as i64 - (here as i64 + 4)) / 4;
                    if let Inst::Br { op, ra, .. } = inst {
                        inst = Inst::Br { op, ra, disp: disp as i32 };
                    } else {
                        return Err(OmError::Internal {
                            context: "emit".into(),
                            what: format!("BrLocal on non-branch in {name}"),
                        });
                    }
                }
                SMark::Gprel { sym, addend } => {
                    let addend = sm.addend(addend);
                    m.relocs
                        .push(Reloc::text(here, RelocKind::Gprel16 { sym, addend, gp_group: 0 }));
                }
                SMark::GprelHi { sym, addend } => {
                    let addend = sm.addend(addend);
                    m.relocs
                        .push(Reloc::text(here, RelocKind::GprelHigh { sym, addend, gp_group: 0 }));
                }
                SMark::GprelLo { sym, addend: a } => {
                    let (addend, hi_addend) = (sm.addend(a), sm.hi_addend(a));
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::GprelLow { sym, addend, hi_addend, gp_group: 0 },
                    ));
                }
            }
            m.text.extend_from_slice(&om_alpha::encode(inst).to_le_bytes());
        }
        // Update the procedure symbol in place.
        let size = m.text.len() as u64 - start;
        let entry = m.symbols.get_mut(p.sym.0 as usize).ok_or_else(|| OmError::Internal {
            context: "emit".into(),
            what: format!("procedure symbol id {} out of range in {}", p.sym.0, m.name),
        })?;
        if let SymbolDef::Proc { offset, size: sz, .. } = &mut entry.def {
            *offset = start;
            *sz = size;
        } else {
            return Err(OmError::Internal {
                context: "emit".into(),
                what: format!("procedure symbol {} is not a proc", entry.name),
            });
        }
    }

    m.sort_relocs();
    Ok(m)
}

/// The `.lita` entries [`emit_module`] writes for module `mi`: each distinct
/// `(symbol, addend)` of its `Literal` marks in code order, then, when the
/// program preserves its GAT (OM-simple never shrinks it), the input's
/// entries that no surviving instruction references.
pub(crate) fn gat_entries(program: &SymProgram, mi: usize) -> Vec<LitaEntry> {
    let sm = &program.modules[mi];
    let mut seen: HashSet<(SymId, i64)> = HashSet::new();
    let literals = sm.procs.iter().flat_map(|p| &p.insts).filter_map(|i| match i.mark {
        SMark::Literal { sym, addend, .. } => Some(LitaEntry { sym, addend: sm.addend(addend) }),
        _ => None,
    });
    let kept = if program.preserve_gat { &sm.source.lita[..] } else { &[] };
    literals.chain(kept.iter().copied()).filter(|e| seen.insert((e.sym, e.addend))).collect()
}

/// Emits every module of the program.
///
/// # Errors
///
/// Returns [`OmError::Internal`] if any module has dangling symbolic
/// references (see `emit_module`).
pub fn emit_all(program: &SymProgram) -> Result<Vec<Module>, OmError> {
    (program.modules.iter().enumerate())
        .map(|(mi, sm)| emit_module(sm, Module::clone(&sm.source), gat_entries(program, mi)))
        .collect()
}

/// [`emit_all`] for a link done with the program: each module's procedures
/// are freed once it is emitted, so the emitted modules reuse their memory
/// instead of interleaving with a program about to be freed, and a source
/// no module cache shares moves into its emitted module.
pub(crate) fn emit_all_freeing(mut program: SymProgram) -> Result<Vec<Module>, OmError> {
    (0..program.modules.len())
        .map(|mi| {
            let lita = gat_entries(&program, mi);
            let sm = &mut program.modules[mi];
            let source = Arc::try_unwrap(std::mem::take(&mut sm.source));
            let m = emit_module(sm, source.unwrap_or_else(|shared| Module::clone(&shared)), lita);
            sm.procs = Vec::new();
            m
        })
        .collect()
}

//! Program layout: section placement, GAT merging with deduplication, GP
//! value selection, and common-symbol allocation.
//!
//! The data segment is laid out as `[.lita][.sdata][commons][.sbss][.data]
//! [.bss]`, so the GAT sits at the bottom of the GP window and the small
//! data right above it. The GP for each GAT group is `group base + 0x8000`,
//! putting the entire group plus as much small data as possible within the
//! signed 16-bit window — the "simple heuristic to pick a good value for the
//! GP" the paper mentions.

use crate::error::LinkError;
use crate::image::{Extent, LayoutInfo};
use crate::resolve::{GlobalRef, SymbolTable};
use om_objfile::{LitaEntry, Module, SecId, Symbol, SymbolDef, SymId, DATA_BASE, TEXT_BASE};
use std::borrow::Borrow;

/// Maximum GAT slots per GP group: a signed 16-bit displacement spans 64KB
/// around GP; with GP at `base + 0x8000` every slot of an 8191-entry table
/// is addressable.
pub const GAT_GROUP_CAPACITY: usize = 8191;

/// Layout policy knobs (the standard linker vs OM-simple differ only here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub struct LayoutOpts {
    /// Sort common symbols by size so the smallest land nearest the GAT
    /// (an OM-simple improvement; the standard linker allocates them in
    /// input order).
    pub sort_commons: bool,
}


/// Per-module section bases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleBases {
    pub text: u64,
    pub data: u64,
    pub sdata: u64,
    pub sbss: u64,
    pub bss: u64,
}

impl ModuleBases {
    /// Base address of the module's section `sec`.
    pub fn of(&self, sec: SecId) -> u64 {
        match sec {
            SecId::Text => self.text,
            SecId::Data => self.data,
            SecId::Sdata => self.sdata,
            SecId::Sbss => self.sbss,
            SecId::Bss => self.bss,
        }
    }
}

/// The computed program layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramLayout {
    pub bases: Vec<ModuleBases>,
    /// GAT group of each module.
    pub group_of_module: Vec<u32>,
    /// GP value per group.
    pub gp_values: Vec<u64>,
    /// Per module, per local `.lita` index: the merged slot's address.
    pub lita_addr: Vec<Vec<u64>>,
    /// Address of each common, by its index in [`SymbolTable::commons`].
    pub common_addr: Vec<u64>,
    /// Deduplicated GAT slots in address order: (address, module, local index).
    pub slots: Vec<(u64, usize, u32)>,
    pub info: LayoutInfo,
    /// Total `.lita` entries before deduplication.
    pub gat_entries_input: usize,
    /// Slots after merging.
    pub gat_slots: usize,
}

fn align(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

/// Largest data-segment span the relocation machinery can address: GPDISP
/// splitting covers ±2GB around any text address, so the whole segment must
/// stay within a signed 32-bit reach of its base.
pub const MAX_DATA_SPAN: u64 = i32::MAX as u64;

/// Advances `addr` by `size`, failing with a typed [`LinkError::Range`] if
/// the addition wraps or pushes the data segment past [`MAX_DATA_SPAN`].
/// Catching this here (not at relocation-patch time) also keeps
/// `build_image` from materializing a multi-gigabyte zero fill first.
fn data_bump(addr: &mut u64, size: u64, what: impl FnOnce() -> String) -> Result<(), LinkError> {
    match addr.checked_add(size) {
        Some(next) if next - DATA_BASE <= MAX_DATA_SPAN => {
            *addr = next;
            Ok(())
        }
        _ => Err(LinkError::Range {
            what: format!(
                "{} pushes the data segment past its {MAX_DATA_SPAN}-byte span",
                what()
            ),
        }),
    }
}

/// What [`layout`] reads of a module: its name, symbols, section sizes and
/// `.lita`. Addresses follow from sizes alone, so a module can be laid out
/// without its bytes: OM's snapshots place symbolic modules this way.
pub trait Placed {
    fn name(&self) -> &str;
    fn symbols(&self) -> &[Symbol];
    /// Byte length of section `sec`.
    fn section_len(&self, sec: SecId) -> u64;
    fn lita(&self) -> &[LitaEntry];
}

impl<P: Placed + ?Sized> Placed for &P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn symbols(&self) -> &[Symbol] {
        (**self).symbols()
    }
    fn section_len(&self, sec: SecId) -> u64 {
        (**self).section_len(sec)
    }
    fn lita(&self) -> &[LitaEntry] {
        (**self).lita()
    }
}

impl Placed for Module {
    fn name(&self) -> &str {
        &self.name
    }
    fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }
    fn section_len(&self, sec: SecId) -> u64 {
        Module::section_len(self, sec)
    }
    fn lita(&self) -> &[LitaEntry] {
        &self.lita
    }
}

/// The slot count of `modules`' merged GAT: [`layout`]'s GAT step alone,
/// without placing text, data or commons, under the same contract.
///
/// # Errors
///
/// [`LinkError::Range`] when a single module's literal pool cannot fit one
/// GAT group, as [`layout`] reports it.
pub fn gat_slots<P: Placed>(modules: &[P], symtab: &SymbolTable) -> Result<usize, LinkError> {
    let mut out = ProgramLayout::default();
    merge_gat(modules, symtab, &mut out)?;
    Ok(out.gat_slots)
}

/// Merges the modules' `.lita` entries into GAT groups from [`DATA_BASE`]
/// up, deduplicating within a group and splitting when one fills. Fills
/// `out`'s GAT fields (groups, GP values, slot addresses, counts and the
/// `.lita` extent) and returns the first address past the GAT.
///
/// A slot is a resolved target plus addend, which the symbol table
/// numbered once ([`SymbolTable::gat_entry`]); a local definition's slot is
/// its own module's. So the merge is an array pass: each entry keeps the
/// group that last placed it and its slot, and a new group starts a new
/// stamp. Slots go in first-appearance order.
fn merge_gat<P: Placed>(
    modules: &[P],
    symtab: &SymbolTable,
    out: &mut ProgramLayout,
) -> Result<u64, LinkError> {
    out.group_of_module = vec![0; modules.len()];
    out.lita_addr = modules.iter().map(|m| vec![0; m.lita().len()]).collect();
    let lita_base = DATA_BASE;
    let slot_addr = |slot: u32| lita_base + 8 * u64::from(slot);
    // By entry: the stamp of the group that last placed it (its index plus
    // one) and its slot.
    let mut placed: Vec<(u32, u32)> = vec![(0, 0); symtab.gat_entry_count()];
    let (mut slots, mut group, mut group_first) = (0u32, 0u32, 0u32);
    let mut group_bases: Vec<u64> = vec![lita_base];
    let mut entries: Vec<usize> = Vec::new();

    for (mi, m) in modules.iter().enumerate() {
        out.gat_entries_input += m.lita().len();
        entries.clear();
        entries.extend(m.lita().iter().map(|&e| symtab.gat_entry(mi, e)));
        // How many new slots would this module add to the current group?
        // An entry the module lists twice counts twice.
        let new = entries.iter().filter(|&&e| placed[e].0 != group + 1).count();
        let split = (slots - group_first) as usize + new > GAT_GROUP_CAPACITY;
        if split && slots != group_first {
            // Seal the group and start a new one for this module.
            group += 1;
            group_first = slots;
            group_bases.push(slot_addr(slots));
        }
        out.group_of_module[mi] = group;
        for (li, &e) in entries.iter().enumerate() {
            let p = &mut placed[e];
            if p.0 != group + 1 {
                *p = (group + 1, slots);
                out.slots.push((slot_addr(slots), mi, li as u32));
                slots += 1;
            }
            out.lita_addr[mi][li] = slot_addr(p.1);
        }
        // Groups split only at module boundaries, so a module whose own
        // pool outgrows a fresh group can never be laid out — the wall a
        // monolithic compile-all merge of a scale-sized program hits.
        let distinct = (slots - group_first) as usize;
        if split && distinct > GAT_GROUP_CAPACITY {
            return Err(LinkError::Range {
                what: format!(
                    "module `{}` alone needs {distinct} GAT slots but one GP group \
                     holds {GAT_GROUP_CAPACITY}; groups split only at module \
                     boundaries (recompile in smaller units)",
                    m.name()
                ),
            });
        }
    }
    let addr = slot_addr(slots);
    out.gat_slots = slots as usize;
    out.info.lita = Extent { base: lita_base, size: addr - lita_base };
    out.gp_values = group_bases.iter().map(|&b| b + 0x8000).collect();
    out.info.gp_values = out.gp_values.clone();
    Ok(addr)
}

/// Computes the layout of `modules` against `symtab`, which must number
/// every entry of their `.lita`s: the table
/// [`build_symbol_table`](crate::build_symbol_table) builds for them, or
/// for modules with the same symbols whose `.lita`s hold those entries (as
/// OM's inputs hold its emitted modules').
///
/// # Errors
///
/// [`LinkError::Range`] when a single module's literal pool cannot fit one
/// GAT group (groups split only at module boundaries) or when the section
/// sizes overflow the data segment's addressable span.
///
/// # Panics
///
/// Panics on a `.lita` entry the table did not number
/// ([`SymbolTable::gat_entry`]).
pub fn layout<P: Placed>(
    modules: &[P],
    symtab: &SymbolTable,
    opts: &LayoutOpts,
) -> Result<ProgramLayout, LinkError> {
    let mut out = ProgramLayout {
        bases: vec![ModuleBases::default(); modules.len()],
        ..ProgramLayout::default()
    };

    // Text.
    let mut pc = TEXT_BASE;
    for (mi, m) in modules.iter().enumerate() {
        pc = align(pc, 16);
        out.bases[mi].text = pc;
        pc += m.section_len(SecId::Text);
    }
    out.info.text = Extent { base: TEXT_BASE, size: pc - TEXT_BASE };

    let mut addr = merge_gat(modules, symtab, &mut out)?;

    // .sdata per module.
    let sdata_base = addr;
    for (mi, m) in modules.iter().enumerate() {
        out.bases[mi].sdata = addr;
        data_bump(&mut addr, m.section_len(SecId::Sdata), || format!(".sdata of `{}`", m.name()))?;
    }
    addr = align(addr, 8);
    out.info.sdata = Extent { base: sdata_base, size: addr - sdata_base };

    // Commons in the table's (input) order, or sorted by size and name
    // (OM-simple's improvement).
    let commons = symtab.commons();
    let mut order: Vec<usize> = (0..commons.len()).collect();
    if opts.sort_commons {
        order.sort_by_key(|&c| (commons[c].size, commons[c].name.as_str()));
    }
    out.common_addr = vec![0; commons.len()];
    for c in order {
        let common = &commons[c];
        addr = align(addr, common.align.max(8));
        out.common_addr[c] = addr;
        data_bump(&mut addr, common.size, || format!("common `{}`", common.name))?;
    }

    // .sbss per module.
    let sbss_base = addr;
    for (mi, m) in modules.iter().enumerate() {
        addr = align(addr, 8);
        out.bases[mi].sbss = addr;
        data_bump(&mut addr, m.section_len(SecId::Sbss), || format!(".sbss of `{}`", m.name()))?;
    }
    out.info.sbss = Extent { base: sbss_base, size: addr - sbss_base };

    // .data per module.
    addr = align(addr, 16);
    let data_base = addr;
    for (mi, m) in modules.iter().enumerate() {
        addr = align(addr, 16);
        out.bases[mi].data = addr;
        data_bump(&mut addr, m.section_len(SecId::Data), || format!(".data of `{}`", m.name()))?;
    }
    out.info.data = Extent { base: data_base, size: addr - data_base };

    // .bss per module.
    addr = align(addr, 16);
    let bss_base = addr;
    for (mi, m) in modules.iter().enumerate() {
        addr = align(addr, 16);
        out.bases[mi].bss = addr;
        data_bump(&mut addr, m.section_len(SecId::Bss), || format!(".bss of `{}`", m.name()))?;
    }
    out.info.bss = Extent { base: bss_base, size: addr - bss_base };

    Ok(out)
}

/// The address symbol `id` of module `mi` names under `layout`: its
/// [`GlobalRef`] in `symtab`, placed.
///
/// # Errors
///
/// Returns [`LinkError::Undefined`] for a symbol the table leaves
/// unresolved.
pub fn sym_addr<M: Borrow<Module>>(
    modules: &[M],
    symtab: &SymbolTable,
    layout: &ProgramLayout,
    mi: usize,
    id: SymId,
) -> Result<u64, LinkError> {
    let placed = match symtab.target(mi, id) {
        GlobalRef::Def { module, sym } => {
            let b = &layout.bases[module];
            match modules[module].borrow().symbol(sym).def {
                SymbolDef::Proc { offset, .. } => Some(b.text + offset),
                SymbolDef::Data { sec, offset, .. } => Some(b.of(sec) + offset),
                SymbolDef::Common { .. } | SymbolDef::Extern => None,
            }
        }
        GlobalRef::Common(c) => Some(layout.common_addr[c as usize]),
        GlobalRef::Unresolved => None,
    };
    placed.ok_or_else(|| {
        let m = modules[mi].borrow();
        LinkError::Undefined { name: m.symbol(id).name.clone(), referenced_by: m.name.clone() }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::build_symbol_table;
    use om_objfile::{LitaEntry, Symbol};

    fn mod_with_lita(name: &str, refs: &[&str]) -> Module {
        let mut m = Module::new(name);
        m.text = vec![0; 8];
        m.symbols.push(Symbol::proc(format!("{name}_p"), 0, 8, 0));
        for r in refs {
            let id = SymId(m.symbols.len() as u32);
            m.symbols.push(Symbol::external(*r));
            m.lita.push(LitaEntry { sym: id, addend: 0 });
        }
        m
    }

    fn defs(names: &[&str]) -> Module {
        let mut m = Module::new("defs");
        m.text = vec![0; 8 * names.len()];
        for (i, n) in names.iter().enumerate() {
            m.symbols.push(Symbol::proc(*n, 8 * i as u64, 8, 0));
        }
        m
    }

    #[test]
    fn gat_entries_dedup_across_modules() {
        let mods = vec![
            mod_with_lita("a", &["f", "g"]),
            mod_with_lita("b", &["g", "h"]),
            defs(&["f", "g", "h"]),
        ];
        let t = build_symbol_table(&mods).unwrap();
        let l = layout(&mods, &t, &LayoutOpts::default()).unwrap();
        assert_eq!(l.gat_entries_input, 4);
        assert_eq!(l.gat_slots, 3); // g is shared
        // Both modules' `g` slots resolve to the same address.
        assert_eq!(l.lita_addr[0][1], l.lita_addr[1][0]);
    }

    #[test]
    fn local_symbols_do_not_merge() {
        let mut a = Module::new("a");
        a.text = vec![0; 8];
        a.symbols.push(Symbol::proc("p", 0, 8, 0).local());
        a.lita.push(LitaEntry { sym: SymId(0), addend: 0 });
        let mut b = Module::new("b");
        b.text = vec![0; 8];
        b.symbols.push(Symbol::proc("p", 0, 8, 0).local());
        b.lita.push(LitaEntry { sym: SymId(0), addend: 0 });
        let mods = vec![a, b];
        let t = build_symbol_table(&mods).unwrap();
        let l = layout(&mods, &t, &LayoutOpts::default()).unwrap();
        assert_eq!(l.gat_slots, 2);
        assert_ne!(l.lita_addr[0][0], l.lita_addr[1][0]);
    }

    #[test]
    fn gp_window_covers_the_gat() {
        let mods = vec![mod_with_lita("a", &["f"]), defs(&["f"])];
        let t = build_symbol_table(&mods).unwrap();
        let l = layout(&mods, &t, &LayoutOpts::default()).unwrap();
        let gp = l.gp_values[0];
        let slot = l.lita_addr[0][0];
        let disp = slot as i64 - gp as i64;
        assert!(i16::try_from(disp).is_ok());
    }

    #[test]
    fn sorted_commons_place_small_first() {
        let mut a = Module::new("a");
        a.symbols.push(Symbol::common("big", 4096, 8));
        a.symbols.push(Symbol::common("tiny", 8, 8));
        a.symbols.push(Symbol::external("f"));
        let mods = vec![a, defs(&["f"])];
        let t = build_symbol_table(&mods).unwrap();

        let plain = layout(&mods, &t, &LayoutOpts { sort_commons: false }).unwrap();
        let sorted = layout(&mods, &t, &LayoutOpts { sort_commons: true }).unwrap();
        // Input order: big first. Sorted: tiny first.
        let (big, tiny) = (0, 1);
        assert_eq!(t.commons()[big].name, "big");
        assert!(plain.common_addr[big] < plain.common_addr[tiny]);
        assert!(sorted.common_addr[tiny] < sorted.common_addr[big]);
    }

    #[test]
    fn input_order_places_commons_by_first_declaration() {
        // `s` is declared common first but a strong definition takes it;
        // `late` is first mentioned by an `extern`, then declared common
        // after `b`, in a later module; `a` merges to its larger size.
        let mut m0 = Module::new("m0");
        m0.symbols.push(Symbol::common("s", 64, 8));
        m0.symbols.push(Symbol::external("late"));
        m0.symbols.push(Symbol::common("a", 24, 8));
        let mut m1 = Module::new("m1");
        m1.symbols.push(Symbol::common("b", 8, 8));
        m1.symbols.push(Symbol::common("late", 16, 8));
        let mut m2 = Module::new("m2");
        m2.data = vec![0; 8];
        m2.symbols.push(Symbol::data("s", SecId::Data, 0, 8));
        m2.symbols.push(Symbol::common("a", 40, 8));
        let mods = vec![m0, m1, m2];
        let t = build_symbol_table(&mods).unwrap();
        let l = layout(&mods, &t, &LayoutOpts { sort_commons: false }).unwrap();
        let addr = |mi: usize, id: u32| sym_addr(&mods, &t, &l, mi, SymId(id)).unwrap();
        let first = l.info.sdata.base + l.info.sdata.size;
        assert_eq!(addr(0, 2), first, "`a` first");
        assert_eq!(addr(2, 1), first);
        assert_eq!(addr(1, 0), first + 40, "then `b`");
        assert_eq!((addr(1, 1), addr(0, 1)), (first + 48, first + 48), "then `late`");
        assert_eq!(l.info.sbss.base, first + 64, "and nothing for `s`");
        assert_eq!((addr(0, 0), addr(2, 0)), (l.bases[2].data, l.bases[2].data));
    }

    #[test]
    fn sections_do_not_overlap() {
        let mods = vec![
            {
                let mut m = mod_with_lita("a", &["f"]);
                m.sdata = vec![0; 24];
                m.data = vec![0; 100];
                m.bss_size = 64;
                m.sbss_size = 16;
                m
            },
            defs(&["f"]),
        ];
        let t = build_symbol_table(&mods).unwrap();
        let l = layout(&mods, &t, &LayoutOpts::default()).unwrap();
        let i = &l.info;
        assert!(i.lita.base + i.lita.size <= i.sdata.base);
        assert!(i.sdata.base + i.sdata.size <= i.sbss.base);
        assert!(i.sbss.base + i.sbss.size <= i.data.base);
        assert!(i.data.base + i.data.size <= i.bss.base);
    }

    #[test]
    fn group_splitting_respects_capacity() {
        // Two modules, each with GAT_GROUP_CAPACITY unique entries.
        let mut mods = Vec::new();
        for name in ["a", "b"] {
            let mut m = Module::new(name);
            m.text = vec![0; 8];
            m.symbols.push(Symbol::proc(format!("{name}_p"), 0, 8, 0));
            for i in 0..GAT_GROUP_CAPACITY {
                let id = SymId(m.symbols.len() as u32);
                m.symbols.push(Symbol::common(format!("{name}_c{i}"), 8, 8));
                m.lita.push(LitaEntry { sym: id, addend: 0 });
            }
            mods.push(m);
        }
        let t = build_symbol_table(&mods).unwrap();
        let l = layout(&mods, &t, &LayoutOpts::default()).unwrap();
        assert_eq!(l.gp_values.len(), 2);
        assert_eq!(l.group_of_module, vec![0, 1]);
    }
}

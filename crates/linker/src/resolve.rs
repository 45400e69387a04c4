//! Input resolution: archive member selection, the global symbol table, and
//! common-symbol merging.

use crate::error::LinkError;
use crate::layout::Placed;
use om_objfile::{Archive, LitaEntry, Module, SymbolDef, SymId, Visibility};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Selects the modules participating in a link: all explicit objects plus
/// any archive members (transitively) needed to satisfy undefined symbols,
/// in archive order — the `ld` discipline that brings pre-compiled library
/// code into the program.
///
/// Borrows everything: the selection is the objects and archive members
/// themselves, so a link (standard, or OM at any level) copies no input.
///
/// # Errors
///
/// Returns [`LinkError::Object`] if any object fails validation (archive
/// members were validated when they were added).
pub fn select_borrowed<'a>(
    objects: &'a [Module],
    libs: &'a [Archive],
) -> Result<Vec<&'a Module>, LinkError> {
    for m in objects {
        m.validate()?;
    }
    let mut defined: HashSet<&str> = HashSet::new();
    let mut undefined: Vec<&str> = Vec::new();
    for m in objects {
        for s in &m.symbols {
            if s.is_defined() && s.vis == Visibility::Exported {
                defined.insert(&s.name);
            }
        }
    }
    for m in objects {
        for s in &m.symbols {
            if !s.is_defined() && !defined.contains(s.name.as_str()) {
                undefined.push(&s.name);
            }
        }
    }

    let mut out: Vec<&Module> = objects.iter().collect();
    for lib in libs {
        let picked = lib.select(undefined.iter().copied());
        // Members may satisfy each other; what is still undefined for the
        // *next* archive changes only by what this one added.
        for m in &picked {
            for s in &m.symbols {
                if s.is_defined() && s.vis == Visibility::Exported {
                    defined.insert(&s.name);
                }
            }
        }
        undefined.retain(|n| !defined.contains(n));
        for m in &picked {
            for s in &m.symbols {
                if !s.is_defined() && !defined.contains(s.name.as_str()) {
                    undefined.push(&s.name);
                }
            }
        }
        out.extend(picked);
    }
    Ok(out)
}

/// [`select_borrowed`], copied into owned modules.
///
/// # Errors
///
/// See [`select_borrowed`].
pub fn select_modules(
    objects: &[Module],
    libs: &[Archive],
) -> Result<Vec<Module>, LinkError> {
    Ok(select_borrowed(objects, libs)?.into_iter().cloned().collect())
}

/// What a symbol names program-wide. [`build_symbol_table`] decides it
/// once for every symbol of every module; layout, the image, the verifier
/// and OM's passes all read it from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalRef {
    /// A procedure or data definition: `(module index, symbol id)`.
    Def { module: usize, sym: SymId },
    /// A merged common: its index in [`SymbolTable::commons`].
    Common(u32),
    /// Nothing. In a table [`build_symbol_table`] returned, only a local
    /// common with no exported common of its name.
    Unresolved,
}

/// A common symbol merged across modules: the largest size and alignment
/// any exported declaration of its name asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Common {
    pub name: String,
    pub size: u64,
    pub align: u64,
}

/// The program-wide symbol table: the [`GlobalRef`] of every symbol of
/// every module, in one flat array, the merged commons, and the number of
/// every distinct GAT entry. A clone shares it, so OM's symbolic program
/// holds the link's table, not a copy. Two tables are equal when they
/// resolve every symbol alike and merge the same commons: the GAT entry
/// numbers are private to each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolTable(Arc<Resolved>);

#[derive(Debug)]
struct Resolved {
    /// Index in `targets` of each module's first symbol, plus the total.
    first: Vec<usize>,
    targets: Vec<GlobalRef>,
    commons: Vec<Common>,
    /// The GAT entry of each symbol at addend 0, parallel to `targets`:
    /// what it names (its own, for a local common) numbered in the order
    /// the `.lita`s first name it, at any addend, or [`UNNAMED`].
    keys: Vec<u32>,
    /// How many targets the `.lita`s name: the entries numbered by `keys`.
    named: usize,
    /// The distinct `(key, addend)` of the `.lita` entries with a nonzero
    /// addend, sorted: entries numbered after the named targets.
    offsets: Vec<(u32, i64)>,
}

/// The key of a symbol whose target no `.lita` names.
const UNNAMED: u32 = u32::MAX;

impl PartialEq for Resolved {
    fn eq(&self, other: &Resolved) -> bool {
        self.first == other.first && self.targets == other.targets && self.commons == other.commons
    }
}

impl Eq for Resolved {}

impl SymbolTable {
    /// What symbol `sym` of module `mi` names.
    pub fn target(&self, mi: usize, sym: SymId) -> GlobalRef {
        let t = &self.0;
        t.targets[t.first[mi]..t.first[mi + 1]][sym.0 as usize]
    }

    /// The merged commons, in the order their names are first declared
    /// common (by a local declaration too): the standard linker's
    /// placement order.
    pub fn commons(&self) -> &[Common] {
        &self.0.commons
    }

    /// The GAT entry that `.lita` entry `e` of module `mi` names: a number
    /// below [`SymbolTable::gat_entry_count`], equal for two entries exactly
    /// when they share one slot of a GP group (the same resolved target and
    /// addend; a local definition's entry is its module's own). Numbers mean
    /// nothing outside their table.
    ///
    /// # Panics
    ///
    /// Panics on an entry that no `.lita` of the table's modules holds, by
    /// its target and addend: the table numbers only those (OM's emitted
    /// `.lita`s hold a subset of their inputs', as OM creates no entry).
    pub fn gat_entry(&self, mi: usize, e: LitaEntry) -> usize {
        let t = &self.0;
        let key = t.keys[t.first[mi]..t.first[mi + 1]][e.sym.0 as usize];
        let entry = match (key, e.addend) {
            (UNNAMED, _) => None,
            (_, 0) => Some(key as usize),
            _ => t.offsets.binary_search(&(key, e.addend)).ok().map(|k| t.named + k),
        };
        entry.expect("a `.lita` entry of the table's modules")
    }

    /// How many GAT entries the table numbers: the length of a table
    /// indexed by [`SymbolTable::gat_entry`], about the number of distinct
    /// entries the modules' `.lita`s hold.
    pub fn gat_entry_count(&self) -> usize {
        self.0.named + self.0.offsets.len()
    }
}

/// Builds the symbol table over the selected modules, resolving every
/// symbol once. A local definition names itself. Any other symbol names the
/// exported strong definition of its name, else the merged common of its
/// name; a local common names only the common. Strong definitions
/// (procedures, data) override common (tentative) definitions.
///
/// It also numbers every distinct GAT entry of the modules' `.lita`s once
/// ([`SymbolTable::gat_entry`]), so a layout merges the GAT by number over
/// a table as long as the distinct entries.
///
/// # Errors
///
/// Returns [`LinkError::Duplicate`] for the first name two modules define,
/// else [`LinkError::Undefined`] for the first `extern` that names nothing.
pub fn build_symbol_table<P: Placed>(modules: &[P]) -> Result<SymbolTable, LinkError> {
    let mut globals: HashMap<&str, (usize, SymId)> = HashMap::new();
    // Names declared common, in first-declaration order, each merged over
    // its exported declarations and marked when there is one.
    let mut declared: HashMap<&str, usize> = HashMap::new();
    let mut decls: Vec<(Common, bool)> = Vec::new();
    for (mi, m) in modules.iter().enumerate() {
        for (id, s) in m.symbols().iter().enumerate() {
            match (&s.def, s.vis) {
                (SymbolDef::Proc { .. } | SymbolDef::Data { .. }, Visibility::Exported) => {
                    if let Some(&(prev, _)) = globals.get(s.name.as_str()) {
                        return Err(LinkError::Duplicate {
                            name: s.name.clone(),
                            modules: (modules[prev].name().to_string(), m.name().to_string()),
                        });
                    }
                    globals.insert(&s.name, (mi, SymId(id as u32)));
                }
                (SymbolDef::Common { size, align }, vis) => {
                    let d = *declared.entry(&s.name).or_insert_with(|| {
                        decls.push((Common { name: s.name.clone(), size: 0, align: 8 }, false));
                        decls.len() - 1
                    });
                    if vis == Visibility::Exported {
                        let (c, exported) = &mut decls[d];
                        c.size = c.size.max(*size);
                        c.align = c.align.max(*align);
                        *exported = true;
                    }
                }
                _ => {}
            }
        }
    }
    // Each declared name's index among the program's commons, if it is one.
    let mut commons = Vec::new();
    let common_of: Vec<Option<u32>> = decls
        .into_iter()
        .map(|(c, exported)| {
            (exported && !globals.contains_key(c.name.as_str())).then(|| {
                commons.push(c);
                commons.len() as u32 - 1
            })
        })
        .collect();
    let common = |name: &str| {
        let c = declared.get(name).and_then(|&d| common_of[d]);
        c.map_or(GlobalRef::Unresolved, GlobalRef::Common)
    };

    let mut first = Vec::with_capacity(modules.len() + 1);
    first.push(0);
    for m in modules {
        first.push(first[first.len() - 1] + m.symbols().len());
    }
    let total = first[modules.len()];
    let (mut targets, mut keys) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let key_of = |r: GlobalRef| match r {
        GlobalRef::Def { module, sym } => first[module] + sym.0 as usize,
        GlobalRef::Common(c) => total + c as usize,
        GlobalRef::Unresolved => total + commons.len(),
    };
    for (mi, m) in modules.iter().enumerate() {
        for (id, s) in m.symbols().iter().enumerate() {
            let target = match (&s.def, s.vis) {
                (SymbolDef::Proc { .. } | SymbolDef::Data { .. }, _) => {
                    GlobalRef::Def { module: mi, sym: SymId(id as u32) }
                }
                (SymbolDef::Common { .. }, Visibility::Local) => common(&s.name),
                _ => match globals.get(s.name.as_str()) {
                    Some(&(module, sym)) => GlobalRef::Def { module, sym },
                    None => common(&s.name),
                },
            };
            if target == GlobalRef::Unresolved && s.def == SymbolDef::Extern {
                return Err(LinkError::Undefined {
                    name: s.name.clone(),
                    referenced_by: m.name().to_string(),
                });
            }
            // A local common shares the storage of the common of its name,
            // but keeps a GAT slot of its own module.
            let key = match (&s.def, s.vis) {
                (SymbolDef::Common { .. }, Visibility::Local) => first[mi] + id,
                _ => key_of(target),
            };
            targets.push(target);
            keys.push(key as u32);
        }
    }
    // Number the targets the `.lita`s name, in the order they first name
    // them, so a merge walks its by-entry table nearly in order.
    let mut number = vec![UNNAMED; total + commons.len() + 1];
    let (mut named, mut offsets) = (0, Vec::new());
    for (mi, m) in modules.iter().enumerate() {
        let keys = &keys[first[mi]..first[mi + 1]];
        for e in m.lita() {
            let Some(&key) = keys.get(e.sym.0 as usize) else { continue };
            let n = &mut number[key as usize];
            if *n == UNNAMED {
                *n = named as u32;
                named += 1;
            }
            if e.addend != 0 {
                offsets.push((*n, e.addend));
            }
        }
    }
    for key in &mut keys {
        *key = number[*key as usize];
    }
    offsets.sort_unstable();
    offsets.dedup();
    Ok(SymbolTable(Arc::new(Resolved { first, targets, commons, keys, named, offsets })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_objfile::Symbol;

    fn module(name: &str, defs: &[&str], refs: &[&str]) -> Module {
        let mut m = Module::new(name);
        m.text = vec![0; 8 * defs.len().max(1)];
        for (i, d) in defs.iter().enumerate() {
            m.symbols.push(Symbol::proc(*d, 8 * i as u64, 8, 0));
        }
        for r in refs {
            m.symbols.push(Symbol::external(*r));
        }
        m
    }

    #[test]
    fn library_members_are_pulled_transitively() {
        let mut lib = Archive::new("libstd");
        lib.add(module("a", &["alpha"], &["beta"])).unwrap();
        lib.add(module("b", &["beta"], &[])).unwrap();
        lib.add(module("c", &["gamma"], &[])).unwrap();
        let mods = select_modules(&[module("main", &["main"], &["alpha"])], &[lib]).unwrap();
        let names: Vec<&str> = mods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["main", "a", "b"]);
    }

    #[test]
    fn duplicate_strong_definitions_rejected() {
        let e = build_symbol_table(&[module("x", &["f"], &[]), module("y", &["f"], &[])]);
        assert!(matches!(e, Err(LinkError::Duplicate { .. })));
    }

    #[test]
    fn undefined_reference_reported_with_referrer() {
        let e = build_symbol_table(&[module("m", &["main"], &["mystery"])]);
        match e {
            Err(LinkError::Undefined { name, referenced_by }) => {
                assert_eq!(name, "mystery");
                assert_eq!(referenced_by, "m");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commons_merge_to_max_and_strong_wins() {
        let mut a = Module::new("a");
        a.symbols.push(Symbol::common("buf", 100, 8));
        let mut b = Module::new("b");
        b.symbols.push(Symbol::common("buf", 200, 16));
        let t = build_symbol_table(&[a.clone(), b]).unwrap();
        assert_eq!(t.commons(), [Common { name: "buf".into(), size: 200, align: 16 }]);
        for mi in 0..2 {
            assert_eq!(t.target(mi, SymId(0)), GlobalRef::Common(0));
        }

        // Now a strong definition of buf appears: commons drop out.
        let mut strong = Module::new("s");
        strong.data = vec![0; 8];
        strong
            .symbols
            .push(Symbol::data("buf", om_objfile::SecId::Data, 0, 8));
        let t = build_symbol_table(&[a, strong]).unwrap();
        assert!(t.commons().is_empty());
        assert_eq!(t.target(0, SymId(0)), GlobalRef::Def { module: 1, sym: SymId(0) });
    }
}

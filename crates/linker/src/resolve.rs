//! Input resolution: archive member selection, the global symbol table, and
//! common-symbol merging.

use crate::error::LinkError;
use crate::layout::Placed;
use om_objfile::{Archive, Module, SymbolDef, SymId, Visibility};
use std::collections::{HashMap, HashSet};

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

/// The program-wide symbol table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    /// Exported strong definitions: name → (module index, symbol id).
    pub globals: HashMap<String, (usize, SymId)>,
    /// Names defined only as commons: name → (max size, max align).
    pub commons: HashMap<String, (u64, u64)>,
}

/// Builds the symbol table over the selected modules.
///
/// Strong definitions (procedures, data) override common (tentative)
/// definitions; duplicate strong definitions are an error; every referenced
/// name must end up defined.
///
/// # Errors
///
/// Returns [`LinkError::Duplicate`] or [`LinkError::Undefined`].
pub fn build_symbol_table<P: Placed>(modules: &[P]) -> Result<SymbolTable, LinkError> {
    let mut table = SymbolTable::default();
    for (mi, m) in modules.iter().enumerate() {
        for (id, s) in m.symbols().iter().enumerate() {
            if s.vis != Visibility::Exported {
                continue;
            }
            match &s.def {
                SymbolDef::Proc { .. } | SymbolDef::Data { .. } => {
                    if let Some(&(prev, _)) = table.globals.get(&s.name) {
                        return Err(LinkError::Duplicate {
                            name: s.name.clone(),
                            modules: (modules[prev].name().to_string(), m.name().to_string()),
                        });
                    }
                    table.globals.insert(s.name.clone(), (mi, SymId(id as u32)));
                }
                SymbolDef::Common { size, align } => {
                    let e = table.commons.entry(s.name.clone()).or_insert((0, 8));
                    e.0 = e.0.max(*size);
                    e.1 = e.1.max(*align);
                }
                SymbolDef::Extern => {}
            }
        }
    }
    // Strong definitions override commons.
    for name in table.globals.keys() {
        table.commons.remove(name.as_str());
    }
    for m in modules {
        for s in m.symbols() {
            if !s.is_defined()
                && !table.globals.contains_key(&s.name)
                && !table.commons.contains_key(&s.name)
            {
                return Err(LinkError::Undefined {
                    name: s.name.clone(),
                    referenced_by: m.name().to_string(),
                });
            }
        }
    }
    Ok(table)
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
        assert_eq!(t.commons["buf"], (200, 16));

        // Now a strong definition of buf appears: commons drop out.
        let mut strong = Module::new("s");
        strong.data = vec![0; 8];
        strong
            .symbols
            .push(Symbol::data("buf", om_objfile::SecId::Data, 0, 8));
        let t = build_symbol_table(&[a, strong]).unwrap();
        assert!(t.commons.is_empty());
        assert!(t.globals.contains_key("buf"));
    }
}

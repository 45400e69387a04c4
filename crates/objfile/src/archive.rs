//! Static library archives.
//!
//! An [`Archive`] is a named collection of modules with a symbol index, and
//! extraction works the way `ld` treats libraries: a member is pulled into
//! the link only if it defines a symbol that is still undefined. This is how
//! the reproduction gets the paper's key workload property — *pre-compiled*
//! library members (compiled long before the program, invisible to
//! compile-time interprocedural optimization) that OM nevertheless optimizes
//! "in exactly the same way that it handles user code".

use crate::error::ObjError;
use crate::module::Module;
use std::collections::HashMap;

/// A static library: an ordered set of modules plus a defined-symbol index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Archive {
    /// Archive name, e.g. `libstd`.
    pub name: String,
    members: Vec<Module>,
    /// Defined, exported symbol name → member index.
    index: HashMap<String, usize>,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new(name: impl Into<String>) -> Archive {
        Archive { name: name.into(), ..Archive::default() }
    }

    /// Adds a member, indexing its exported definitions.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::Malformed`] if the member fails validation.
    pub fn add(&mut self, module: Module) -> Result<(), ObjError> {
        module.validate()?;
        let idx = self.members.len();
        for sym in &module.symbols {
            if sym.is_defined() && sym.vis == crate::symbol::Visibility::Exported {
                self.index.entry(sym.name.clone()).or_insert(idx);
            }
        }
        self.members.push(module);
        Ok(())
    }

    /// The archive members in order.
    pub fn members(&self) -> &[Module] {
        &self.members
    }

    /// Selects the members needed to satisfy `undefined`, transitively: a
    /// selected member's own undefined symbols are resolved against the
    /// archive too (libraries routinely call other library routines — in the
    /// paper's `spice`, half of all calls are library-to-library).
    ///
    /// Returns the selected members in archive order.
    pub fn select<S: AsRef<str>>(&self, undefined: impl IntoIterator<Item = S>) -> Vec<&Module> {
        let mut chosen = vec![false; self.members.len()];
        let mut pending: Vec<usize> = Vec::new();
        let mut want = |name: &str, pending: &mut Vec<usize>| {
            if let Some(&idx) = self.index.get(name) {
                if !std::mem::replace(&mut chosen[idx], true) {
                    pending.push(idx);
                }
            }
        };
        for name in undefined {
            want(name.as_ref(), &mut pending);
        }
        while let Some(idx) = pending.pop() {
            for sym in &self.members[idx].symbols {
                if !sym.is_defined() {
                    want(&sym.name, &mut pending);
                }
            }
        }
        (self.members.iter().zip(chosen)).filter_map(|(m, c)| c.then_some(m)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn module_with(name: &str, defines: &[&str], needs: &[&str]) -> Module {
        let mut m = Module::new(name);
        m.text = vec![0; 4 * defines.len().max(1) * 2];
        for (i, d) in defines.iter().enumerate() {
            m.symbols.push(Symbol::proc(*d, 4 * i as u64, 4, 0));
        }
        for n in needs {
            m.symbols.push(Symbol::external(*n));
        }
        m
    }

    #[test]
    fn selection_is_demand_driven() {
        let mut ar = Archive::new("libstd");
        ar.add(module_with("sqrt", &["sqrt"], &[])).unwrap();
        ar.add(module_with("sin", &["sin"], &["sqrt"])).unwrap();
        ar.add(module_with("unused", &["tan"], &[])).unwrap();

        let picked = ar.select(["sin".to_string()]);
        let names: Vec<&str> = picked.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["sqrt", "sin"]); // transitive, archive order, no `unused`
    }

    #[test]
    fn unknown_symbols_are_ignored() {
        let ar = Archive::new("empty");
        assert!(ar.select(["nothing".to_string()]).is_empty());
    }

    #[test]
    fn invalid_member_rejected() {
        let mut ar = Archive::new("lib");
        let mut bad = module_with("bad", &["f"], &[]);
        bad.text.push(0); // ragged text
        assert!(ar.add(bad).is_err());
    }
}

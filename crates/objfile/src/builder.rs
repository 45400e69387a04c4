//! A convenience builder for assembling modules instruction by instruction.
//!
//! The compiler backend (and tests that hand-write object code) use
//! [`ModuleBuilder`] to emit instructions, attach relocations at the current
//! offset, intern GAT slots, and define symbols, without tracking byte
//! offsets by hand.

use crate::module::{LitaEntry, Module};
use crate::reloc::{Reloc, RelocKind};
use crate::section::SecId;
use crate::symbol::{Symbol, SymbolDef, SymId, Visibility};
use om_alpha::{encode, Inst};
use std::collections::HashMap;

/// Incrementally builds a [`Module`].
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
    lita_interned: HashMap<(SymId, i64), u32>,
    names: HashMap<String, SymId>,
}

impl ModuleBuilder {
    /// Starts a new module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
            lita_interned: HashMap::new(),
            names: HashMap::new(),
        }
    }

    /// Current text offset (the offset the next emitted instruction gets).
    pub fn here(&self) -> u64 {
        self.module.text.len() as u64
    }

    /// Emits an instruction, returning its text offset.
    pub fn emit(&mut self, inst: Inst) -> u64 {
        let off = self.here();
        self.module.text.extend_from_slice(&encode(inst).to_le_bytes());
        off
    }

    /// Emits an instruction with a relocation attached at its offset.
    pub fn emit_reloc(&mut self, inst: Inst, kind: RelocKind) -> u64 {
        let off = self.emit(inst);
        self.module.relocs.push(Reloc::text(off, kind));
        off
    }

    /// Attaches a relocation at an arbitrary section offset.
    pub fn reloc_at(&mut self, sec: SecId, offset: u64, kind: RelocKind) {
        self.module.relocs.push(Reloc { sec, offset, kind });
    }

    /// Interns a GAT slot for `sym + addend`, returning its index. The same
    /// `(sym, addend)` pair always maps to the same slot — compilers keep one
    /// GAT entry per distinct address, and the linker dedups *across* modules.
    pub fn lita_slot(&mut self, sym: SymId, addend: i64) -> u32 {
        if let Some(&i) = self.lita_interned.get(&(sym, addend)) {
            return i;
        }
        let i = self.module.lita.len() as u32;
        self.module.lita.push(LitaEntry { sym, addend });
        self.lita_interned.insert((sym, addend), i);
        i
    }

    /// Adds (or returns the existing id of) a symbol named `name`. If an
    /// `Extern` placeholder exists and `sym` is a definition, the definition
    /// replaces the placeholder.
    pub fn add_symbol(&mut self, sym: Symbol) -> SymId {
        if let Some(&id) = self.names.get(&sym.name) {
            let existing = &mut self.module.symbols[id.0 as usize];
            if !existing.is_defined() && sym.is_defined() {
                *existing = sym;
            }
            return id;
        }
        let id = SymId(self.module.symbols.len() as u32);
        self.names.insert(sym.name.clone(), id);
        self.module.symbols.push(sym);
        id
    }

    /// Declares an external reference by name.
    pub fn external(&mut self, name: &str) -> SymId {
        self.add_symbol(Symbol::external(name))
    }

    /// Appends `bytes` to a data-carrying section, returning the offset.
    ///
    /// # Panics
    ///
    /// Panics for zero-fill sections; use [`ModuleBuilder::reserve`] instead.
    pub fn append_data(&mut self, sec: SecId, bytes: &[u8]) -> u64 {
        let buf = match sec {
            SecId::Data => &mut self.module.data,
            SecId::Sdata => &mut self.module.sdata,
            _ => panic!("append_data on {sec}"),
        };
        let off = buf.len() as u64;
        buf.extend_from_slice(bytes);
        off
    }

    /// Reserves `size` zero-filled bytes in `.bss` or `.sbss`, returning the
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics for sections that carry bytes.
    pub fn reserve(&mut self, sec: SecId, size: u64, align: u64) -> u64 {
        let counter = match sec {
            SecId::Sbss => &mut self.module.sbss_size,
            SecId::Bss => &mut self.module.bss_size,
            _ => panic!("reserve on {sec}"),
        };
        let off = counter.div_ceil(align) * align;
        *counter = off + size;
        off
    }

    /// Defines `name` as a procedure starting at `start` and ending at the
    /// current offset.
    pub fn define_proc(
        &mut self,
        name: &str,
        start: u64,
        gp_group: u32,
        vis: Visibility,
    ) -> SymId {
        let size = self.here() - start;
        let id = self.add_symbol(Symbol {
            name: name.to_string(),
            vis,
            def: SymbolDef::Proc { offset: start, size, gp_group },
        });
        // add_symbol keeps an existing definition; overwrite for re-definition
        // of a forward-declared proc.
        self.module.symbols[id.0 as usize] = Symbol {
            name: name.to_string(),
            vis,
            def: SymbolDef::Proc { offset: start, size, gp_group },
        };
        id
    }

    /// Finishes the module, sorting relocations and validating.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::ObjError`] if the module is malformed.
    pub fn finish(mut self) -> Result<Module, crate::error::ObjError> {
        self.module.sort_relocs();
        self.module.validate()?;
        Ok(self.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_alpha::Reg;

    #[test]
    fn builder_assembles_a_call_site() {
        let mut b = ModuleBuilder::new("m");
        let callee = b.external("callee");
        let slot = b.lita_slot(callee, 0);
        let start = b.here();
        let load = b.emit_reloc(Inst::ldq(Reg::PV, 0, Reg::GP), RelocKind::Literal { lita: slot });
        b.emit_reloc(Inst::jsr(Reg::RA, Reg::PV), RelocKind::LituseJsr { load_offset: load });
        b.emit(Inst::ret());
        b.define_proc("caller", start, 0, Visibility::Exported);
        let m = b.finish().unwrap();
        assert_eq!(m.text.len(), 12);
        assert_eq!(m.lita.len(), 1);
        assert_eq!(m.procedures().len(), 1);
    }

    #[test]
    fn lita_slots_are_interned() {
        let mut b = ModuleBuilder::new("m");
        let s = b.external("x");
        assert_eq!(b.lita_slot(s, 0), b.lita_slot(s, 0));
        assert_ne!(b.lita_slot(s, 0), b.lita_slot(s, 8));
    }

    #[test]
    fn externals_are_deduplicated_and_definitions_win() {
        let mut b = ModuleBuilder::new("m");
        let e1 = b.external("f");
        let e2 = b.external("f");
        assert_eq!(e1, e2);
        b.emit(Inst::ret());
        let d = b.define_proc("f", 0, 0, Visibility::Exported);
        assert_eq!(d, e1);
        let m = b.finish().unwrap();
        assert!(m.symbol(d).is_proc());
    }

    #[test]
    fn reserve_aligns() {
        let mut b = ModuleBuilder::new("m");
        assert_eq!(b.reserve(SecId::Bss, 3, 8), 0);
        assert_eq!(b.reserve(SecId::Bss, 8, 8), 8);
        assert_eq!(b.reserve(SecId::Sbss, 8, 8), 0);
    }

    #[test]
    fn append_data_returns_offsets() {
        let mut b = ModuleBuilder::new("m");
        assert_eq!(b.append_data(SecId::Sdata, &[0; 8]), 0);
        assert_eq!(b.append_data(SecId::Sdata, &[0; 4]), 8);
        assert_eq!(b.append_data(SecId::Data, &[1]), 0);
    }
}

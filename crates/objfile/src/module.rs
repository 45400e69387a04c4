//! Relocatable object modules.
//!
//! A [`Module`] is the unit of separate compilation: encoded text, data
//! sections, a typed GAT literal pool (`.lita`), a symbol table, and
//! relocations. [`Module::validate`] checks the structural invariants the
//! downstream consumers (linker, OM) rely on, mirroring how the real OM can
//! "be thorough but still conservative in understanding the input object
//! code" by trusting the loader symbol table and relocation records.

use crate::error::ObjError;
use crate::reloc::{Reloc, RelocKind};
use crate::section::SecId;
use crate::symbol::{Symbol, SymbolDef, SymId};

/// One slot of a module's global address table: the 64-bit address of
/// `sym + addend`, filled in at link time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LitaEntry {
    pub sym: SymId,
    pub addend: i64,
}

/// A relocatable object module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module name (source file stem by convention).
    pub name: String,
    /// Encoded instruction bytes (little-endian 32-bit words).
    pub text: Vec<u8>,
    /// Initialized data.
    pub data: Vec<u8>,
    /// Small initialized data (placed near the GAT at link time).
    pub sdata: Vec<u8>,
    /// Size in bytes of small zero-initialized data.
    pub sbss_size: u64,
    /// Size in bytes of zero-initialized data.
    pub bss_size: u64,
    /// The module's GAT as typed slots.
    pub lita: Vec<LitaEntry>,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
    /// Relocations, sorted by `(sec, offset)`.
    pub relocs: Vec<Reloc>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module { name: name.into(), ..Module::default() }
    }

    /// Sorts the relocations by `(section, offset)`. At a shared offset a
    /// `Gpdisp` comes first, then a `Literal`, so a `Literal` precedes any
    /// `Lituse` that (unusually) shares its offset.
    pub fn sort_relocs(&mut self) {
        self.relocs.sort_by_key(|r| {
            let rank = match r.kind {
                RelocKind::Gpdisp { .. } => 0,
                RelocKind::Literal { .. } => 1,
                _ => 2,
            };
            (r.sec, r.offset, rank)
        });
    }

    /// Looks up a symbol by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (module failed validation).
    pub fn symbol(&self, id: SymId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// Byte length of a section.
    pub fn section_len(&self, sec: SecId) -> u64 {
        match sec {
            SecId::Text => self.text.len() as u64,
            SecId::Data => self.data.len() as u64,
            SecId::Sdata => self.sdata.len() as u64,
            SecId::Sbss => self.sbss_size,
            SecId::Bss => self.bss_size,
        }
    }

    /// Iterates over `(id, symbol)` pairs.
    pub fn symbols_with_ids(&self) -> impl Iterator<Item = (SymId, &Symbol)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (SymId(i as u32), s))
    }

    /// Finds a symbol id by name (first match).
    pub fn find_symbol(&self, name: &str) -> Option<SymId> {
        self.symbols
            .iter()
            .position(|s| s.name == name)
            .map(|i| SymId(i as u32))
    }

    /// Relocations applying to the text section, in offset order.
    pub fn text_relocs(&self) -> impl Iterator<Item = &Reloc> {
        self.relocs.iter().filter(|r| r.sec == SecId::Text)
    }

    /// Checks the structural invariants:
    ///
    /// * text length is a multiple of 4,
    /// * relocations are sorted by `(sec, offset)`, their whole patched
    ///   field lies inside the section, text relocations are
    ///   instruction-aligned, and data sections carry only `RefQuad`s,
    /// * `Literal` relocations index existing `.lita` slots,
    /// * `Lituse*` relocations point at a text offset carrying a `Literal`,
    /// * `Gpdisp` pairs land on instruction boundaries inside the text,
    /// * symbol definitions lie inside their sections,
    /// * `.lita` entries name in-range symbols.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`ObjError`].
    pub fn validate(&self) -> Result<(), ObjError> {
        if !self.text.len().is_multiple_of(4) {
            return Err(ObjError::Malformed {
                module: self.name.clone(),
                what: format!("text length {} not a multiple of 4", self.text.len()),
            });
        }
        let err = |what: String| ObjError::Malformed { module: self.name.clone(), what };

        let mut prev: Option<(SecId, u64)> = None;
        let mut literal_offsets: Vec<u64> = Vec::new();
        for r in &self.relocs {
            if let Some(p) = prev {
                if (r.sec, r.offset) < p {
                    return Err(err(format!("relocations out of order at {r}")));
                }
            }
            prev = Some((r.sec, r.offset));
            // Every relocation patches (or annotates) a field of a known
            // width; the *whole* field must lie inside the section, and text
            // fields must sit on an instruction boundary. Checking the width
            // here (not just `offset < len`) is what lets the linker's patch
            // writes trust their slices: a relocation naming the last two
            // bytes of a section would otherwise pass validation and then
            // index out of bounds at link time.
            let limit = self.section_len(r.sec);
            match (r.sec, &r.kind) {
                (SecId::Text, _) => {
                    if r.offset % 4 != 0 || r.offset + 4 > limit {
                        return Err(err(format!(
                            "text relocation not on a whole instruction: {r}"
                        )));
                    }
                }
                (SecId::Data | SecId::Sdata, RelocKind::RefQuad { .. }) => {
                    if r.offset + 8 > limit {
                        return Err(err(format!("refquad field beyond section end: {r}")));
                    }
                }
                (_, RelocKind::RefQuad { .. }) => {
                    return Err(err(format!("refquad in zero-fill section: {r}")));
                }
                _ => {
                    return Err(err(format!("text-only relocation in data section: {r}")));
                }
            }
            if let RelocKind::Literal { lita } = r.kind {
                if lita as usize >= self.lita.len() {
                    return Err(err(format!("literal index {lita} out of range: {r}")));
                }
                literal_offsets.push(r.offset);
            }
        }
        for r in &self.relocs {
            match r.kind {
                RelocKind::LituseBase { load_offset }
                | RelocKind::LituseJsr { load_offset }
                | RelocKind::LituseAddr { load_offset }
                    if literal_offsets.binary_search(&load_offset).is_err() => {
                        return Err(err(format!("lituse points at non-literal: {r}")));
                    }
                RelocKind::Gpdisp { pair_offset, anchor, .. } => {
                    let lda = r.offset as i64 + pair_offset;
                    if r.offset % 4 != 0
                        || lda % 4 != 0
                        || lda < 0
                        || lda as u64 >= self.text.len() as u64
                        || anchor % 4 != 0
                        || anchor > self.text.len() as u64
                    {
                        return Err(err(format!("malformed gpdisp: {r}")));
                    }
                }
                RelocKind::BrAddr { sym, .. }
                | RelocKind::RefQuad { sym, .. }
                | RelocKind::Gprel16 { sym, .. }
                | RelocKind::GprelHigh { sym, .. }
                | RelocKind::GprelLow { sym, .. }
                    if sym.0 as usize >= self.symbols.len() => {
                        return Err(err(format!("relocation names unknown symbol: {r}")));
                    }
                _ => {}
            }
        }
        for (i, entry) in self.lita.iter().enumerate() {
            if entry.sym.0 as usize >= self.symbols.len() {
                return Err(err(format!("lita[{i}] names unknown symbol {}", entry.sym)));
            }
        }
        for sym in &self.symbols {
            match sym.def {
                SymbolDef::Proc { offset, size, .. }
                    if (offset % 4 != 0 || offset + size > self.text.len() as u64) => {
                        return Err(err(format!("procedure {} outside text", sym.name)));
                    }
                SymbolDef::Data { sec, offset, size }
                    if (sec == SecId::Text || offset + size > self.section_len(sec)) => {
                        return Err(err(format!("data symbol {} outside {}", sym.name, sec)));
                    }
                _ => {}
            }
        }
        Ok(())
    }

    /// The procedures defined in this module, sorted by text offset.
    pub fn procedures(&self) -> Vec<(SymId, &Symbol)> {
        let mut procs: Vec<(SymId, &Symbol)> = self
            .symbols_with_ids()
            .filter(|(_, s)| s.is_proc())
            .collect();
        procs.sort_by_key(|(_, s)| match s.def {
            SymbolDef::Proc { offset, .. } => offset,
            _ => unreachable!(),
        });
        procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Visibility;

    fn tiny_module() -> Module {
        let mut m = Module::new("tiny");
        m.text = vec![0; 16];
        m.symbols.push(Symbol::proc("f", 0, 8, 0));
        m.symbols.push(Symbol::external("g"));
        m.lita.push(LitaEntry { sym: SymId(1), addend: 0 });
        m.relocs.push(Reloc::text(4, RelocKind::Literal { lita: 0 }));
        m.relocs.push(Reloc::text(8, RelocKind::LituseJsr { load_offset: 4 }));
        m
    }

    #[test]
    fn valid_module_passes() {
        tiny_module().validate().unwrap();
    }

    #[test]
    fn unsorted_relocs_fail() {
        let mut m = tiny_module();
        m.relocs.reverse();
        assert!(m.validate().is_err());
    }

    #[test]
    fn literal_out_of_range_fails() {
        let mut m = tiny_module();
        m.relocs[0].kind = RelocKind::Literal { lita: 7 };
        assert!(m.validate().is_err());
    }

    #[test]
    fn lituse_must_point_at_literal() {
        let mut m = tiny_module();
        m.relocs[1].kind = RelocKind::LituseJsr { load_offset: 0 };
        assert!(m.validate().is_err());
    }

    #[test]
    fn procedure_outside_text_fails() {
        let mut m = tiny_module();
        m.symbols[0] = Symbol::proc("f", 0, 64, 0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn truncated_patch_field_fails() {
        // Last two bytes of text: `offset < len` holds, but the 4-byte
        // instruction field does not fit — the former panic path in the
        // linker's patch writes.
        let mut m = tiny_module();
        m.relocs.push(Reloc::text(14, RelocKind::LituseJsr { load_offset: 4 }));
        assert!(m.validate().is_err());
    }

    #[test]
    fn unaligned_text_reloc_fails() {
        let mut m = tiny_module();
        m.relocs[0] = Reloc::text(2, RelocKind::Literal { lita: 0 });
        m.relocs.truncate(1);
        assert!(m.validate().is_err());
    }

    #[test]
    fn refquad_field_must_fit_its_section() {
        let mut m = tiny_module();
        m.data = vec![0; 16];
        m.relocs.push(Reloc { sec: SecId::Data, offset: 12, kind: RelocKind::RefQuad { sym: SymId(1), addend: 0 } });
        assert!(m.validate().is_err());
        m.relocs.last_mut().unwrap().offset = 8;
        m.validate().unwrap();
    }

    #[test]
    fn text_kind_reloc_in_data_fails() {
        let mut m = tiny_module();
        m.data = vec![0; 16];
        m.relocs.push(Reloc { sec: SecId::Data, offset: 0, kind: RelocKind::Literal { lita: 0 } });
        assert!(m.validate().is_err());
    }

    #[test]
    fn ragged_text_fails() {
        let mut m = tiny_module();
        m.text.push(0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn symbol_lookup() {
        let m = tiny_module();
        assert_eq!(m.find_symbol("g"), Some(SymId(1)));
        assert_eq!(m.find_symbol("nope"), None);
        assert_eq!(m.symbol(SymId(0)).vis, Visibility::Exported);
    }

    #[test]
    fn procedures_sorted_by_offset() {
        let mut m = tiny_module();
        m.text = vec![0; 32];
        m.symbols.push(Symbol::proc("a", 16, 8, 0));
        m.symbols.push(Symbol::proc("b", 8, 8, 0));
        let names: Vec<&str> = m.procedures().iter().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, ["f", "b", "a"]);
    }

    #[test]
    fn section_lengths() {
        let mut m = tiny_module();
        m.bss_size = 128;
        assert_eq!(m.section_len(SecId::Text), 16);
        assert_eq!(m.section_len(SecId::Bss), 128);
        assert_eq!(m.section_len(SecId::Sdata), 0);
    }
}

//! Relocation application and image construction.

use crate::error::LinkError;
use crate::image::{Image, Segment};
use crate::layout::{sym_addr, ProgramLayout};
use crate::resolve::SymbolTable;
use om_alpha::field;
use om_objfile::{Module, RelocKind, SecId, SymbolDef, Visibility, DATA_BASE};
use std::borrow::Borrow;
use std::collections::HashMap;

// The patch helpers bounds-check every write: relocation offsets are
// validated against their module's section extents up front, but segment
// offsets here are *derived* (module base + relocation offset), so a checked
// slice turns any inconsistency into a typed error instead of a panic — a
// daemon serving link requests must never abort on one bad input.

fn patched(buf: &mut [u8], off: usize, width: usize) -> Result<&mut [u8], LinkError> {
    buf.get_mut(off..off.saturating_add(width)).ok_or_else(|| LinkError::Range {
        what: format!("{width}-byte patch at +{off:#x} outside its segment"),
    })
}

fn patch16(buf: &mut [u8], off: usize, v: i16) -> Result<(), LinkError> {
    patched(buf, off, 2)?.copy_from_slice(&(v as u16).to_le_bytes());
    Ok(())
}

fn patch64(buf: &mut [u8], off: usize, v: u64) -> Result<(), LinkError> {
    patched(buf, off, 8)?.copy_from_slice(&v.to_le_bytes());
    Ok(())
}

/// Applies all relocations and builds the final image.
///
/// # Errors
///
/// Returns [`LinkError`] on unresolvable symbols or out-of-range fields.
pub fn build_image<M: Borrow<Module>>(
    modules: &[M],
    symtab: &SymbolTable,
    layout: &ProgramLayout,
) -> Result<Image, LinkError> {
    let addr = |mi: usize, sym| sym_addr(modules, symtab, layout, mi, sym);
    let modules = || modules.iter().map(Borrow::borrow);
    // Text segment.
    let text_size = layout.info.text.size as usize;
    let mut text = vec![0u8; text_size];
    for (mi, m) in modules().enumerate() {
        let off = (layout.bases[mi].text - layout.info.text.base) as usize;
        text[off..off + m.text.len()].copy_from_slice(&m.text);
    }

    // Data segment covers everything from the GAT through the end of .bss.
    let data_end = layout.info.bss.base + layout.info.bss.size;
    let mut data = vec![0u8; (data_end - DATA_BASE) as usize];
    for (mi, m) in modules().enumerate() {
        let b = &layout.bases[mi];
        let s = (b.sdata - DATA_BASE) as usize;
        data[s..s + m.sdata.len()].copy_from_slice(&m.sdata);
        let d = (b.data - DATA_BASE) as usize;
        data[d..d + m.data.len()].copy_from_slice(&m.data);
    }

    // Fill the merged GAT: every module writes its resolved slot values
    // (deduplicated slots are written multiple times with identical values).
    for (mi, m) in modules().enumerate() {
        for (li, e) in m.lita.iter().enumerate() {
            let v = addr(mi, e.sym)?.wrapping_add_signed(e.addend);
            let slot = layout.lita_addr[mi][li];
            patch64(&mut data, (slot - DATA_BASE) as usize, v)?;
        }
    }

    // Apply relocations.
    for (mi, m) in modules().enumerate() {
        let bases = &layout.bases[mi];
        let gp = layout.gp_values[layout.group_of_module[mi] as usize];
        let from_gp = |sym, addend: i64| {
            addr(mi, sym).map(|a| field::displacement(a.wrapping_add_signed(addend), gp))
        };
        let range = |kind: &str, v: i64| LinkError::Range {
            what: format!("{kind} {v} in `{}`", m.name),
        };
        for r in &m.relocs {
            // Where a text relocation's field lies in the text segment.
            let off = (bases.text - layout.info.text.base + r.offset) as usize;
            match (r.sec, &r.kind) {
                (SecId::Text, RelocKind::Literal { lita }) => {
                    let disp = field::displacement(layout.lita_addr[mi][*lita as usize], gp);
                    let d = field::mem_disp(disp).ok_or_else(|| LinkError::Range {
                        what: format!("GAT slot {disp} bytes from GP in `{}`", m.name),
                    })?;
                    patch16(&mut text, off, d)?;
                }
                (SecId::Text, RelocKind::Gpdisp { pair_offset, anchor, .. }) => {
                    let disp = field::displacement(gp, bases.text.wrapping_add(*anchor));
                    let (hi, lo) = field::split_pair(disp)
                        .ok_or_else(|| LinkError::Range { what: format!("gpdisp {disp}") })?;
                    patch16(&mut text, off, hi)?;
                    patch16(&mut text, (off as i64 + pair_offset) as usize, lo)?;
                }
                (SecId::Text, RelocKind::BrAddr { sym, addend }) => {
                    let target = addr(mi, *sym)?.wrapping_add_signed(*addend);
                    let words = field::branch_words(bases.text + r.offset, target);
                    let words = words.ok_or_else(|| LinkError::Range {
                        what: format!(
                            "branch target {target:#x} not instruction-aligned in `{}`",
                            m.name
                        ),
                    })?;
                    let disp = field::branch_disp(words).ok_or_else(|| LinkError::Range {
                        what: format!("branch displacement {words}"),
                    })?;
                    let word = patched(&mut text, off, 4)?;
                    let w = u32::from_le_bytes(word[..4].try_into().expect("a 4-byte patch"));
                    word.copy_from_slice(&field::with_branch_field(w, disp).to_le_bytes());
                }
                (SecId::Text, RelocKind::Gprel16 { sym, addend, .. }) => {
                    let disp = from_gp(*sym, *addend)?;
                    let d = field::mem_disp(disp).ok_or_else(|| range("gprel16", disp))?;
                    patch16(&mut text, off, d)?;
                }
                (SecId::Text, RelocKind::GprelHigh { sym, addend, .. }) => {
                    let disp = from_gp(*sym, *addend)?;
                    let (hi, _) = field::split_pair(disp).ok_or_else(|| range("gprelhigh", disp))?;
                    patch16(&mut text, off, hi)?;
                }
                (SecId::Text, RelocKind::GprelLow { sym, addend, hi_addend, .. }) => {
                    // The LDA half under the LDAH half that `hi_addend` gave
                    // the pair.
                    let hi_disp = from_gp(*sym, *hi_addend)?;
                    let (hi, _) =
                        field::split_pair(hi_disp).ok_or_else(|| range("gprellow", hi_disp))?;
                    let disp = from_gp(*sym, *addend)?.wrapping_sub(i64::from(hi) << 16);
                    let d = field::mem_disp(disp).ok_or_else(|| range("gprellow", disp))?;
                    patch16(&mut text, off, d)?;
                }
                (SecId::Text, _) => {} // LITUSE hints need no patching
                (sec, RelocKind::RefQuad { sym, addend }) => {
                    let v = addr(mi, *sym)?.wrapping_add_signed(*addend);
                    let base = match sec {
                        SecId::Data => bases.data,
                        SecId::Sdata => bases.sdata,
                        _ => {
                            return Err(LinkError::Unsupported {
                                what: format!("refquad in zero-fill section {sec}"),
                            })
                        }
                    };
                    patch64(&mut data, (base - DATA_BASE + r.offset) as usize, v)?;
                }
                (sec, other) => {
                    return Err(LinkError::Unsupported {
                        what: format!("{other:?} in {sec}"),
                    })
                }
            }
        }
    }

    // Symbol map: exported strong symbols and commons, plus local
    // procedures (qualified), which never displace either.
    let mut symbols: HashMap<String, u64> = HashMap::new();
    for (mi, m) in modules().enumerate() {
        for (id, s) in m.symbols_with_ids() {
            match (&s.def, s.vis) {
                (SymbolDef::Proc { .. } | SymbolDef::Data { .. }, Visibility::Exported) => {
                    symbols.insert(s.name.clone(), addr(mi, id)?);
                }
                (SymbolDef::Proc { .. }, Visibility::Local) => {
                    symbols.entry(format!("{}.{}", s.name, m.name)).or_insert(addr(mi, id)?);
                }
                _ => {}
            }
        }
    }
    for (c, &a) in symtab.commons().iter().zip(&layout.common_addr) {
        symbols.insert(c.name.clone(), a);
    }

    let entry = *symbols.get("__start").ok_or(LinkError::NoEntry)?;

    Ok(Image {
        segments: vec![
            Segment { base: layout.info.text.base, bytes: text },
            Segment { base: DATA_BASE, bytes: data },
        ],
        entry,
        symbols,
        layout: layout.info.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gprel_pair_out_of_reach_names_its_kind_and_module() {
        use om_alpha::{Inst, Reg};
        use om_objfile::{ModuleBuilder, Symbol, Visibility};
        // `__start` reads `big + 2^33` through a GP-relative pair. Either
        // half can be the one whose high part overflows (the low half
        // computes it from `hi_addend`), and each error says which
        // relocation and module, not `gpdisp`.
        const FAR: i64 = 1 << 33;
        for (high_addend, hi_addend, kind) in [(FAR, FAR, "gprelhigh"), (0, FAR, "gprellow")] {
            let mut b = ModuleBuilder::new("far");
            let off = b.append_data(SecId::Data, &[0; 16]);
            let big = b.add_symbol(Symbol::data("big", SecId::Data, off, 16));
            let start = b.here();
            let high = RelocKind::GprelHigh { sym: big, addend: high_addend, gp_group: 0 };
            b.emit_reloc(Inst::ldah(Reg::A0, 0, Reg::GP), high);
            let low = RelocKind::GprelLow { sym: big, addend: FAR, hi_addend, gp_group: 0 };
            b.emit_reloc(Inst::ldq(Reg::A1, 0, Reg::A0), low);
            b.emit(Inst::ret());
            b.define_proc("__start", start, 0, Visibility::Exported);
            let m = b.finish().unwrap();
            let e = crate::link_modules(&[m], &[], &Default::default()).unwrap_err();
            assert!(matches!(e, LinkError::Range { .. }), "{e}");
            let text = e.to_string();
            assert!(text.starts_with(&format!("relocation out of range: {kind} ")), "{text}");
            assert!(text.ends_with(" in `far`"), "{text}");
        }
    }

    #[test]
    fn patch16_writes_little_endian() {
        let mut buf = vec![0u8; 4];
        patch16(&mut buf, 0, -2).unwrap();
        assert_eq!(&buf[..2], &[0xFE, 0xFF]);
    }
}

//! Relocation application and image construction.

use crate::error::LinkError;
use crate::image::{Image, Segment};
use crate::layout::{sym_addr, ProgramLayout};
use crate::resolve::SymbolTable;
use om_objfile::{Module, RelocKind, SecId, SymbolDef, Visibility, DATA_BASE};
use std::borrow::Borrow;
use std::collections::HashMap;

// The patch helpers bounds-check every write: relocation offsets are
// validated against their module's section extents up front, but segment
// offsets here are *derived* (module base + relocation offset), so a checked
// slice turns any inconsistency into a typed error instead of a panic — a
// daemon serving link requests must never abort on one bad input.

fn patched<'a>(buf: &'a mut [u8], off: usize, width: usize) -> Result<&'a mut [u8], LinkError> {
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

fn patch_branch(buf: &mut [u8], off: usize, disp: i32) -> Result<(), LinkError> {
    if !(-(1 << 20)..(1 << 20)).contains(&disp) {
        return Err(LinkError::Range { what: format!("branch displacement {disp}") });
    }
    let field = patched(buf, off, 4)?;
    let mut word = u32::from_le_bytes(field[..4].try_into().unwrap());
    word = (word & 0xFFE0_0000) | (disp as u32 & 0x001F_FFFF);
    field.copy_from_slice(&word.to_le_bytes());
    Ok(())
}

/// Splits a 32-bit displacement into LDAH/LDA halves (the low half is
/// sign-extended by hardware, so the high half compensates).
///
/// # Errors
///
/// Returns [`LinkError::Range`] when `disp` exceeds the pair's ±2GB span.
pub fn split_gpdisp(disp: i64) -> Result<(i16, i16), LinkError> {
    let lo = disp as i16;
    let rest = disp - lo as i64;
    if rest & 0xFFFF != 0 {
        // Unreachable arithmetically (disp - sign_extend(disp as i16) always
        // clears the low half), but a real error beats silent truncation if
        // the invariant is ever broken.
        return Err(LinkError::Range { what: format!("gpdisp {disp} low half") });
    }
    let hi = i16::try_from(rest >> 16)
        .map_err(|_| LinkError::Range { what: format!("gpdisp {disp}") })?;
    Ok((hi, lo))
}

/// The high half of `disp` as a GPREL pair patches it: [`split_gpdisp`],
/// with an overflow named after the relocation `kind` and its module.
fn gprel_high(disp: i64, kind: &str, module: &str) -> Result<i16, LinkError> {
    split_gpdisp(disp).map(|(hi, _)| hi).map_err(|_| LinkError::Range {
        what: format!("{kind} {disp} in `{module}`"),
    })
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
            let v = (addr(mi, e.sym)? as i64 + e.addend) as u64;
            let slot = layout.lita_addr[mi][li];
            patch64(&mut data, (slot - DATA_BASE) as usize, v)?;
        }
    }

    // Apply relocations.
    for (mi, m) in modules().enumerate() {
        let bases = &layout.bases[mi];
        let gp = layout.gp_values[layout.group_of_module[mi] as usize];
        for r in &m.relocs {
            match (r.sec, &r.kind) {
                (SecId::Text, RelocKind::Literal { lita }) => {
                    let slot = layout.lita_addr[mi][*lita as usize];
                    let disp = slot as i64 - gp as i64;
                    let d = i16::try_from(disp).map_err(|_| LinkError::Range {
                        what: format!("GAT slot {disp} bytes from GP in `{}`", m.name),
                    })?;
                    let off = (bases.text - layout.info.text.base + r.offset) as usize;
                    patch16(&mut text, off, d)?;
                }
                (SecId::Text, RelocKind::Gpdisp { pair_offset, anchor, .. }) => {
                    let disp = gp as i64 - (bases.text + anchor) as i64;
                    let (hi, lo) = split_gpdisp(disp)?;
                    let hi_off = (bases.text - layout.info.text.base + r.offset) as usize;
                    let lo_off = (hi_off as i64 + pair_offset) as usize;
                    patch16(&mut text, hi_off, hi)?;
                    patch16(&mut text, lo_off, lo)?;
                }
                (SecId::Text, RelocKind::BrAddr { sym, addend }) => {
                    let target = (addr(mi, *sym)? as i64 + addend) as u64;
                    let pc = bases.text + r.offset;
                    let delta = target as i64 - (pc as i64 + 4);
                    if delta % 4 != 0 {
                        return Err(LinkError::Range {
                            what: format!(
                                "branch target {target:#x} not instruction-aligned in `{}`",
                                m.name
                            ),
                        });
                    }
                    let off = (pc - layout.info.text.base) as usize;
                    patch_branch(&mut text, off, (delta / 4) as i32)?;
                }
                (SecId::Text, RelocKind::Gprel16 { sym, addend, .. }) => {
                    let target = addr(mi, *sym)? as i64 + addend;
                    let disp = target - gp as i64;
                    let d = i16::try_from(disp).map_err(|_| LinkError::Range {
                        what: format!("gprel16 {disp} in `{}`", m.name),
                    })?;
                    let off = (bases.text - layout.info.text.base + r.offset) as usize;
                    patch16(&mut text, off, d)?;
                }
                (SecId::Text, RelocKind::GprelHigh { sym, addend, .. }) => {
                    let target = addr(mi, *sym)? as i64 + addend;
                    let hi = gprel_high(target - gp as i64, "gprelhigh", &m.name)?;
                    let off = (bases.text - layout.info.text.base + r.offset) as usize;
                    patch16(&mut text, off, hi)?;
                }
                (SecId::Text, RelocKind::GprelLow { sym, addend, hi_addend, .. }) => {
                    let target = addr(mi, *sym)?;
                    let hi = gprel_high(target as i64 + hi_addend - gp as i64, "gprellow", &m.name)?;
                    let disp = target as i64 + addend - gp as i64 - ((hi as i64) << 16);
                    let d = i16::try_from(disp).map_err(|_| LinkError::Range {
                        what: format!("gprellow {disp} in `{}`", m.name),
                    })?;
                    let off = (bases.text - layout.info.text.base + r.offset) as usize;
                    patch16(&mut text, off, d)?;
                }
                (SecId::Text, _) => {} // LITUSE hints need no patching
                (sec, RelocKind::RefQuad { sym, addend }) => {
                    let v = (addr(mi, *sym)? as i64 + addend) as u64;
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
    fn gpdisp_split_reconstructs() {
        for disp in [0i64, 1, -1, 32767, -32768, 32768, 0x1234_5678, -0x1234_5678, 0x7FFF_7FFF] {
            let (hi, lo) = split_gpdisp(disp).unwrap();
            assert_eq!(((hi as i64) << 16) + lo as i64, disp, "disp {disp:#x}");
        }
    }

    #[test]
    fn gpdisp_split_rejects_out_of_range() {
        assert!(split_gpdisp(1 << 40).is_err());
        assert!(split_gpdisp(-(1 << 40)).is_err());
        // The exact boundary: hi must fit i16 after low-half compensation.
        assert!(split_gpdisp(0x7FFF_7FFF).is_ok());
        assert!(split_gpdisp(0x7FFF_8000).is_err());
    }

    #[test]
    fn gpdisp_low_half_sign_compensation() {
        // A displacement whose low 16 bits are "negative" forces hi up by 1.
        let disp = 0x0001_8000; // lo = -32768, hi = 2
        let (hi, lo) = split_gpdisp(disp).unwrap();
        assert_eq!(lo, -32768);
        assert_eq!(hi, 2);
    }

    #[test]
    fn branch_patch_bounds() {
        let mut buf = vec![0u8; 4];
        assert!(patch_branch(&mut buf, 0, (1 << 20) - 1).is_ok());
        assert!(patch_branch(&mut buf, 0, -(1 << 20)).is_ok());
        assert!(patch_branch(&mut buf, 0, 1 << 20).is_err());
        assert!(patch_branch(&mut buf, 0, -(1 << 20) - 1).is_err());
    }

    #[test]
    fn branch_patch_preserves_opcode_bits() {
        let word = om_alpha::encode(om_alpha::Inst::Br {
            op: om_alpha::BrOp::Bsr,
            ra: om_alpha::Reg::RA,
            disp: 0,
        });
        let mut buf = word.to_le_bytes().to_vec();
        patch_branch(&mut buf, 0, -7).unwrap();
        let patched = u32::from_le_bytes(buf.try_into().unwrap());
        match om_alpha::decode(patched).unwrap() {
            om_alpha::Inst::Br { op: om_alpha::BrOp::Bsr, ra, disp } => {
                assert_eq!(ra, om_alpha::Reg::RA);
                assert_eq!(disp, -7);
            }
            other => panic!("{other:?}"),
        }
    }

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

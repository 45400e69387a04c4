//! OM decides each rewrite by the reach of an Alpha address field, through
//! the same definitions (`om_alpha::field`) the linker patches with. One
//! object per rule sits on its limit, and OM's decision must flip exactly
//! where the patcher's does. Addends at the ends of `i64`, and just past
//! each field's reach, must reach the same outcome under `mld` and OM at
//! every level with the verifier on: a link, or the same `LinkError` kind,
//! never a panic.

use om_alpha::{BrOp, Inst, Reg};
use om_core::{optimize_and_link_with, OmError, OmLevel, OmOptions, OmStats};
use om_linker::{build_symbol_table, layout, link_modules, select_borrowed, sym_addr, LayoutOpts};
use om_objfile::{Module, ModuleBuilder, RelocKind, SecId, Symbol, Visibility};
use std::mem::discriminant;

/// How `__start` refers to `big + addend` (a branch: to `__start + addend`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    /// A GAT load with one base use.
    Literal,
    Gprel16,
    /// A `GprelHigh`/`GprelLow` pair.
    GprelPair,
    /// A `bsr` at `__start`'s first word.
    BrAddr,
    /// A data quad.
    RefQuad,
}

/// Module `h`: 16 bytes of data named `big`, and `__start`, which makes
/// reference `r` with `addend` and returns.
fn object(r: Form, addend: i64) -> Module {
    let mut b = ModuleBuilder::new("h");
    let off = b.append_data(SecId::Data, &[0; 16]);
    let big = b.add_symbol(Symbol::data("big", SecId::Data, off, 16));
    let entry = b.external("__start");
    let start = b.here();
    match r {
        Form::Literal => {
            let lita = b.lita_slot(big, addend);
            let load = b.emit_reloc(Inst::ldq(Reg::T0, 0, Reg::GP), RelocKind::Literal { lita });
            let base = RelocKind::LituseBase { load_offset: load };
            b.emit_reloc(Inst::ldq(Reg::A1, 0, Reg::T0), base);
        }
        Form::Gprel16 => {
            let gprel = RelocKind::Gprel16 { sym: big, addend, gp_group: 0 };
            b.emit_reloc(Inst::ldq(Reg::A1, 0, Reg::GP), gprel);
        }
        Form::GprelPair => {
            let high = RelocKind::GprelHigh { sym: big, addend, gp_group: 0 };
            b.emit_reloc(Inst::ldah(Reg::A0, 0, Reg::GP), high);
            let low = RelocKind::GprelLow { sym: big, addend, hi_addend: addend, gp_group: 0 };
            b.emit_reloc(Inst::ldq(Reg::A1, 0, Reg::A0), low);
        }
        Form::BrAddr => {
            let bsr = Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 };
            b.emit_reloc(bsr, RelocKind::BrAddr { sym: entry, addend });
        }
        Form::RefQuad => {
            b.reloc_at(SecId::Data, off + 8, RelocKind::RefQuad { sym: big, addend });
        }
    }
    b.emit(Inst::ret());
    b.define_proc("__start", start, 0, Visibility::Exported);
    b.finish().unwrap()
}

/// GP and the address of `big` in the standard link of `m`; no addend
/// moves either.
fn gp_and_big(m: &Module) -> (i64, i64) {
    let selected = select_borrowed(std::slice::from_ref(m), &[]).unwrap();
    let symtab = build_symbol_table(&selected).unwrap();
    let lay = layout(&selected, &symtab, &LayoutOpts::default()).unwrap();
    let big = m.symbols.iter().position(|s| s.name == "big").unwrap();
    let big = sym_addr(&selected, &symtab, &lay, 0, om_objfile::SymId(big as u32)).unwrap();
    (lay.gp_values[0] as i64, big as i64)
}

/// The addend that puts `r`'s reference `disp` bytes from GP (a branch:
/// `disp` words from its updated PC).
fn addend_at(r: Form, disp: i64) -> i64 {
    if r == Form::BrAddr {
        return 4 + 4 * disp;
    }
    let (gp, big) = gp_and_big(&object(r, 0));
    gp + disp - big
}

fn verified() -> OmOptions {
    OmOptions { verify: true, ..OmOptions::default() }
}

fn mld_links(objects: &[Module]) -> bool {
    link_modules(objects, &[], &LayoutOpts::default()).is_ok()
}

/// OM-simple's decisions on `objects`, whose link must verify.
fn om_simple(objects: &[Module]) -> OmStats {
    let out = optimize_and_link_with(objects, &[], OmLevel::Simple, &verified());
    out.unwrap_or_else(|e| panic!("OM-simple: {e}")).stats
}

#[test]
fn hostile_addends_reach_the_same_outcome_under_mld_and_om() {
    const PAIR_PAST: [i64; 2] = [0x7FFF_8000, -0x8000_8001];
    let forms = [Form::Literal, Form::Gprel16, Form::GprelPair, Form::BrAddr, Form::RefQuad];
    for r in forms {
        let past: &[i64] = match r {
            Form::Literal | Form::Gprel16 => &[32768, -32769],
            Form::GprelPair => &PAIR_PAST,
            Form::BrAddr => &[1 << 20, -(1 << 20) - 1],
            Form::RefQuad => &[],
        };
        let addends = [i64::MAX, i64::MIN].into_iter().chain(past.iter().map(|&d| addend_at(r, d)));
        for addend in addends {
            let objects = [object(r, addend)];
            let mld = link_modules(&objects, &[], &LayoutOpts::default()).map(drop);
            // Only a GAT slot or a quad can hold any value.
            let holds_any = matches!(r, Form::Literal | Form::RefQuad);
            assert_eq!(mld.is_ok(), holds_any, "{r:?} {addend:#x}");
            for level in OmLevel::ALL {
                let om = optimize_and_link_with(&objects, &[], level, &verified()).map(drop);
                let ctx = format!("{r:?} {addend:#x} {}: mld {mld:?}, om {om:?}", level.name());
                match (&mld, &om) {
                    (Ok(()), Ok(())) => {}
                    (Err(a), Err(OmError::Link(b))) => {
                        assert_eq!(discriminant(a), discriminant(b), "{ctx}")
                    }
                    _ => panic!("{ctx}"),
                }
            }
        }
    }
}

#[test]
fn a_base_use_is_nullified_exactly_where_a_gprel16_patches() {
    for (disp, fits) in [(32767, true), (32768, false), (-32768, true), (-32769, false)] {
        let load = object(Form::Literal, addend_at(Form::Literal, disp));
        assert_eq!(om_simple(&[load]).addr_loads_nullified == 1, fits, "{disp}");
        let gprel = object(Form::Gprel16, addend_at(Form::Gprel16, disp));
        assert_eq!(mld_links(&[gprel]), fits, "{disp}");
    }
}

#[test]
fn a_load_becomes_a_pair_exactly_where_a_gprel_pair_patches() {
    let edges = [
        (0x7FFF_7FFF, true),
        (0x7FFF_8000, false),
        (-0x8000_8000, true),
        (-0x8000_8001, false),
    ];
    for (disp, fits) in edges {
        let load = object(Form::Literal, addend_at(Form::Literal, disp));
        let stats = om_simple(&[load]);
        assert_eq!(stats.addr_loads_nullified, 0, "{disp:#x}");
        assert_eq!(stats.addr_loads_converted == 1, fits, "{disp:#x}");
        let pair = object(Form::GprelPair, addend_at(Form::GprelPair, disp));
        assert_eq!(mld_links(&[pair]), fits, "{disp:#x}");
    }
}

/// Module `c`: `__start` calls `f`, through the GAT or with a `bsr`, from
/// its second word; `f` lies `words` words past the call's updated PC,
/// behind a procedure of no-ops.
fn far_call(words: i64, bsr: bool) -> Module {
    let mut b = ModuleBuilder::new("c");
    let f = b.external("f");
    let start = b.here();
    if bsr {
        b.emit(Inst::nop());
        let call = Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 0 };
        b.emit_reloc(call, RelocKind::BrAddr { sym: f, addend: 0 });
    } else {
        let lita = b.lita_slot(f, 0);
        let load = b.emit_reloc(Inst::ldq(Reg::PV, 0, Reg::GP), RelocKind::Literal { lita });
        b.emit_reloc(Inst::jsr(Reg::RA, Reg::PV), RelocKind::LituseJsr { load_offset: load });
    }
    b.emit(Inst::ret());
    b.define_proc("__start", start, 0, Visibility::Exported);
    // `f` starts `words` words past the call's updated PC, 8.
    let pad = b.here();
    for _ in 0..(8 + 4 * words - 4 - pad as i64) / 4 {
        b.emit(Inst::nop());
    }
    b.emit(Inst::ret());
    b.define_proc("pad", pad, 0, Visibility::Local);
    let at = b.here();
    assert_eq!(at as i64, 8 + 4 * words);
    b.emit(Inst::ret());
    b.define_proc("f", at, 0, Visibility::Exported);
    b.finish().unwrap()
}

#[test]
fn a_jsr_becomes_a_bsr_exactly_where_a_branch_patches() {
    for (words, fits) in [((1 << 20) - 1, true), (1 << 20, false)] {
        assert_eq!(om_simple(&[far_call(words, false)]).calls_jsr_to_bsr == 1, fits, "{words}");
        assert_eq!(mld_links(&[far_call(words, true)]), fits, "{words}");
    }
}

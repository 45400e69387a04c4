//! Regression tests: malformed modules must fail the link with a typed
//! [`LinkError`], never a panic. Each case here reconstructs an input that
//! formerly crashed (out-of-bounds patch slices, catch-all `panic!` arms) —
//! a long-running link server cannot afford to abort the process on one bad
//! request.

use om_linker::{build_symbol_table, link_modules, link_selected, LayoutOpts, LinkError};
use om_objfile::{LitaEntry, Module, Reloc, RelocKind, SecId, SymId, Symbol};

/// A well-formed standalone program: `__start` loads `g`'s address through
/// its GAT slot and returns. Every malformed case below is a corruption of
/// this module.
fn base_module() -> Module {
    let mut m = Module::new("m");
    // Four encoded no-op-ish words; contents never execute in these tests,
    // they only need to decode as far as the linker cares (it does not).
    m.text = vec![0; 16];
    m.data = vec![0; 16];
    m.symbols.push(Symbol::proc("__start", 0, 16, 0));
    m.symbols.push(Symbol::data("g", SecId::Data, 0, 8));
    m.lita.push(LitaEntry { sym: SymId(1), addend: 0 });
    m.relocs.push(Reloc::text(0, RelocKind::Literal { lita: 0 }));
    m
}

/// Links `modules` through both entry points: `link_selected` with the
/// caller's symbol table (how OM links its emitted modules) must validate
/// and fail exactly as `link_modules`.
fn link(modules: &[Module]) -> Result<(), LinkError> {
    let r = link_modules(modules, &[], &LayoutOpts::default()).map(|_| ());
    let symtab = build_symbol_table(modules).expect("the cases corrupt no symbol");
    let selected = link_selected(modules, &symtab, &LayoutOpts::default()).map(|_| ());
    assert_eq!(selected, r, "link_selected disagrees with link_modules");
    r
}

#[test]
fn base_module_links() {
    link(&[base_module()]).unwrap();
}

#[test]
fn truncated_patch_field_is_a_typed_error() {
    // A text relocation naming the last two bytes of the section: the
    // 2-byte displacement patch starts in bounds but the 4-byte instruction
    // field it belongs to does not fit — formerly an out-of-bounds slice
    // panic inside the linker's `patch16`.
    let mut m = base_module();
    m.relocs.push(Reloc::text(14, RelocKind::Gprel16 { sym: SymId(1), addend: 0, gp_group: 0 }));
    assert!(matches!(link(&[m]), Err(LinkError::Object(_))));
}

#[test]
fn unaligned_text_relocation_is_a_typed_error() {
    let mut m = base_module();
    m.relocs.push(Reloc::text(2, RelocKind::Gprel16 { sym: SymId(1), addend: 0, gp_group: 0 }));
    assert!(matches!(link(&[m]), Err(LinkError::Object(_))));
}

#[test]
fn refquad_overhanging_its_section_is_a_typed_error() {
    // An 8-byte data patch whose field sticks out past the section end —
    // formerly an out-of-bounds slice panic in the data-segment patch loop.
    let mut m = base_module();
    m.relocs.push(Reloc {
        sec: SecId::Data,
        offset: 12,
        kind: RelocKind::RefQuad { sym: SymId(1), addend: 0 },
    });
    assert!(matches!(link(&[m]), Err(LinkError::Object(_))));
}

#[test]
fn refquad_in_zero_fill_section_is_a_typed_error() {
    // There are no bytes to patch in .bss — formerly the relocation
    // dispatcher's catch-all arm.
    let mut m = base_module();
    m.bss_size = 16;
    m.relocs.push(Reloc {
        sec: SecId::Bss,
        offset: 0,
        kind: RelocKind::RefQuad { sym: SymId(1), addend: 0 },
    });
    assert!(matches!(link(&[m]), Err(LinkError::Object(_))));
}

#[test]
fn text_only_relocation_in_data_is_a_typed_error() {
    // A GPDISP (or any text-only kind) against the data section has no
    // meaning; the dispatcher's `(sec, other)` catch-all used to
    // `panic!("{other:?}")` on it.
    let mut m = base_module();
    m.relocs.push(Reloc {
        sec: SecId::Data,
        offset: 8,
        kind: RelocKind::Gpdisp { pair_offset: 4, anchor: 0, gp_group: 0 },
    });
    assert!(matches!(link(&[m]), Err(LinkError::Object(_))));
}

#[test]
fn literal_indexing_missing_lita_slot_is_a_typed_error() {
    let mut m = base_module();
    m.relocs.push(Reloc::text(4, RelocKind::Literal { lita: 9 }));
    assert!(matches!(link(&[m]), Err(LinkError::Object(_))));
}

#[test]
fn near_i32_max_section_is_a_typed_range_error() {
    // A .bss that alone fills the data segment's 31-bit span: layout must
    // reject it with LinkError::Range *before* build_image tries to
    // materialize a multi-gigabyte zero fill.
    let mut m = base_module();
    m.bss_size = i32::MAX as u64;
    let e = link(&[m]).unwrap_err();
    assert!(matches!(e, LinkError::Range { .. }), "{e}");
    assert!(e.to_string().contains("span"), "{e}");
}

#[test]
fn wrapping_section_sizes_are_a_typed_range_error() {
    // Sizes whose sum wraps u64: formerly silent wraparound in the layout
    // accumulator, producing overlapping sections.
    let mut a = base_module();
    a.bss_size = u64::MAX - 64;
    let mut b = base_module();
    b.name = "n".to_string();
    b.symbols[0] = Symbol::data("g2", SecId::Data, 0, 8);
    b.symbols[1] = Symbol::data("g3", SecId::Data, 8, 8);
    b.bss_size = 128;
    let r = link(&[a, b]);
    assert!(matches!(r, Err(LinkError::Range { .. })), "{r:?}");
}

#[test]
fn single_module_gat_overflow_is_a_typed_range_error() {
    // GP groups split only at module boundaries, so one module with more
    // unique literal slots than a group holds can never be laid out — the
    // failure mode of a monolithic compile-all merge at scale.
    let mut m = base_module();
    om_workloads::pad_gat(&mut m, om_linker::GAT_GROUP_CAPACITY + 1, "x");
    let e = link(&[m]).unwrap_err();
    assert!(matches!(e, LinkError::Range { .. }), "{e}");
    assert!(e.to_string().contains("GAT"), "{e}");
}

#[test]
fn exactly_one_group_of_slots_still_links() {
    // The boundary itself is legal: a module with exactly GAT_GROUP_CAPACITY
    // unique slots fills one group without error.
    let mut m = base_module();
    om_workloads::pad_gat(&mut m, om_linker::GAT_GROUP_CAPACITY - 1, "y");
    link(&[m]).unwrap();
}

#[test]
fn errors_render_without_panicking() {
    let mut m = base_module();
    m.relocs.push(Reloc::text(14, RelocKind::Gprel16 { sym: SymId(1), addend: 0, gp_group: 0 }));
    let e = link(&[m]).unwrap_err();
    assert!(!e.to_string().is_empty());
}

#[test]
fn unwritable_output_path_exits_1_without_panic() {
    // `mld` links fine but cannot create its output inside a missing
    // directory: a clean diagnostic and exit code 1, not an unwrap panic.
    let dir = std::env::temp_dir().join(format!("mld-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let obj = dir.join("m.o");
    std::fs::write(&obj, om_objfile::binary::write_module(&base_module())).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mld"))
        .arg("-o")
        .arg(dir.join("missing").join("a.exe"))
        .arg(&obj)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("mld: cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

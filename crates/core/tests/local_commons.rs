//! A local common (`Symbol::common(..).local()`) passes `Module::validate`,
//! though no compiler here emits one. It is the one input whose GAT slot
//! identity and address follow different rules: its slot is its own
//! module's, while its storage is the exported common of its name, if
//! there is one. These tests pin the outcome of each case for `mld`
//! (`link_modules`) and for OM at every level, with and without the
//! verifier.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::{optimize_and_link_with, OmError, OmLevel, OmOptions};
use om_linker::{build_symbol_table, layout, link_modules, select_borrowed, LayoutOpts};
use om_objfile::{Module, Symbol, SymbolDef, Visibility, DATA_BASE};
use om_sim::run_image;

const STEPS: u64 = 1_000_000;

fn compiled(name: &str, src: &str) -> Module {
    compile_source(name, src, &CompileOpts::o2()).unwrap()
}

/// `m` with its common `name` made local.
fn localized(mut m: Module, name: &str) -> Module {
    let s = m.symbols.iter_mut().find(|s| s.name == name).expect("symbol");
    assert!(matches!(s.def, SymbolDef::Common { .. }), "{s:?}");
    s.vis = Visibility::Local;
    m
}

/// `a` stores to and reads its common `c`, made local, and calls `other`.
fn a_with_local_c() -> Module {
    localized(
        compiled("a", "extern int other(); int c; int main() { c = 3; return c + other(); }"),
        "c",
    )
}

fn options(verify: bool) -> OmOptions {
    OmOptions { verify, ..OmOptions::default() }
}

/// Every link of `objects`, by `mld` and by OM at each level, with and
/// without the verifier, fails with `want`.
fn every_link_fails_with(objects: &[Module], want: &str) {
    let e = link_modules(objects, &[], &LayoutOpts::default()).unwrap_err();
    assert_eq!(e.to_string(), want, "mld");
    for level in OmLevel::ALL {
        for verify in [false, true] {
            let e = optimize_and_link_with(objects, &[], level, &options(verify)).unwrap_err();
            assert!(matches!(e, OmError::Link(_)), "{} verify={verify}: {e:?}", level.name());
            assert_eq!(e.to_string(), want, "{} verify={verify}", level.name());
        }
    }
}

#[test]
fn a_referenced_local_common_shares_the_exported_commons_storage_in_a_slot_of_its_own() {
    let b = compiled("b", "int c; int other() { c = c + 1; return c; }");
    let objects = [crt0::module().unwrap(), a_with_local_c(), b];

    let (image, stats) = link_modules(&objects, &[], &LayoutOpts::default()).expect("mld");
    // `main`, `other`, `a`'s `c` and `b`'s `c`: the two `c` slots are not
    // merged.
    assert_eq!(stats.gat_slots, 4);
    let c = image.symbols["c"];
    let selected = select_borrowed(&objects, &[]).unwrap();
    let lay = image_layout_of(&objects);
    let slot_of_c = |mi: usize| {
        let m = &selected[mi];
        let li = m.lita.iter().position(|e| m.symbol(e.sym).name == "c").expect("a `c` slot");
        lay.lita_addr[mi][li]
    };
    let (slot_a, slot_b) = (slot_of_c(1), slot_of_c(2));
    assert_ne!(slot_a, slot_b, "one slot per module");
    let data = &image.segments[1];
    let quad = |addr: u64| {
        let off = (addr - DATA_BASE) as usize;
        u64::from_le_bytes(data.bytes[off..off + 8].try_into().unwrap())
    };
    assert_eq!((quad(slot_a), quad(slot_b)), (c, c), "both slots hold the exported `c`");
    // `main` reads its 3 before `other` makes the shared `c` 4: 3 + 4 (4
    // separate, 3 + 1).
    assert_eq!(run_image(&image, STEPS).unwrap().result, 7);

    for (level, gat_slots) in OmLevel::ALL.into_iter().zip([4, 4, 0, 0]) {
        for verify in [false, true] {
            let ctx = format!("{} verify={verify}", level.name());
            let out = optimize_and_link_with(&objects, &[], level, &options(verify))
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(out.link.gat_slots, gat_slots, "{ctx}");
            assert_eq!(out.stats.gat_slots_before, 4, "{ctx}");
            assert_eq!(run_image(&out.image, STEPS).unwrap().result, 7, "{ctx}");
            if level == OmLevel::None {
                assert!(out.image == image, "{ctx}: OM without optimization is mld");
            }
        }
    }
}

/// The layout `mld` patched its image against, recomputed.
fn image_layout_of(objects: &[Module]) -> om_linker::ProgramLayout {
    let selected = select_borrowed(objects, &[]).unwrap();
    let symtab = build_symbol_table(&selected).unwrap();
    layout(&selected, &symtab, &LayoutOpts::default()).unwrap()
}

#[test]
fn a_referenced_local_common_without_an_exported_common_is_undefined() {
    let b = compiled("b", "int other() { return 1; }");
    let objects = [crt0::module().unwrap(), a_with_local_c(), b];
    every_link_fails_with(&objects, "undefined symbol `c` (referenced by `a`)");
    // A strong definition of the name does not take the local common's
    // references either.
    let b = compiled("b", "int c = 5; int other() { return c; }");
    let objects = [crt0::module().unwrap(), a_with_local_c(), b];
    every_link_fails_with(&objects, "undefined symbol `c` (referenced by `a`)");
}

#[test]
fn an_unreferenced_local_common_is_not_allocated() {
    let mut a = compiled("a", "extern int other(); int main() { return other(); }");
    a.symbols.push(Symbol::common("z", 8, 8).local());
    let b = compiled("b", "int other() { return 1; }");
    let objects = [crt0::module().unwrap(), a, b];

    let (image, stats) = link_modules(&objects, &[], &LayoutOpts::default()).expect("mld");
    assert_eq!(stats.gat_slots, 2);
    assert!(!image.symbols.contains_key("z"));
    let lay = image_layout_of(&objects);
    assert_eq!(lay.info.sdata.base + lay.info.sdata.size, lay.info.sbss.base, "no common");
    assert_eq!(run_image(&image, STEPS).unwrap().result, 1);
    // OM links what `mld` links: its passes leave an unresolved target
    // alone, and only a reference to one fails, in the final link.
    for level in OmLevel::ALL {
        for verify in [false, true] {
            let ctx = format!("{} verify={verify}", level.name());
            let out = optimize_and_link_with(&objects, &[], level, &options(verify))
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(!out.image.symbols.contains_key("z"), "{ctx}");
            assert_eq!(run_image(&out.image, STEPS).unwrap().result, 1, "{ctx}");
            if level == OmLevel::None {
                assert!(out.image == image, "{ctx}: OM without optimization is mld");
            }
        }
    }
}

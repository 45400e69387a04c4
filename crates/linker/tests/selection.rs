//! The borrowed selection and the per-link address table, against the
//! selection rule they replace and against `sym_addr`.

use om_linker::{build_symbol_table, layout, select_borrowed, sym_addr, AddrTable, LayoutOpts};
use om_objfile::{Archive, Module, Visibility};
use om_workloads::scale::{archive_pack, build_scale};
use om_workloads::{build::build, scale_spec, spec, CompileMode};
use std::collections::HashSet;

/// The selection as `select_modules` made it before it borrowed: after
/// each archive, every selected module's symbols are walked again for the
/// names still undefined.
fn reference_selection<'a>(objects: &'a [Module], libs: &'a [Archive]) -> Vec<&'a Module> {
    let mut out: Vec<&Module> = objects.iter().collect();
    for lib in libs {
        let defined: HashSet<&str> = (out.iter().flat_map(|m| &m.symbols))
            .filter(|s| s.is_defined() && s.vis == Visibility::Exported)
            .map(|s| s.name.as_str())
            .collect();
        let undefined: Vec<&str> = (out.iter().flat_map(|m| &m.symbols))
            .filter(|s| !s.is_defined() && !defined.contains(s.name.as_str()))
            .map(|s| s.name.as_str())
            .collect();
        out.extend(lib.select(undefined));
    }
    out
}

/// The selection holds the inputs themselves, in the reference's order.
fn selects_the_inputs_themselves(objects: &[Module], libs: &[Archive], ctx: &str) {
    let got = select_borrowed(objects, libs).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let want = reference_selection(objects, libs);
    assert_eq!(got.len(), want.len(), "{ctx}: selection size");
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(std::ptr::eq(*g, *w), "{ctx}: module {k} is `{}`, not `{}`", g.name, w.name);
    }
    assert!(got.len() > objects.len(), "{ctx}: no archive member selected");
}

#[test]
fn the_selection_borrows_objects_and_members_in_order() {
    for s in spec::all() {
        for mode in CompileMode::ALL {
            let b = build(&spec::quick(&s), mode).expect("build");
            selects_the_inputs_themselves(
                &b.objects,
                &b.libs,
                &format!("{} {}", s.name, mode.name()),
            );
        }
    }
    let b = build_scale(&scale_spec(16), CompileMode::Each).expect("scale16");
    selects_the_inputs_themselves(&b.objects, &b.libs, "scale16");
    // Members of one archive satisfy the next archive's references.
    let pack = archive_pack(3, 4, 2).expect("archive pack");
    selects_the_inputs_themselves(&pack.objects, &pack.libs, "archive_pack");
}

#[test]
fn the_address_table_is_sym_addr_for_every_symbol() {
    let b = build_scale(&scale_spec(16), CompileMode::Each).expect("scale16");
    let selected = select_borrowed(&b.objects, &b.libs).unwrap();
    let symtab = build_symbol_table(&selected).unwrap();
    let lay = layout(&selected, &symtab, &LayoutOpts::default()).unwrap();
    let table = AddrTable::new(&selected, &symtab, &lay);
    let mut symbols = 0;
    for (mi, m) in selected.iter().enumerate() {
        for (id, s) in m.symbols_with_ids() {
            let want = sym_addr(&selected, &symtab, &lay, mi, id);
            assert_eq!(table.addr(mi, id), want, "`{}` of `{}`", s.name, m.name);
            symbols += 1;
        }
    }
    assert!(symbols > 1_000, "{symbols} symbols");
}

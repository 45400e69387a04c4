//! The borrowed selection and the symbol table, against the selection rule
//! and the name rule they replace.

use om_linker::{build_symbol_table, select_borrowed, Common, GlobalRef};
use om_objfile::{Archive, Module, SymId, SymbolDef, Visibility};
use om_workloads::scale::{archive_pack, build_scale};
use om_workloads::{build::build, scale_spec, spec, CompileMode};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// A program's name, objects and archives.
type Program = (String, Vec<Module>, Arc<[Archive]>);

/// The 19 quick programs in both modes, scale16, and a pack of 3 archives
/// whose members satisfy the next archive's references.
fn programs() -> &'static [Program] {
    static PROGRAMS: OnceLock<Vec<Program>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let mut out = Vec::new();
        for s in spec::all() {
            for mode in CompileMode::ALL {
                let b = build(&spec::quick(&s), mode).expect("build");
                out.push((format!("{} {}", s.name, mode.name()), b.objects, b.libs));
            }
        }
        let b = build_scale(&scale_spec(16), CompileMode::Each).expect("scale16");
        out.push(("scale16".into(), b.objects, b.libs));
        let pack = archive_pack(3, 4, 2).expect("archive pack");
        out.push(("archive_pack".into(), pack.objects, pack.libs.into()));
        out
    })
}

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

#[test]
fn the_selection_borrows_objects_and_members_in_order() {
    for (ctx, objects, libs) in programs() {
        let got = select_borrowed(objects, libs).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = reference_selection(objects, libs);
        assert_eq!(got.len(), want.len(), "{ctx}: selection size");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(std::ptr::eq(*g, *w), "{ctx}: module {k} is `{}`, not `{}`", g.name, w.name);
        }
        assert!(got.len() > objects.len(), "{ctx}: no archive member selected");
    }
}

/// The name rule the table replaces, kept as its reference: a local
/// definition names itself (a local common, the common of its name); any
/// other symbol names the exported strong definition of its name, else the
/// common of its name. Commons merge every exported declaration to the
/// largest size and alignment (at least 8), drop out under a strong
/// definition, and are numbered in the order their names are first
/// declared common.
fn reference_targets(modules: &[&Module]) -> (Vec<Vec<GlobalRef>>, Vec<Common>) {
    let mut globals: HashMap<&str, (usize, SymId)> = HashMap::new();
    let mut merged: HashMap<&str, (u64, u64)> = HashMap::new();
    let mut declared_order: Vec<&str> = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for (mi, m) in modules.iter().enumerate() {
        for (id, s) in m.symbols_with_ids() {
            if matches!(s.def, SymbolDef::Common { .. }) && seen.insert(&s.name) {
                declared_order.push(&s.name);
            }
            if s.vis != Visibility::Exported {
                continue;
            }
            match s.def {
                SymbolDef::Proc { .. } | SymbolDef::Data { .. } => {
                    globals.insert(&s.name, (mi, id));
                }
                SymbolDef::Common { size, align } => {
                    let e = merged.entry(&s.name).or_insert((0, 8));
                    *e = (e.0.max(size), e.1.max(align));
                }
                SymbolDef::Extern => {}
            }
        }
    }
    let commons: Vec<Common> = (declared_order.into_iter())
        .filter(|n| merged.contains_key(n) && !globals.contains_key(n))
        .map(|n| Common { name: n.to_string(), size: merged[n].0, align: merged[n].1 })
        .collect();
    let common: HashMap<&str, u32> =
        commons.iter().enumerate().map(|(c, x)| (x.name.as_str(), c as u32)).collect();
    let by_common =
        |name: &str| common.get(name).map_or(GlobalRef::Unresolved, |&c| GlobalRef::Common(c));
    let targets = (modules.iter().enumerate())
        .map(|(mi, m)| {
            (m.symbols_with_ids())
                .map(|(id, s)| {
                    if s.is_defined() && s.vis == Visibility::Local {
                        if matches!(s.def, SymbolDef::Common { .. }) {
                            by_common(&s.name)
                        } else {
                            GlobalRef::Def { module: mi, sym: id }
                        }
                    } else if let Some(&(module, sym)) = globals.get(s.name.as_str()) {
                        GlobalRef::Def { module, sym }
                    } else {
                        by_common(&s.name)
                    }
                })
                .collect()
        })
        .collect();
    (targets, commons)
}

#[test]
fn the_symbol_table_resolves_every_symbol_by_the_name_rule() {
    let mut symbols = 0;
    for (ctx, objects, libs) in programs() {
        let selected = select_borrowed(objects, libs).unwrap();
        let symtab = build_symbol_table(&selected).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let (targets, commons) = reference_targets(&selected);
        assert_eq!(symtab.commons(), commons, "{ctx}: commons");
        for (mi, m) in selected.iter().enumerate() {
            for (id, s) in m.symbols_with_ids() {
                let want = targets[mi][id.0 as usize];
                assert_eq!(symtab.target(mi, id), want, "{ctx}: `{}` of `{}`", s.name, m.name);
                symbols += 1;
            }
        }
    }
    assert!(symbols > 10_000, "{symbols} symbols");
}

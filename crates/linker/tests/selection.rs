//! The borrowed selection, the symbol table and the GAT merge, against the
//! selection rule, the name rule and the hashed merge they replace.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_linker::{
    build_symbol_table, layout, select_borrowed, Common, GlobalRef, LayoutOpts, ProgramLayout,
    SymbolTable, GAT_GROUP_CAPACITY,
};
use om_objfile::{Archive, LitaEntry, Module, SecId, SymId, Symbol, SymbolDef, Visibility};
use om_objfile::DATA_BASE;
use om_workloads::scale::{archive_pack, build_scale};
use om_workloads::{build::build, pad_gat, scale_spec, spec, CompileMode};
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

/// The GAT fields of a layout.
struct Gat {
    group_of_module: Vec<u32>,
    gp_values: Vec<u64>,
    lita_addr: Vec<Vec<u64>>,
    slots: Vec<(u64, usize, u32)>,
    gat_slots: usize,
    gat_entries_input: usize,
}

impl Gat {
    fn of(l: &ProgramLayout) -> Gat {
        Gat {
            group_of_module: l.group_of_module.clone(),
            gp_values: l.gp_values.clone(),
            lita_addr: l.lita_addr.clone(),
            slots: l.slots.clone(),
            gat_slots: l.gat_slots,
            gat_entries_input: l.gat_entries_input,
        }
    }

    /// Where `self` first differs from `want`, field by field.
    fn differences(&self, want: &Gat) -> Vec<String> {
        fn first<T: PartialEq + std::fmt::Debug>(field: &str, a: &[T], b: &[T]) -> Option<String> {
            let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
            Some(format!("{field}[{i}]: {:?}, want {:?}", a.get(i), b.get(i)))
        }
        // `(module, entry, address)`, one per `.lita` entry.
        let flat = |l: &[Vec<u64>]| {
            let mut out = Vec::new();
            for (mi, m) in l.iter().enumerate() {
                out.extend(m.iter().enumerate().map(|(li, &a)| (mi, li, a)));
            }
            out
        };
        let scalars = [self.gat_slots, self.gat_entries_input];
        let wanted = [want.gat_slots, want.gat_entries_input];
        [
            first("group_of_module", &self.group_of_module, &want.group_of_module),
            first("gp_values", &self.gp_values, &want.gp_values),
            first("lita_addr", &flat(&self.lita_addr), &flat(&want.lita_addr)),
            first("slots", &self.slots, &want.slots),
            first("(gat_slots, gat_entries_input)", &scalars, &wanted),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// The GAT merge as `layout` ran it before the symbol table numbered the
/// entries, kept as its reference: each `.lita` entry keyed by its resolved
/// target (a local definition's own) and addend in a hash map of the current
/// GP group, which a module seals when its entries not yet in the map would
/// overflow it (an entry listed twice counts twice).
fn reference_gat(modules: &[&Module], symtab: &SymbolTable) -> Gat {
    let mut gat = Gat {
        group_of_module: vec![0; modules.len()],
        gp_values: Vec::new(),
        lita_addr: modules.iter().map(|m| vec![0; m.lita.len()]).collect(),
        slots: Vec::new(),
        gat_slots: 0,
        gat_entries_input: 0,
    };
    let mut addr = DATA_BASE;
    let mut current: HashMap<(GlobalRef, i64), u64> = HashMap::new();
    let mut group_id = 0;
    let mut group_bases = vec![addr];
    for (mi, m) in modules.iter().enumerate() {
        gat.gat_entries_input += m.lita.len();
        let keys: Vec<(GlobalRef, i64)> = (m.lita.iter())
            .map(|e| {
                let s = m.symbol(e.sym);
                let target = if s.vis == Visibility::Local && s.is_defined() {
                    GlobalRef::Def { module: mi, sym: e.sym }
                } else {
                    symtab.target(mi, e.sym)
                };
                (target, e.addend)
            })
            .collect();
        let new = keys.iter().filter(|k| !current.contains_key(*k)).count();
        if current.len() + new > GAT_GROUP_CAPACITY && !current.is_empty() {
            group_id += 1;
            group_bases.push(addr);
            current = HashMap::new();
        }
        gat.group_of_module[mi] = group_id;
        for (li, k) in keys.into_iter().enumerate() {
            let slot = *current.entry(k).or_insert_with(|| {
                let a = addr;
                addr += 8;
                gat.slots.push((a, mi, li as u32));
                a
            });
            gat.lita_addr[mi][li] = slot;
        }
    }
    gat.gat_slots = ((addr - DATA_BASE) / 8) as usize;
    gat.gp_values = group_bases.iter().map(|&b| b + 0x8000).collect();
    gat
}

/// Module `name`, defining nothing, with `.lita` entries naming `refs`
/// (external symbols) plus the addend each is listed with.
fn lita_module(name: &str, refs: &[(&str, i64)]) -> Module {
    let mut m = Module::new(name);
    for &(r, addend) in refs {
        let sym = match m.symbols.iter().position(|s| s.name == r) {
            Some(id) => SymId(id as u32),
            None => {
                m.symbols.push(Symbol::external(r));
                SymId(m.symbols.len() as u32 - 1)
            }
        };
        m.lita.push(LitaEntry { sym, addend });
    }
    m
}

/// Wide and nonzero addends: shared across modules, listed twice in one,
/// at the ends of `i64`, on an exported definition from its own module, and
/// on a local definition that two modules each name (two slots).
fn addend_objects() -> Vec<Module> {
    let wide = [0, 8, -8, 1 << 33, i64::MAX, i64::MAX, i64::MIN];
    let a: Vec<(&str, i64)> = wide.iter().map(|&x| ("big", x)).chain([("f", 8)]).collect();
    let b = lita_module("b", &[("big", i64::MAX), ("big", 8), ("big", 16), ("f", 0)]);
    let mut d = lita_module("d", &[("big", 8)]);
    d.data = vec![0; 32];
    d.symbols.insert(0, Symbol::data("big", SecId::Data, 0, 16));
    d.symbols.push(Symbol::data("loc", SecId::Data, 16, 16).local());
    d.lita = vec![LitaEntry { sym: SymId(0), addend: 8 }, LitaEntry { sym: SymId(1), addend: 8 }];
    let mut e = lita_module("e", &[("big", -8)]);
    e.data = vec![0; 16];
    e.symbols.push(Symbol::data("loc", SecId::Data, 0, 16).local());
    e.lita.push(LitaEntry { sym: SymId(1), addend: 8 });
    e.text = vec![0; 8];
    e.symbols.push(Symbol::proc("f", 0, 8, 0));
    vec![lita_module("a", &a), b, d, e]
}

/// A local common that shares the storage of the exported common of its
/// name, but not its slot (`crates/core/tests/local_commons.rs`).
fn local_common_objects() -> Vec<Module> {
    let compiled = |name: &str, src: &str| compile_source(name, src, &CompileOpts::o2()).unwrap();
    let a_src = "extern int other(); int c; int main() { c = 3; return c + other(); }";
    let mut a = compiled("a", a_src);
    a.symbols.iter_mut().find(|s| s.name == "c").expect("a common `c`").vis = Visibility::Local;
    let b = compiled("b", "int c; int other() { c = c + 1; return c; }");
    vec![crt0::module().unwrap(), a, b]
}

/// Padded GATs that straddle a group's capacity: `pb`'s entries, two of
/// them listed twice, overflow `pa`'s group though the distinct ones would
/// fit, and `pb` and `pc` name entries of `pa`'s group again in the next.
fn straddling_objects() -> Vec<Module> {
    let mut pa = Module::new("pa");
    pad_gat(&mut pa, GAT_GROUP_CAPACITY - 3, "a");
    let mut pb = Module::new("pb");
    pad_gat(&mut pb, 2, "b");
    pad_gat(&mut pb, 2, "b");
    pad_gat(&mut pb, 1, "a");
    let mut pc = Module::new("pc");
    pad_gat(&mut pc, 3, "a");
    pad_gat(&mut pc, 1, "b");
    vec![pa, pb, pc]
}

#[test]
fn the_numbered_merge_lays_out_the_gat_the_hashed_merge_did() {
    let extra = [
        ("addends", addend_objects()),
        ("local common", local_common_objects()),
        ("straddling", straddling_objects()),
    ];
    let programs = programs().iter().map(|(ctx, objs, libs)| (&ctx[..], &objs[..], &libs[..]));
    let extra = extra.iter().map(|(ctx, objects)| (*ctx, &objects[..], &[][..]));
    let (mut entries, mut groups) = (0, 0);
    for (ctx, objects, libs) in programs.chain(extra) {
        let selected = select_borrowed(objects, libs).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let symtab = build_symbol_table(&selected).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for sort_commons in [false, true] {
            let l = layout(&selected, &symtab, &LayoutOpts { sort_commons }).unwrap();
            let differences = Gat::of(&l).differences(&reference_gat(&selected, &symtab));
            assert!(differences.is_empty(), "{ctx}: {differences:#?}");
        }
        let want = reference_gat(&selected, &symtab);
        entries += want.gat_entries_input;
        groups += want.gp_values.len();
        if ctx == "straddling" {
            assert_eq!(want.group_of_module, [0, 1, 1], "{ctx}: `pb` opens a group");
        }
    }
    assert!(entries > 20_000 && groups > 40, "{entries} entries in {groups} groups");
}

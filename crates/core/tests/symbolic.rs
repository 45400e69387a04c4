//! Unit tests of OM's symbolic machinery: translation, emit-back round
//! trips, call-site recognition, address-taken analysis, prologue
//! restoration, deletion with branch retargeting, and the size of the
//! symbolic form.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::analysis::{address_taken, call_sites, find_entry_pair, use_index, CallKind, UseKind};
use om_core::sym::{emit_all, translate, GlobalRef, SInst, SMark, SymProgram};
use om_linker::{build_symbol_table, select_modules};
use om_objfile::Module;
use std::collections::HashSet;

fn symbolic(sources: &[(&str, &str)]) -> (SymProgram, Vec<Module>) {
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module().unwrap()];
    for (n, s) in sources {
        objects.push(compile_source(n, s, &opts).unwrap());
    }
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let program = translate(&modules, &symtab).unwrap();
    (program, modules)
}

#[test]
fn translate_emit_roundtrip_is_identity_on_code() {
    let (program, modules) = symbolic(&[(
        "m",
        "int g; int work[8];
         static int helper(int x) { return x * 3; }
         int touch(int i) { work[i & 7] = g + helper(i); return work[i & 7]; }
         int main() { int i = 0; for (i = 0; i < 5; i = i + 1) { g = g + touch(i); } return g; }",
    )]);
    let emitted = emit_all(&program).unwrap();
    assert_eq!(modules.len(), emitted.len());
    for (orig, back) in modules.iter().zip(&emitted) {
        assert_eq!(orig.text, back.text, "text of `{}` must round-trip", orig.name);
        assert_eq!(orig.lita, back.lita, "GAT of `{}` must round-trip", orig.name);
        assert_eq!(orig.symbols, back.symbols, "symbols of `{}` must round-trip", orig.name);
        assert_eq!(orig.data, back.data);
        assert_eq!(orig.sdata, back.sdata);
        // Relocation multisets match (ordering canonicalized by emit).
        assert_eq!(orig.relocs.len(), back.relocs.len(), "`{}`", orig.name);
        for r in &orig.relocs {
            assert!(back.relocs.contains(r), "`{}` lost {r}", orig.name);
        }
    }
}

#[test]
fn call_sites_are_recognized_with_their_resets() {
    let (program, _) = symbolic(&[
        (
            "m",
            "extern int ext(int);
             static int near(int x) { return x + 1; }
             fnptr h;
             int main() { h = &ext; return ext(1) + near(2) + h(3); }",
        ),
        ("other", "int ext(int x) { return x * 2; }"),
    ]);
    // main is in module 1 (after crt0).
    let main = program.modules[1]
        .procs
        .iter()
        .find(|p| p.name == "main")
        .unwrap();
    let sites = call_sites(main);
    let mut direct = 0;
    let mut bsr = 0;
    let mut indirect = 0;
    for s in &sites {
        match s.kind {
            CallKind::DirectJsr { .. } => {
                direct += 1;
                assert!(s.gp_reset.is_some(), "conservative calls reset GP");
            }
            CallKind::Bsr { .. } => {
                bsr += 1;
                assert!(s.gp_reset.is_none(), "compiler BSRs have no reset");
            }
            CallKind::Indirect => {
                indirect += 1;
                assert!(s.gp_reset.is_some());
            }
        }
    }
    assert_eq!((direct, bsr, indirect), (1, 1, 1), "{sites:?}");
}

#[test]
fn address_taken_covers_fnptr_sources() {
    let (program, _) = symbolic(&[(
        "m",
        "int f1(int x) { return x; }
         int f2(int x) { return x + 1; }
         int f3(int x) { return x + 2; }
         fnptr init = &f1;
         fnptr dyn_;
         int main() { dyn_ = &f2; return init(1) + dyn_(2) + f3(3); }",
    )]);
    let taken = address_taken(&program);
    let name_of = |r: &GlobalRef| match *r {
        GlobalRef::Def { module, sym } | GlobalRef::Common { module, sym } => {
            program.modules[module].source.symbol(sym).name.clone()
        }
    };
    let names: HashSet<String> = taken.iter().map(name_of).collect();
    assert!(names.contains("f1"), "data initializer: {names:?}");
    assert!(names.contains("f2"), "&f2 in code: {names:?}");
    assert!(!names.contains("f3"), "f3 only directly called: {names:?}");
    assert!(names.contains("__start"), "entry is pinned: {names:?}");
}

#[test]
fn use_index_links_loads_to_their_consumers() {
    let (program, _) = symbolic(&[(
        "m",
        "int g; int a[4];
         int main(){ int i = g; a[i & 3] = i; return a[0]; }",
    )]);
    let main = program.modules[1]
        .procs
        .iter()
        .find(|p| p.name == "main")
        .unwrap();
    let uses = use_index(main);
    // Every literal load has at least one recorded use, and kinds are sane.
    let mut base = 0;
    let mut addr = 0;
    for i in &main.insts {
        if let SMark::Literal { escaping, .. } = i.mark {
            let us = uses.of(i.id).to_vec();
            assert!(!us.is_empty() || escaping, "dangling literal {}", i.id);
            for (_, k) in us {
                match k {
                    UseKind::Base => base += 1,
                    UseKind::Addr => addr += 1,
                    UseKind::Jsr => {}
                }
            }
        }
    }
    assert!(base >= 2, "scalar + const-index array uses are rewritable");
    assert!(addr >= 1, "dynamic-index array use is address arithmetic");
}

#[test]
fn restore_prologues_brings_scheduled_pairs_home() {
    let (mut program, _) = symbolic(&[(
        "m",
        "int g;
         int busy(int a, int b) {
           int x = a * 2 + b;
           int y = x * 3 - a;
           g = g + x + y;
           return x ^ y;
         }
         int main() { return busy(1, 2); }",
    )]);
    // Find a proc whose pair was scheduled off the entry.
    let displaced: Vec<(usize, usize)> = program
        .modules
        .iter()
        .enumerate()
        .flat_map(|(mi, m)| {
            m.procs.iter().enumerate().filter_map(move |(pi, p)| {
                find_entry_pair(p).filter(|&(hi, lo)| !(hi == 0 && lo == 1)).map(|_| (mi, pi))
            })
        })
        .collect();
    om_core::full::restore_prologues(&mut program);
    for (mi, pi) in &displaced {
        let p = &program.modules[*mi].procs[*pi];
        let (hi, lo) = find_entry_pair(p).unwrap();
        assert_eq!((hi, lo), (0, 1), "pair restored in {}", p.name);
    }
    // Restoration is semantics-preserving structurally: emit must validate.
    for m in emit_all(&program).unwrap() {
        m.validate().unwrap();
    }
}

#[test]
fn delete_retargets_branches() {
    let (mut program, _) = symbolic(&[(
        "m",
        "int g;
         int main() {
           int i = 0;
           for (i = 0; i < 4; i = i + 1) { g = g + i; }
           return g;
         }",
    )]);
    let p = program.modules[1]
        .procs
        .iter_mut()
        .find(|p| p.name == "main")
        .unwrap();
    // Find a branch target and delete the instruction right at it; the
    // branch must retarget to the next survivor.
    let target = p
        .insts
        .iter()
        .find_map(|i| match i.mark {
            SMark::BrLocal { target } => Some(target),
            _ => None,
        })
        .expect("loop has a branch");
    let idx = p.insts.iter().position(|i| i.id == target).unwrap();
    let next_id = p.insts[idx + 1].id;
    p.delete(&[target]);
    let still: Vec<_> = p
        .insts
        .iter()
        .filter_map(|i| match i.mark {
            SMark::BrLocal { target } => Some(target),
            _ => None,
        })
        .collect();
    assert!(
        still.iter().all(|t| *t != target),
        "no branch may reference the deleted id"
    );
    assert!(
        still.contains(&next_id),
        "some branch now targets the survivor {next_id}: {still:?}"
    );
}

#[test]
fn symbolic_form_stays_compact() {
    // One `SInst` per 4-byte instruction word of the whole program: a mark
    // that owned a `String` again, or a resolved copy of the form, would
    // show up here first.
    use std::mem::size_of;
    for (name, size, limit) in [
        ("SInst", size_of::<SInst>(), 40),
        ("SMark", size_of::<SMark>(), 24),
        ("GlobalRef", size_of::<GlobalRef>(), 16),
    ] {
        assert!(size <= limit, "{name} is {size} bytes, limit {limit}");
    }
}

//! Unit tests of OM's symbolic machinery: translation, emit-back round
//! trips, call-site recognition, address-taken analysis, prologue
//! restoration, deletion with branch retargeting, and the size of the
//! symbolic form: what a translation keeps of its input, and addends too
//! wide for a mark.

use om_alpha::{BrOp, Inst, Reg};
use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::analysis::{
    address_taken, call_sites, find_entry_pair, ref_name, use_index, CallKind, UseKind,
};
use om_core::sym::{emit_all, translate, GlobalRef, SInst, SMark, SymProc, SymProgram};
use om_core::{optimize_and_link_artifacts, OmLevel, OmOptions};
use om_linker::{build_symbol_table, select_modules, Image};
use om_objfile::{Module, ModuleBuilder, RelocKind, SecId, Symbol, Visibility};
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

/// Procedure `name` of module `mi`.
fn proc_named<'a>(program: &'a SymProgram, mi: usize, name: &str) -> &'a SymProc {
    let m = &program.modules[mi];
    m.procs.iter().find(|p| m.proc_name(p) == name).unwrap()
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
    let main = proc_named(&program, 1, "main");
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
    let names: HashSet<&str> = taken.iter().map(|&r| ref_name(&program, r)).collect();
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
    let main = proc_named(&program, 1, "main");
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
        assert_eq!((hi, lo), (0, 1), "pair restored in {}", program.modules[*mi].proc_name(p));
    }
    // Restoration is semantics-preserving structurally: emit must validate.
    for m in emit_all(&program).unwrap() {
        m.validate().unwrap();
    }
}

/// Appends procedure `name` to `b`: `lead` moves, then the entry GPDISP
/// pair (where a compile-time schedule could have sunk it), a branch back to
/// instruction `target` and a return.
fn sunk_pair(b: &mut ModuleBuilder, name: &str, lead: usize, target: usize) {
    let start = b.here();
    for _ in 0..lead {
        b.emit(Inst::mov(Reg::A1, Reg::A2));
    }
    let pair = RelocKind::Gpdisp { pair_offset: 4, anchor: start, gp_group: 0 };
    b.emit_reloc(Inst::ldah(Reg::GP, 0, Reg::PV), pair);
    b.emit(Inst::lda(Reg::GP, 0, Reg::GP));
    let disp = target as i32 - (lead as i32 + 3);
    b.emit(Inst::Br { op: BrOp::Bne, ra: Reg::A1, disp });
    b.emit(Inst::ret());
    b.define_proc(name, start, 0, Visibility::Exported);
}

#[test]
fn restore_keeps_a_pair_whose_skipped_region_a_branch_targets() {
    let mut b = ModuleBuilder::new("r");
    // `(name, lead, branch target, where the pair ends up)`: a branch into
    // the region the pair would move over pins it; one to the pair's own
    // high half does not. Deep in a long procedure, the same outcomes.
    let cases = [
        ("into_region", 1, 0, (1, 2)),
        ("to_high_half", 1, 1, (0, 1)),
        ("deep_into_region", 70, 66, (70, 71)),
        ("deep_to_high_half", 70, 70, (0, 1)),
    ];
    for (name, lead, target, _) in cases {
        sunk_pair(&mut b, name, lead, target);
    }
    let modules = vec![b.finish().unwrap()];
    let mut program = translate(&modules, &build_symbol_table(&modules).unwrap()).unwrap();
    for (name, lead, ..) in cases {
        assert_eq!(find_entry_pair(proc_named(&program, 0, name)), Some((lead, lead + 1)));
    }
    om_core::full::restore_prologues(&mut program);
    for (name, _, _, want) in cases {
        assert_eq!(find_entry_pair(proc_named(&program, 0, name)), Some(want), "{name}");
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
    let m = &mut program.modules[1];
    let pi = m.procs.iter().position(|p| m.proc_name(p) == "main").unwrap();
    let p = &mut m.procs[pi];
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
    // that owned a `String` again, an `i64` addend, or a resolved copy of
    // the form, would show up here first. A procedure reads its name from
    // its module's symbol table.
    use std::mem::size_of;
    for (name, size, limit) in [
        ("SInst", size_of::<SInst>(), 24),
        ("SMark", size_of::<SMark>(), 12),
        ("GlobalRef", size_of::<GlobalRef>(), 16),
        ("SymProc", size_of::<SymProc>(), 32),
    ] {
        assert!(size <= limit, "{name} is {size} bytes, limit {limit}");
    }
}

#[test]
fn a_translation_keeps_no_text() {
    // What emit, layout and the verifier read of an input stays; its text
    // and text relocations are the procedures now.
    let (program, modules) = symbolic(&[(
        "m",
        "int g; int twice(int x) { return 2 * x; }
         fnptr init = &twice;
         int main() { g = init(3); return g; }",
    )]);
    // The initialized pointer is a data relocation, which stays.
    assert!(!program.modules[1].source.relocs.is_empty());
    for (m, input) in program.modules.iter().zip(&modules) {
        let kept = &m.source;
        assert!(kept.text.is_empty(), "`{}` keeps its text", input.name);
        assert!(kept.relocs.iter().all(|r| r.sec != SecId::Text), "`{}`", input.name);
        let data_relocs: Vec<_> = input.relocs.iter().filter(|r| r.sec != SecId::Text).collect();
        assert_eq!(kept.relocs.iter().collect::<Vec<_>>(), data_relocs, "`{}`", input.name);
        assert_eq!((&kept.name, &kept.symbols), (&input.name, &input.symbols));
        assert_eq!(kept.lita, input.lita, "`{}`", input.name);
        assert_eq!((&kept.data, &kept.sdata), (&input.data, &input.sdata));
        assert_eq!((kept.sbss_size, kept.bss_size), (input.sbss_size, input.bss_size));
    }
}

/// The addend of a GAT load too wide for a mark.
const WIDE: i64 = 1 << 33;
/// The addends of a GP-relative pair whose halves another linker computed
/// with different addends (OM never writes one).
const HI: i64 = 16;
const LO: i64 = 24;

/// Module `w`: 16 bytes of data named `big`, and a procedure `wide` that
/// loads `big + WIDE` from the GAT (with no use, so no level converts it)
/// and reads `big + LO` through a high half computed for `big + HI`.
fn wide_addends() -> Module {
    let mut b = ModuleBuilder::new("w");
    let off = b.append_data(SecId::Data, &[0; 16]);
    let big = b.add_symbol(Symbol::data("big", SecId::Data, off, 16));
    let lita = b.lita_slot(big, WIDE);
    let start = b.here();
    b.emit_reloc(Inst::ldq(Reg::T0, 0, Reg::GP), RelocKind::Literal { lita });
    let high = RelocKind::GprelHigh { sym: big, addend: HI, gp_group: 0 };
    b.emit_reloc(Inst::ldah(Reg::A0, 0, Reg::GP), high);
    let low = RelocKind::GprelLow { sym: big, addend: LO, hi_addend: HI, gp_group: 0 };
    b.emit_reloc(Inst::ldq(Reg::A1, 0, Reg::A0), low);
    b.emit(Inst::ret());
    b.define_proc("wide", start, 0, Visibility::Exported);
    b.finish().unwrap()
}

/// The 64-bit word at `addr` of the image.
fn word_at(image: &Image, addr: u64) -> u64 {
    let seg = image.segments.iter().find(|s| s.contains(addr)).expect("mapped");
    let at = (addr - seg.base) as usize;
    u64::from_le_bytes(seg.bytes[at..at + 8].try_into().unwrap())
}

/// The displacement field of the memory instruction at `addr`.
fn disp_at(image: &Image, addr: u64) -> i64 {
    match om_alpha::decode(word_at(image, addr) as u32) {
        Ok(Inst::Mem { disp, .. }) => disp as i64,
        other => panic!("{other:?} at {addr:#x} is not a memory instruction"),
    }
}

#[test]
fn wide_and_split_addends_round_trip_at_every_level() {
    let main = compile_source("m", "int main() { return 0; }", &CompileOpts::o2()).unwrap();
    let objects = vec![crt0::module().unwrap(), main, wide_addends()];

    // Translated and emitted back unchanged: the marks hold neither addend
    // inline, so both go through the module's table.
    let modules = select_modules(&objects, &[]).unwrap();
    let program = translate(&modules, &build_symbol_table(&modules).unwrap()).unwrap();
    let w = &program.modules[2];
    for i in &w.procs[0].insts {
        match i.mark {
            SMark::Literal { addend, .. } => assert_eq!(w.addend(addend), WIDE),
            SMark::GprelLo { addend, .. } => {
                assert_eq!((w.addend(addend), w.hi_addend(addend)), (LO, HI));
            }
            SMark::GprelHi { addend, .. } => assert_eq!(addend.inline(), Some(HI)),
            _ => continue,
        }
        let (SMark::Literal { addend, .. } | SMark::GprelLo { addend, .. }) = i.mark else {
            continue;
        };
        assert_eq!(addend.inline(), None, "{:?} holds its addend inline", i.mark);
    }
    let back = emit_all(&program).unwrap();
    assert_eq!((&back[2].relocs, &back[2].lita), (&modules[2].relocs, &modules[2].lita));

    // Linked at every level with the verifier on, the GAT slot and the
    // patched halves hold what `big + addend` gives.
    let options = OmOptions { verify: true, ..OmOptions::default() };
    for level in OmLevel::ALL {
        let (out, art) = optimize_and_link_artifacts(&objects, &[], level, &options)
            .unwrap_or_else(|e| panic!("{}: {e}", level.name()));
        let mi = art.modules.iter().position(|m| m.name == "w").unwrap();
        let big = out.image.symbols["big"] as i64;
        let gp = art.layout.gp_values[art.layout.group_of_module[mi] as usize] as i64;
        let high_half = |x: i64| (x - (x as i16) as i64) >> 16;
        let hi = high_half(big + HI - gp);
        let mut seen = 0;
        for r in art.modules[mi].relocs.iter().filter(|r| r.sec == SecId::Text) {
            let pc = art.layout.bases[mi].text + r.offset;
            let at = format!("{}: {:?}", level.name(), r.kind);
            match r.kind {
                RelocKind::Literal { lita } => {
                    let slot = art.layout.lita_addr[mi][lita as usize];
                    assert_eq!(word_at(&out.image, slot) as i64, big + WIDE, "{at}");
                }
                RelocKind::GprelHigh { .. } => assert_eq!(disp_at(&out.image, pc), hi, "{at}"),
                RelocKind::GprelLow { .. } => {
                    assert_eq!(disp_at(&out.image, pc), big + LO - gp - (hi << 16), "{at}");
                }
                _ => continue,
            }
            seen += 1;
        }
        assert_eq!(seen, 3, "{}", level.name());
    }
}

/// Module `f`: 16 bytes of data named `big`, and a procedure `far` that
/// loads `big + WIDE` from the GAT and reads memory through it, its one
/// base use: a load every transforming level would convert to a
/// `GprelHigh`/`GprelLow` pair if the target were within ±2 GB of GP.
fn far_base_use() -> Module {
    let mut b = ModuleBuilder::new("f");
    let off = b.append_data(SecId::Data, &[0; 16]);
    let big = b.add_symbol(Symbol::data("big", SecId::Data, off, 16));
    let lita = b.lita_slot(big, WIDE);
    let start = b.here();
    let load = b.emit_reloc(Inst::ldq(Reg::T0, 0, Reg::GP), RelocKind::Literal { lita });
    b.emit_reloc(Inst::ldq(Reg::A1, 0, Reg::T0), RelocKind::LituseBase { load_offset: load });
    b.emit(Inst::ret());
    b.define_proc("far", start, 0, Visibility::Exported);
    b.finish().unwrap()
}

#[test]
fn a_base_use_beyond_the_pairs_reach_keeps_its_literal_at_every_level() {
    let main = compile_source("m", "int main() { return 0; }", &CompileOpts::o2()).unwrap();
    let objects = vec![crt0::module().unwrap(), main, far_base_use()];
    om_linker::link_modules(&objects, &[], &Default::default()).expect("the standard link");
    let options = OmOptions { verify: true, ..OmOptions::default() };
    for level in OmLevel::ALL {
        let (out, art) = optimize_and_link_artifacts(&objects, &[], level, &options)
            .unwrap_or_else(|e| panic!("{}: {e}", level.name()));
        let mi = art.modules.iter().position(|m| m.name == "f").unwrap();
        let big = out.image.symbols["big"] as i64;
        let text = art.modules[mi].relocs.iter().filter(|r| r.sec == SecId::Text);
        let kinds: Vec<&RelocKind> = text.map(|r| &r.kind).collect();
        let [RelocKind::Literal { lita }, RelocKind::LituseBase { load_offset: 0 }] = kinds[..]
        else {
            panic!("{}: the load did not stay: {kinds:?}", level.name());
        };
        let slot = art.layout.lita_addr[mi][*lita as usize];
        assert_eq!(word_at(&out.image, slot) as i64, big + WIDE, "{}", level.name());
    }
}

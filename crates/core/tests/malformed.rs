//! Regression tests: malformed or internally-corrupted inputs must surface
//! as typed [`OmError`]s through OM's public entry points, never as panics.
//! A persistent link server (`omd`) reuses this pipeline per request; one
//! bad module must fail its request, not the process.

use om_alpha::{Inst, Reg};
use om_codegen::code::{Anchor, CodeBuffer, Mark};
use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::sym::{emit_all, translate, OmError, SMark};
use om_core::{optimize_and_link, OmLevel};
use om_linker::{build_symbol_table, link_modules, select_modules, LayoutOpts};
use om_objfile::{
    LitaEntry, Module, ModuleBuilder, Reloc, RelocKind, SecId, SymId, Symbol, Visibility,
};

fn compiled(name: &str, src: &str) -> Module {
    compile_source(name, src, &CompileOpts::o2()).unwrap()
}

/// `m` with a `mov` in place of the word its first text relocation of the
/// kind `want` annotates; the relocation stays.
fn mov_over_reloc(mut m: Module, want: fn(&RelocKind) -> bool) -> Module {
    let r = m.relocs.iter().find(|r| r.sec == SecId::Text && want(&r.kind));
    let at = r.expect("a relocation of that kind").offset as usize;
    let word = om_alpha::encode(Inst::mov(Reg::A0, Reg::V0)).to_le_bytes();
    m.text[at..at + 4].copy_from_slice(&word);
    m
}

/// The standard linker links `objects`, and OM rejects them at every level
/// with a typed translation error.
fn om_rejects_at_every_level(objects: &[Module]) {
    link_modules(objects, &[], &LayoutOpts::default()).expect("the standard linker links it");
    for level in OmLevel::ALL {
        let e = optimize_and_link(objects, &[], level).unwrap_err();
        let typed = matches!(e, OmError::BadReloc { .. } | OmError::BadText { .. });
        assert!(typed, "{}: {e}", level.name());
    }
}

#[test]
fn literal_on_a_non_load_is_a_typed_error() {
    let m = compiled("m", "int g; int main() { return g; }");
    let bad = mov_over_reloc(m, |k| matches!(k, RelocKind::Literal { .. }));
    om_rejects_at_every_level(&[crt0::module().unwrap(), bad]);
}

#[test]
fn base_use_on_a_non_memory_instruction_is_a_typed_error() {
    let m = compiled("m", "int g; int main() { return g; }");
    let bad = mov_over_reloc(m, |k| matches!(k, RelocKind::LituseBase { .. }));
    om_rejects_at_every_level(&[crt0::module().unwrap(), bad]);
}

#[test]
fn procedure_not_ending_in_control_is_a_typed_error() {
    // `__start` calls `main` and ends in the GP reset after the call, with
    // no `halt`: OM-full would delete the reset, the procedure's last two
    // instructions.
    let mut c = CodeBuffer::new();
    let lo = c.fresh_id();
    c.push(Inst::ldah(Reg::GP, 0, Reg::PV), Mark::GpdispHi { lo, anchor: Anchor::Entry });
    c.push_with_id(lo, Inst::lda(Reg::GP, 0, Reg::GP), Mark::GpdispLo { hi: 0 });
    let main = Mark::Literal { sym: "main".into(), addend: 0 };
    let load = c.push(Inst::ldq(Reg::PV, 0, Reg::GP), main);
    let jsr = c.push(Inst::jsr(Reg::RA, Reg::PV), Mark::LituseJsr { load });
    let lo = c.fresh_id();
    let reset = Mark::GpdispHi { lo, anchor: Anchor::AfterCall(jsr) };
    let hi = c.push(Inst::ldah(Reg::GP, 0, Reg::RA), reset);
    c.push_with_id(lo, Inst::lda(Reg::GP, 0, Reg::GP), Mark::GpdispLo { hi });
    let mut b = ModuleBuilder::new("start");
    c.finish("__start".into(), Visibility::Exported).fixup_into(&mut b, 0);
    let start = b.finish().unwrap();
    om_rejects_at_every_level(&[start, compiled("m", "int main() { return 7; }")]);
}

#[test]
fn undecodable_text_is_a_typed_error() {
    // All-zero words (PALcode function 0) are not valid encodings;
    // translation must reject the module instead of panicking mid-decode.
    let mut m = Module::new("bad");
    m.text = vec![0; 16];
    m.symbols.push(Symbol::proc("__start", 0, 16, 0));
    let e = optimize_and_link(&[m], &[], OmLevel::Full).unwrap_err();
    assert!(matches!(e, OmError::BadText { .. }), "{e}");
}

#[test]
fn text_not_tiled_by_procedures_is_a_typed_error() {
    // Eight bytes of text, but the only procedure claims four: the
    // remainder belongs to nothing, which OM's conservative translation
    // refuses.
    let mut m = Module::new("gap");
    m.text = vec![0; 8];
    m.symbols.push(Symbol::proc("__start", 0, 4, 0));
    let e = optimize_and_link(&[m], &[], OmLevel::Full).unwrap_err();
    assert!(matches!(e, OmError::BadText { .. }), "{e}");
}

#[test]
fn lituse_crossing_procedures_is_a_typed_error() {
    // A LITUSE pointing at a load outside its own procedure: the link the
    // optimizer would follow dangles.
    let m = compiled(
        "m",
        "int g; int main() { return g; }
         int other(int x) { return x + 1; }",
    );
    let mut bad = m.clone();
    // Retarget the first LITUSE to an offset far past the text.
    let mut tampered = false;
    for r in &mut bad.relocs {
        if let RelocKind::LituseBase { load_offset } = &mut r.kind {
            *load_offset = 1 << 20;
            tampered = true;
            break;
        }
    }
    assert!(tampered, "expected a LituseBase in the compiled module");
    // The tampered lituse no longer points at a Literal, so validation (or
    // translation, whichever sees it first) must reject it with a typed
    // error.
    let objects = [crt0::module().unwrap(), bad];
    let e = optimize_and_link(&objects, &[], OmLevel::Full).unwrap_err();
    assert!(
        matches!(e, OmError::Link(_) | OmError::BadReloc { .. }),
        "{e}"
    );
}

#[test]
fn truncated_patch_field_fails_om_link_too() {
    // The linker-level regression (formerly an out-of-bounds patch panic)
    // must also surface typed through OM's pipeline.
    let mut m = Module::new("m");
    m.text = vec![0; 16];
    m.data = vec![0; 16];
    m.symbols.push(Symbol::proc("__start", 0, 16, 0));
    m.symbols.push(Symbol::data("g", SecId::Data, 0, 8));
    m.lita.push(LitaEntry { sym: SymId(1), addend: 0 });
    m.relocs.push(Reloc::text(14, RelocKind::Gprel16 { sym: SymId(1), addend: 0, gp_group: 0 }));
    let e = optimize_and_link(&[m], &[], OmLevel::Simple).unwrap_err();
    assert!(matches!(e, OmError::Link(_)), "{e}");
}

#[test]
fn dangling_instruction_id_at_emit_is_internal_error_not_panic() {
    // Corrupt a translated program the way a buggy transformation would —
    // a local branch whose target id no longer exists — and emit. The old
    // emit path indexed `off_of[id]` and panicked; it must now report
    // OmError::Internal to the offending request.
    let objects = [
        crt0::module().unwrap(),
        compiled(
            "m",
            "int main() { int i = 0; int s = 0;
               for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }",
        ),
    ];
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let mut program = translate(&modules, &symtab).unwrap();

    let mut corrupted = false;
    'outer: for m in &mut program.modules {
        for p in &mut m.procs {
            for i in &mut p.insts {
                if let SMark::BrLocal { target } = &mut i.mark {
                    *target = 0xDEAD_BEEF;
                    corrupted = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(corrupted, "expected at least one local branch to corrupt");

    let e = emit_all(&program).unwrap_err();
    assert!(matches!(e, OmError::Internal { .. }), "{e}");
    assert!(e.to_string().contains("internal invariant"), "{e}");
}

#[test]
fn dangling_lituse_link_at_emit_is_internal_error_not_panic() {
    let objects = [
        crt0::module().unwrap(),
        compiled("m", "int g; int main() { return g + 1; }"),
    ];
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let mut program = translate(&modules, &symtab).unwrap();

    let mut corrupted = false;
    'outer: for m in &mut program.modules {
        for p in &mut m.procs {
            for i in &mut p.insts {
                if let SMark::LituseBase { load } = &mut i.mark {
                    *load = 0xDEAD_BEEF;
                    corrupted = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(corrupted, "expected at least one LITUSE to corrupt");

    let e = emit_all(&program).unwrap_err();
    assert!(matches!(e, OmError::Internal { .. }), "{e}");
}

#[test]
fn unwritable_output_path_exits_1_without_panic() {
    // `om` links fine but cannot create its output inside a missing
    // directory: a clean diagnostic and exit code 1, not an unwrap panic.
    let dir = std::env::temp_dir().join(format!("om-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut objs = Vec::new();
    for (name, m) in [
        ("crt0.o", crt0::module().unwrap()),
        ("m.o", compiled("m", "int main() { return 7; }")),
    ] {
        let p = dir.join(name);
        std::fs::write(&p, om_objfile::binary::write_module(&m)).unwrap();
        objs.push(p);
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_om"))
        .arg("-o")
        .arg(dir.join("missing").join("a.exe"))
        .args(&objs)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("om: cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

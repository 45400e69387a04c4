//! The LITUSE completeness contract: OM's nullification rewrites every use
//! of an address load, so it is only sound if the compiler's LITUSE records
//! are complete — every instruction consuming an address-load result either
//! carries a LITUSE mark or the load is self-marked escaping.
//!
//! This test verifies the contract over real compiled workloads by register
//! dataflow: walk each procedure, track which registers currently hold an
//! address-load result, and demand that any reader is marked.

use om_alpha::{Effects, Reg};
use om_core::analysis::use_index;
use om_core::sym::{translate, SMark};
use om_linker::{build_symbol_table, select_modules};
use om_workloads::build::{build, CompileMode};
use om_workloads::spec;

#[test]
fn every_address_load_use_is_marked() {
    for name in ["compress", "spice", "tomcatv"] {
        let s = spec::quick(&spec::by_name(name).unwrap());
        let built = build(&s, CompileMode::Each).unwrap();
        let mut objects = built.objects.clone();
        for lib in built.libs.iter() {
            for m in lib.members() {
                objects.push(m.clone());
            }
        }
        let modules = select_modules(&objects, &[]).unwrap();
        let symtab = build_symbol_table(&modules).unwrap();
        let program = translate(&modules, &symtab).unwrap();

        for m in &program.modules {
            for p in &m.procs {
                let uses = use_index(p);
                // reg -> id of the load whose result it currently holds.
                let mut holds: [Option<u32>; 32] = [None; 32];
                for (k, i) in p.insts.iter().enumerate() {
                    let e = Effects::of(&i.inst);
                    // Check reads of tracked registers.
                    for r in 0..31u8 {
                        if e.int_uses & (1 << r) == 0 {
                            continue;
                        }
                        let Some(load) = holds[r as usize] else { continue };
                        let marked = matches!(
                            i.mark,
                            SMark::LituseBase { load: l }
                            | SMark::LituseJsr { load: l }
                            | SMark::LituseAddr { load: l } if l == load
                        );
                        let load_escapes = p
                            .insts
                            .iter()
                            .find(|x| x.id == load)
                            .map(|x| matches!(x.mark, SMark::Literal { escaping: true, .. }))
                            .unwrap_or(false);
                        assert!(
                            marked || load_escapes,
                            "{name}/{}: instruction {} ({}) reads r{r} holding load {} without a LITUSE",
                            m.proc_name(p),
                            k,
                            i.inst,
                            load
                        );
                    }
                    // Update tracking: defs overwrite; address loads start.
                    for r in 0..31u8 {
                        if e.int_defs & (1 << r) != 0 {
                            holds[r as usize] = None;
                        }
                    }
                    if let SMark::Literal { .. } = i.mark {
                        let rd = om_core::analysis::load_dest(i);
                        if !rd.is_zero() {
                            holds[rd.number() as usize] = Some(i.id);
                        }
                    }
                    // Control transfers invalidate straight-line tracking
                    // (values may flow around, but our codegen never carries
                    // address-load results across block boundaries through
                    // scratch registers; clearing keeps the check sound).
                    if e.control {
                        holds = [None; 32];
                    }
                }
                let _ = uses;
                let _ = Reg::ZERO;
            }
        }
    }
}

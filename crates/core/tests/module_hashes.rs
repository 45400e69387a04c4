//! The batch digest equals `module_hash` module by module on real programs:
//! the 19 quick workloads in both compile modes (their objects, then the
//! stdlib's members as one more batch, as a link miss hashes them) and a
//! 16-module scale program. The lane kernel runs wherever the CPU has AVX2;
//! `hash.rs`'s unit tests drive both kernels on every message length.

use om_core::{module_hash, module_hashes};
use om_objfile::Module;
use om_workloads::scale::{build_scale, scale_spec};
use om_workloads::{build::build, spec, CompileMode};

fn check<M: std::borrow::Borrow<Module>>(name: &str, modules: &[M]) {
    let want: Vec<_> = modules.iter().map(|m| module_hash(m.borrow())).collect();
    assert_eq!(module_hashes(modules), want, "{name}");
}

#[test]
fn batch_equals_module_hash_on_the_quick_workloads() {
    for mode in [CompileMode::Each, CompileMode::All] {
        for s in spec::all() {
            let b = build(&spec::quick(&s), mode).expect("build");
            check(&b.name, &b.objects);
            let members: Vec<&Module> = b.libs.iter().flat_map(|a| a.members()).collect();
            check(&format!("{} stdlib", b.name), &members);
        }
    }
}

#[test]
fn batch_equals_module_hash_at_scale() {
    let b = build_scale(&scale_spec(16), CompileMode::Each).expect("build");
    assert_eq!(b.objects.len(), 18, "crt0, 16 modules and the main module");
    check("scale16", &b.objects);
}

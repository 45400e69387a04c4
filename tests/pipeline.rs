//! Cross-crate integration tests: the full toolchain path including the
//! on-disk object format, archives, and every link flavor.

use om_repro::codegen::{compile_source, crt0, CompileOpts};
use om_repro::core::{optimize_and_link, OmLevel};
use om_repro::linker::{link_modules, LayoutOpts};
use om_repro::minic;
use om_repro::objfile::{binary, Archive};
use om_repro::sim::run_image;

const PROGRAM: &[(&str, &str)] = &[
    (
        "main",
        "extern int poly(int); extern int mean_of(int, int);
         int history[16];
         int main() {
           int i = 0;
           for (i = 0; i < 16; i = i + 1) { history[i] = poly(i); }
           int s = 0;
           for (i = 0; i < 16; i = i + 1) { s = s + history[i]; }
           return mean_of(s, 16);
         }",
    ),
    (
        "mathlib",
        "static int sq(int x) { return x * x; }
         int poly(int x) { return sq(x) * 2 - 3 * x + 11; }
         int mean_of(int total, int n) {
           int acc = 0;
           int k = 0;
           for (k = 0; k < n; k = k + 1) { acc = acc + total; }
           return acc / (n * n);
         }
         int __divq(int a, int b) {
           if (b == 0) { return 0; }
           int neg = 0;
           if (a < 0) { a = 0 - a; neg = 1 - neg; }
           if (b < 0) { b = 0 - b; neg = 1 - neg; }
           int q = 0;
           int r = 0;
           int i = 62;
           for (i = 62; i >= 0; i = i - 1) {
             r = (r << 1) | ((a >> i) & 1);
             if (r >= b) { r = r - b; q = q + (1 << i); }
           }
           if (neg) { return 0 - q; }
           return q;
         }",
    ),
];

fn interp_result() -> i64 {
    minic::interp::run_sources(PROGRAM, 10_000_000).unwrap()
}

#[test]
fn objects_survive_the_on_disk_format_mid_pipeline() {
    // Compile, serialize every object to bytes, read back, then link and run:
    // the binary object format is a faithful interchange format.
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module().unwrap()];
    for (n, s) in PROGRAM {
        objects.push(compile_source(n, s, &opts).unwrap());
    }
    let reread: Vec<_> = objects
        .iter()
        .map(|m| binary::read_module(&binary::write_module(m)).unwrap())
        .collect();
    assert_eq!(objects, reread);

    let (image, _) = link_modules(&reread, &[], &LayoutOpts::default()).unwrap();
    assert_eq!(run_image(&image, 10_000_000).unwrap().result, interp_result());
}

#[test]
fn archives_survive_the_on_disk_format() {
    let opts = CompileOpts::o2();
    let mut ar = Archive::new("libmath");
    ar.add(compile_source("mathlib", PROGRAM[1].1, &opts).unwrap()).unwrap();
    let ar = binary::read_archive(&binary::write_archive(&ar)).unwrap();

    let objects = [crt0::module().unwrap(), compile_source("main", PROGRAM[0].1, &opts).unwrap()];
    let (image, stats) = link_modules(&objects, &[ar], &LayoutOpts::default()).unwrap();
    assert_eq!(stats.modules, 3);
    assert_eq!(run_image(&image, 10_000_000).unwrap().result, interp_result());
}

#[test]
fn om_none_is_a_faithful_passthrough() {
    // OmLevel::None translates to symbolic form and back without transforming:
    // the program must behave identically and retire the same instruction
    // count as the standard link.
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module().unwrap()];
    for (n, s) in PROGRAM {
        objects.push(compile_source(n, s, &opts).unwrap());
    }
    let (std_image, _) = link_modules(&objects, &[], &LayoutOpts::default()).unwrap();
    let std_run = run_image(&std_image, 10_000_000).unwrap();

    let out = optimize_and_link(&objects, &[], OmLevel::None).unwrap();
    let om_run = run_image(&out.image, 10_000_000).unwrap();
    assert_eq!(om_run.result, std_run.result);
    assert_eq!(om_run.insts, std_run.insts, "pass-through must not change code");
    assert_eq!(out.stats.insts_nullified, 0);
    assert_eq!(out.stats.insts_deleted, 0);
}

#[test]
fn every_om_level_matches_the_interpreter() {
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module().unwrap()];
    for (n, s) in PROGRAM {
        objects.push(compile_source(n, s, &opts).unwrap());
    }
    let expected = interp_result();
    for level in [OmLevel::None, OmLevel::Simple, OmLevel::Full, OmLevel::FullSched] {
        let out = optimize_and_link(&objects, &[], level).unwrap();
        let r = run_image(&out.image, 10_000_000).unwrap();
        assert_eq!(r.result, expected, "{}", level.name());
    }
}

#[test]
fn om_outputs_are_deterministic() {
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module().unwrap()];
    for (n, s) in PROGRAM {
        objects.push(compile_source(n, s, &opts).unwrap());
    }
    let a = optimize_and_link(&objects, &[], OmLevel::Full).unwrap();
    let b = optimize_and_link(&objects, &[], OmLevel::Full).unwrap();
    assert_eq!(a.image.segments[0].bytes, b.image.segments[0].bytes);
    assert_eq!(a.image.segments[1].bytes, b.image.segments[1].bytes);
    assert_eq!(a.stats, b.stats);
}

//! The parallel harness must be invisible in the output: any `--jobs` width
//! produces byte-identical rendered figures and `--json` report, and the
//! memoized pipeline must not change simulated checksums.

use om_bench::figures::{self, BenchRows, FIGURES};
use om_bench::{json, mutate, parallel_map, render, Prepared};
use om_workloads::build::CompileMode;
use om_workloads::{spec, BenchSpec};

const BENCHES: [&str; 3] = ["compress", "li", "ora"];

fn quick_specs() -> Vec<BenchSpec> {
    BENCHES
        .iter()
        .map(|n| spec::quick(&spec::by_name(n).unwrap()))
        .collect()
}

/// Renders every figure of the parallel pass plus a one-seed slice of the
/// mutants figure, and the JSON report, from one harness pass at the given
/// width (fig7 is wall-clock timing; fleet and scale have tests of their
/// own).
fn run_at(jobs: usize) -> (String, Vec<i64>) {
    let specs = quick_specs();
    let prepared: Vec<Prepared> = parallel_map(jobs, &specs, Prepared::new);
    let mut rows = parallel_map(jobs, &prepared, |p| figures::measure(p, &FIGURES));
    let card = mutate::scorecard(mutate::run_campaign(&[3], 1, jobs).expect("corpus seed 3"));

    let mut out = String::new();
    macro_rules! rows_of {
        ($field:ident) => {
            rows.iter()
                .filter_map(|r| r.$field.map(|x| (r.name.clone(), x)))
                .collect::<Vec<_>>()
        };
    }
    out.push_str(&render::fig3(&rows_of!(fig3)));
    out.push_str(&render::fig4(&rows_of!(fig4)));
    out.push_str(&render::fig5(&rows_of!(fig5)));
    out.push_str(&render::fig6(&rows_of!(fig6)));
    out.push_str(&render::gat(&rows_of!(gat)));
    out.push_str(&render::pgo(&rows_of!(pgo)));
    out.push_str(&render::passes(&rows_of!(passes)));
    out.push_str(&render::ablations(&rows_of!(ablations)));
    out.push_str(&render::mutants(&card));
    rows.push(BenchRows { name: "mutants".into(), mutants: Some(card), ..BenchRows::default() });
    out.push_str(&json::report(&rows, true));

    let checksums = prepared
        .iter()
        .flat_map(|p| {
            CompileMode::ALL.iter().map(|&m| p.run_standard(m).0).collect::<Vec<_>>()
        })
        .collect();
    (out, checksums)
}

/// Repeated in-process builds and links must produce identical object code
/// and images. This pins the regalloc interval sort and any other place
/// where hash-map iteration order could leak into emitted code (stats can
/// stay stable while register choice and therefore cycle counts wobble).
#[test]
fn every_pipeline_stage_is_deterministic_in_process() {
    use om_core::{optimize_and_link, OmLevel};
    use om_linker::{link_modules, LayoutOpts};
    use om_workloads::build::build;

    let s = spec::quick(&spec::by_name("li").unwrap());
    let b1 = build(&s, CompileMode::All).unwrap();
    let b2 = build(&s, CompileMode::All).unwrap();
    assert_eq!(b1.objects.len(), b2.objects.len());
    for (i, (a, b)) in b1.objects.iter().zip(&b2.objects).enumerate() {
        assert_eq!(a, b, "object {i} differs between two builds");
    }

    let (i1, _) = link_modules(&b1.objects, &b1.libs, &LayoutOpts::default()).unwrap();
    let (i2, _) = link_modules(&b1.objects, &b1.libs, &LayoutOpts::default()).unwrap();
    assert_eq!(i1.segments.len(), i2.segments.len());
    for (si, (sa, sb)) in i1.segments.iter().zip(&i2.segments).enumerate() {
        assert_eq!(sa.bytes, sb.bytes, "standard-link segment {si} differs");
    }

    for level in OmLevel::ALL {
        let a = optimize_and_link(&b1.objects, &b1.libs, level).unwrap();
        let b = optimize_and_link(&b1.objects, &b1.libs, level).unwrap();
        for (si, (sa, sb)) in a.image.segments.iter().zip(&b.image.segments).enumerate() {
            assert_eq!(sa.bytes, sb.bytes, "OM {} segment {si} differs", level.name());
        }
    }
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let (seq, seq_sums) = run_at(1);
    let (par, par_sums) = run_at(4);
    assert!(!seq.is_empty());
    assert_eq!(seq, par, "rendered figures must not depend on --jobs");
    assert_eq!(seq_sums, par_sums, "checksums must not depend on --jobs");
}

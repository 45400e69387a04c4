//! The parallel harness must be invisible in the output: any `--jobs` width
//! produces byte-identical rendered figures and `--json` report, and the
//! memoized pipeline must not change simulated checksums. The rows also
//! equal the committed baseline's, so a change in how a figure builds its
//! fields fails here and not only in `scripts/bench.sh`.

use om_bench::figures::{self, figure, Measure, Run, FIGURES};
use om_bench::{json, parallel_map, render, Prepared};
use om_obs::json::JsonValue;
use om_workloads::build::CompileMode;
use om_workloads::{spec, BenchSpec};

const BENCHES: [&str; 3] = ["compress", "li", "ora"];

fn quick_specs() -> Vec<BenchSpec> {
    BENCHES
        .iter()
        .map(|n| spec::quick(&spec::by_name(n).unwrap()))
        .collect()
}

/// Renders every figure of the parallel pass, the pass `--jobs` fans out,
/// then the JSON report, from one harness pass at the given width. The
/// other figures run one benchmark or program at a time; `scripts/ci.sh`
/// compares the whole quick run at two widths.
fn run_at(jobs: usize) -> (String, Vec<i64>) {
    let specs = quick_specs();
    let prepared: Vec<Prepared> = parallel_map(jobs, &specs, Prepared::new);
    let which: Vec<&str> = FIGURES
        .iter()
        .filter(|f| matches!(f.measure, Measure::Parallel(_)))
        .map(|f| f.name)
        .collect();
    let entries = figures::measure(&prepared, &which, &Run { quick: true, jobs });
    let mut out = String::new();
    for fig in &which {
        let rows = figures::rows_of(&entries, fig);
        out.push_str(&render::print(&figure(fig).expect("a figure").print, &rows));
    }
    out.push_str(&json::report(&entries, true));

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

fn rows(doc: &JsonValue) -> &[JsonValue] {
    doc.get("rows").and_then(JsonValue::as_arr).unwrap_or_default()
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let (seq, seq_sums) = run_at(1);
    let (par, par_sums) = run_at(4);
    assert!(!seq.is_empty());
    assert_eq!(seq, par, "rendered figures must not depend on --jobs");
    assert_eq!(seq_sums, par_sums, "checksums must not depend on --jobs");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let parse = |text: &str| om_obs::json::parse(text).expect("a report");
    let base = parse(&std::fs::read_to_string(path).expect("BENCH_baseline.json"));
    let run = parse(&seq[seq.find("{\n  \"schema\"").expect("the report")..]);
    let key = |row: &JsonValue| (row.get("fig").cloned(), row.get("bench").cloned());
    let base_rows = rows(&base);
    assert!(!rows(&run).is_empty());
    for row in rows(&run) {
        let want = base_rows.iter().find(|b| key(b) == key(row));
        assert_eq!(want, Some(row), "the committed baseline's row");
    }
}

//! Acceptance tests for pipeline observability: every enabled pass appears
//! as a span, per-pass counter deltas reconcile exactly with the OmStats
//! totals, tracing never changes the linked image, and the relink cache
//! reports deterministic hit/miss/coalesce counters.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::obs::reconcile;
use om_core::{
    optimize_and_link_cached, optimize_and_link_with, OmCaches, OmLevel, OmOptions, OmOutput,
    Profile,
};
use om_obs::Trace;
use om_objfile::Module;

/// A program with calls, globals, and loops — enough to exercise every
/// transformation (JSR→BSR, address-load conversion/nullification, nop
/// deletion, rescheduling alignment).
fn objects(tag: &str) -> Vec<Module> {
    let opts = CompileOpts::o2();
    vec![
        crt0::module().unwrap(),
        compile_source(
            &format!("tr_main_{tag}"),
            "extern int twist(int);
             int acc; int bias;
             int main() { int i = 0;
                for (i = 0; i < 9; i = i + 1) { acc = acc + twist(i) + bias; }
                return acc; }",
            &opts,
        )
        .unwrap(),
        compile_source(
            &format!("tr_help_{tag}"),
            "int bias;
             int twist(int x) { int j = 0;
                while (j < x) { j = j + 2; }
                return x + j + bias; }",
            &opts,
        )
        .unwrap(),
    ]
}

/// Runs one uncached link under a fresh trace, returning the output and the
/// trace.
fn traced_link(objs: &[Module], level: OmLevel, options: &OmOptions) -> (OmOutput, Trace) {
    let trace = Trace::new();
    let out = {
        let _g = trace.install();
        optimize_and_link_with(objs, &[], level, options).unwrap()
    };
    (out, trace)
}

#[test]
fn every_enabled_pass_has_a_span() {
    let objs = objects("spans");
    let (_, trace) = traced_link(&objs, OmLevel::FullSched, &OmOptions::default());
    let names: Vec<String> = trace.sink().spans.iter().map(|s| s.name.clone()).collect();
    for want in [
        "pipeline",
        "select",
        "pass.translate",
        "pass.resolve",
        "pass.calls",
        "pass.convert",
        "pass.nullify",
        "pass.resched",
        "emit",
        "link",
    ] {
        assert!(names.iter().any(|n| n == want), "missing span `{want}` in {names:?}");
    }
    // OM-simple has no nullify/resched pass; the span set reflects that.
    let (_, simple) = traced_link(&objs, OmLevel::Simple, &OmOptions::default());
    let simple_names: Vec<String> =
        simple.sink().spans.iter().map(|s| s.name.clone()).collect();
    assert!(simple_names.iter().any(|n| n == "pass.convert"));
    assert!(!simple_names.iter().any(|n| n == "pass.nullify"));
    assert!(!simple_names.iter().any(|n| n == "pass.resched"));
}

#[test]
fn emitted_trace_json_is_valid_and_nests() {
    let objs = objects("json");
    let (_, trace) = traced_link(&objs, OmLevel::Full, &OmOptions::default());
    let json = trace.chrome_json("om-test");
    let names = om_obs::validate_chrome_trace(&json).expect("trace must validate");
    assert!(names.iter().any(|n| n == "pipeline"));
    // Every pass span nests strictly inside the pipeline span.
    let sink = trace.sink();
    let pipeline = sink.spans.iter().find(|s| s.name == "pipeline").unwrap();
    for s in sink.spans.iter().filter(|s| s.name.starts_with("pass.")) {
        assert!(s.start_ns >= pipeline.start_ns, "{} starts before pipeline", s.name);
        assert!(
            s.start_ns + s.dur_ns <= pipeline.start_ns + pipeline.dur_ns,
            "{} ends after pipeline",
            s.name
        );
        assert!(s.depth > pipeline.depth);
    }
}

#[test]
fn pass_deltas_reconcile_with_stats_at_every_level() {
    let objs = objects("recon");
    for level in [OmLevel::None, OmLevel::Simple, OmLevel::Full, OmLevel::FullSched] {
        let (out, trace) = traced_link(&objs, level, &OmOptions::default());
        let sums = reconcile(&trace.counters(), &out.stats)
            .unwrap_or_else(|e| panic!("{}: {e}", level.name()));
        if level == OmLevel::Full || level == OmLevel::FullSched {
            // OM-full deletes code; the signed sums must show it.
            assert!(sums["insts_deleted"] > 0, "{}: {sums:?}", level.name());
        }
    }
}

#[test]
fn pass_deltas_reconcile_under_pgo() {
    let objs = objects("pgo");
    // Profile a real run of the FullSched image, then relink with it.
    let (base, _) = traced_link(&objs, OmLevel::FullSched, &OmOptions::default());
    let (_, profile): (_, Profile) = om_sim::run_profiled_fast(&base.image, 1_000_000).unwrap();
    let options = OmOptions { profile: Some(profile), ..OmOptions::default() };
    let (out, trace) = traced_link(&objs, OmLevel::FullSched, &options);
    let counters = trace.counters();
    assert!(
        counters.keys().any(|k| k.starts_with("pass.pgo.")),
        "PGO pass left no counters: {counters:?}"
    );
    reconcile(&counters, &out.stats).unwrap();
}

#[test]
fn tracing_changes_no_image_byte() {
    let objs = objects("bytes");
    for level in [OmLevel::Simple, OmLevel::Full, OmLevel::FullSched] {
        let plain = optimize_and_link_with(&objs, &[], level, &OmOptions::default()).unwrap();
        let (traced, trace) = traced_link(&objs, level, &OmOptions::default());
        assert_eq!(
            plain.image.to_bytes(),
            traced.image.to_bytes(),
            "{}: tracing altered the image",
            level.name()
        );
        assert_eq!(plain.stats, traced.stats);
        // The linker's recorded segment size matches the real image's.
        assert_eq!(
            trace.counters().get("link.segment_bytes"),
            Some(&(plain.image.segments.iter().map(|s| s.bytes.len()).sum::<usize>() as u64))
        );
    }
}

#[test]
fn cache_counters_report_hits_and_misses() {
    let objs = objects("cache");
    let caches = OmCaches::new(64, 16);
    let options = OmOptions::default();
    let trace = Trace::new();
    {
        let _g = trace.install();
        let (_, hit) =
            optimize_and_link_cached(&objs, &[], OmLevel::Full, &options, &caches).unwrap();
        assert!(!hit);
        let (_, hit) =
            optimize_and_link_cached(&objs, &[], OmLevel::Full, &options, &caches).unwrap();
        assert!(hit);
    }
    let counters = trace.counters();
    assert_eq!(counters.get("cache.links.miss"), Some(&1));
    assert_eq!(counters.get("cache.links.hit"), Some(&1));
    // The cold link translated each of the three modules through the module
    // cache; the warm link never reached translation.
    assert_eq!(counters.get("cache.modules.miss"), Some(&(objs.len() as u64)));
    // Counter state agrees with the cache's own accounting.
    assert_eq!(counters.get("cache.links.miss"), Some(&caches.links.stats().misses));
    assert_eq!(counters.get("cache.links.hit"), Some(&caches.links.stats().hits));
}

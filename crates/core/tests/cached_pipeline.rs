//! Counter tests of the cached pipeline entry points, mirroring the
//! `pipeline_runs()` memoization tests in `om-bench`: cache hits must skip
//! the pipeline entirely, and a single-module edit must invalidate exactly
//! that module's translation entry.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::{
    archive_hash, optimize_and_link, optimize_and_link_keyed, OmCaches, OmLevel, OmOptions,
};
use om_objfile::Module;
use om_workloads::build::CompileMode;
use om_workloads::scale::{build_scale, ScaleSpec};

/// A debug-friendly scale workload: the full `--scale` program shape
/// (per-module accessor/chain/entry procedures, cross-module calls, one
/// driver) at a size tier-1 tests can afford. The 1000-module proof runs in
/// release via `reproduce scale`.
fn small_scale_spec() -> ScaleSpec {
    ScaleSpec {
        name: "scale_cachetest".to_string(),
        modules: 12,
        procs_per_module: 6,
        globals_per_module: 4,
        iters: 1,
    }
}

fn program(tag: &str, helper_body: &str) -> Vec<Module> {
    let opts = CompileOpts::o2();
    vec![
        crt0::module().unwrap(),
        compile_source(
            &format!("main_{tag}"),
            "extern int helper(int);
             int acc;
             int main() { int i = 0;
                for (i = 0; i < 4; i = i + 1) { acc = acc + helper(i); }
                return acc; }",
            &opts,
        )
        .unwrap(),
        compile_source(&format!("helper_{tag}"), helper_body, &opts).unwrap(),
    ]
}

#[test]
fn link_cache_hits_skip_the_pipeline() {
    // Unique sources so this test's keys cannot collide with other tests
    // sharing the process (mirrors the memoize.rs convention). Runs are
    // counted on this thread's trace, not by the process-wide
    // `pipeline_runs()`, which also counts the links of the tests running
    // beside this one.
    let objects = program("skip", "int helper(int x) { return x + 7; }");
    let caches = OmCaches::default();
    let options = OmOptions::default();
    let trace = om_obs::Trace::new();
    let _on = trace.install();
    let runs = || trace.counters().get("pipeline.runs").copied().unwrap_or(0);

    let (first, hit1) =
        optimize_and_link_keyed(&objects, &[], &[], OmLevel::Full, &options, &caches).unwrap();
    assert!(!hit1);
    assert_eq!(runs(), 1, "a cold link runs the pipeline once");

    let (second, hit2) =
        optimize_and_link_keyed(&objects, &[], &[], OmLevel::Full, &options, &caches).unwrap();
    assert!(hit2);
    assert_eq!(runs(), 1, "a link-cache hit must not re-run the pipeline");
    assert_eq!(first.image.to_bytes(), second.image.to_bytes());

    // A different level is a different key: the pipeline runs again.
    let (_, hit3) =
        optimize_and_link_keyed(&objects, &[], &[], OmLevel::Simple, &options, &caches).unwrap();
    assert!(!hit3);
    assert_eq!(runs(), 2);
}

#[test]
fn single_module_edit_invalidates_exactly_one_translation() {
    let caches = OmCaches::default();
    let options = OmOptions::default();

    let before = program("edit", "int helper(int x) { return x * 5; }");
    optimize_and_link_keyed(&before, &[], &[], OmLevel::Full, &options, &caches).unwrap();
    let base = caches.modules.stats();
    assert_eq!(base.misses, 3, "cold link translates each of the three modules once");
    assert_eq!(base.hits, 0);

    let after = program("edit", "int helper(int x) { return x * 6; }");
    let (out, hit) =
        optimize_and_link_keyed(&after, &[], &[], OmLevel::Full, &options, &caches).unwrap();
    assert!(!hit, "an edited module changes the link key");
    let now = caches.modules.stats();
    assert_eq!(now.misses - base.misses, 1, "only the edited module re-translates");
    assert_eq!(now.hits - base.hits, 2, "the unchanged modules are served from cache");

    let run = om_sim::run_image(&out.image, 1_000_000).unwrap();
    assert_eq!(run.result, (0..4).map(|i| i * 6).sum::<i64>());
}

#[test]
fn identical_requests_share_one_translation_per_module() {
    let caches = OmCaches::default();
    let options = OmOptions::default();
    let objects = program("share", "int helper(int x) { return x - 1; }");

    // Two different levels share the module cache even though their link
    // keys differ: per-module translation happens once per content hash.
    optimize_and_link_keyed(&objects, &[], &[], OmLevel::Simple, &options, &caches).unwrap();
    optimize_and_link_keyed(&objects, &[], &[], OmLevel::FullSched, &options, &caches).unwrap();
    let stats = caches.modules.stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 3, "the second level re-uses all three translations");
}

#[test]
fn scale_workload_edit_invalidates_one_of_many_modules() {
    // The `--scale` shape, sized for a debug run: a single-module edit on a
    // many-module program must recompute exactly that module — the property
    // every `reproduce scale` point pins as `edit_module_misses == 1`.
    let b = build_scale(&small_scale_spec(), CompileMode::Each).unwrap();
    let lib_hashes: Vec<_> = b.libs.iter().map(archive_hash).collect();
    let caches = OmCaches::default();
    let options = OmOptions::default();

    optimize_and_link_keyed(&b.objects, &b.libs, &lib_hashes, OmLevel::Full, &options, &caches)
        .unwrap();
    let cold = caches.modules.stats();
    assert!(
        cold.misses as usize >= b.objects.len(),
        "cold link translates every module (user objects + library members)"
    );
    assert_eq!(cold.hits, 0);

    let mut edited = b.objects.clone();
    let idx = edited.len() / 2;
    edited[idx].data.extend_from_slice(&[9; 8]);
    let (out, hit) =
        optimize_and_link_keyed(&edited, &b.libs, &lib_hashes, OmLevel::Full, &options, &caches)
            .unwrap();
    assert!(!hit, "an edited module changes the link key");
    let warm = caches.modules.stats();
    assert_eq!(warm.misses - cold.misses, 1, "only the edited module re-translates");
    assert_eq!(
        warm.hits - cold.hits,
        cold.misses - 1,
        "every other module (including library members) is served from cache"
    );

    // The served image is the *edited* program, identical to an uncached run.
    let fresh = optimize_and_link(&edited, &b.libs, OmLevel::Full).unwrap();
    assert_eq!(out.image.to_bytes(), fresh.image.to_bytes());
}

#[test]
fn scale_workload_eviction_stays_bounded_and_correct() {
    // A module cache far smaller than the link: it must respect its
    // capacity, evict under pressure, and still serve a byte-identical
    // image — eviction is a performance event, never a correctness one.
    let b = build_scale(&small_scale_spec(), CompileMode::Each).unwrap();
    let lib_hashes: Vec<_> = b.libs.iter().map(archive_hash).collect();
    let cap = 4;
    let caches = OmCaches::new(cap, 2);
    let options = OmOptions::default();

    let (out, _) =
        optimize_and_link_keyed(&b.objects, &b.libs, &lib_hashes, OmLevel::Full, &options, &caches)
            .unwrap();
    let stats = caches.modules.stats();
    assert!(caches.modules.len() <= cap, "cache grew past its bound: {}", caches.modules.len());
    assert!(stats.evictions > 0, "a {}-module link must overflow a {cap}-entry cache", b.objects.len());

    let fresh = optimize_and_link(&b.objects, &b.libs, OmLevel::Full).unwrap();
    assert_eq!(
        out.image.to_bytes(),
        fresh.image.to_bytes(),
        "evictions must never change the served image"
    );
}

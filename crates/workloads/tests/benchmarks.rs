//! Every generated benchmark must be a valid mini-C program, terminate in
//! the reference interpreter, and (sampled, for test speed) produce the
//! interpreter's checksum through the full pipeline at every OM level and in
//! both compile modes.

use om_core::{optimize_and_link, OmLevel};
use om_linker::{link_modules, LayoutOpts};
use om_sim::run_image;
use om_workloads::build::{build, interp_reference, sources, CompileMode};
use om_workloads::spec;

const INTERP_STEPS: u64 = 200_000_000;
const SIM_STEPS: u64 = 80_000_000;

#[test]
fn all_benchmarks_generate_valid_programs() {
    for s in spec::all() {
        let q = spec::quick(&s);
        for (name, src) in sources(&q) {
            let unit = om_minic::parse_unit(&name, &src)
                .unwrap_or_else(|e| panic!("{}/{name}: {e}\n{src}", s.name));
            om_minic::check_unit(&unit).unwrap_or_else(|e| panic!("{}/{name}: {e}", s.name));
        }
    }
}

#[test]
fn all_benchmarks_terminate_in_the_interpreter() {
    for s in spec::all() {
        let q = spec::quick(&s);
        let r = interp_reference(&q, INTERP_STEPS)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        // Checksums are nontrivial and deterministic.
        let r2 = interp_reference(&q, INTERP_STEPS).unwrap();
        assert_eq!(r, r2, "{}", s.name);
    }
}

#[test]
fn generation_is_deterministic() {
    for s in [spec::by_name("spice").unwrap(), spec::by_name("li").unwrap()] {
        assert_eq!(sources(&s), sources(&s));
    }
}

/// The full pipeline oracle on a sample of benchmarks (the whole suite runs
/// in the benchmark harness; here a cross-section keeps `cargo test` fast).
#[test]
fn sampled_benchmarks_agree_across_all_build_variants() {
    for name in ["compress", "li", "spice", "tomcatv"] {
        let s = spec::quick(&spec::by_name(name).unwrap());
        let expected = interp_reference(&s, INTERP_STEPS).unwrap();

        for mode in [CompileMode::Each, CompileMode::All] {
            let built = build(&s, mode).unwrap();

            // Standard link.
            let (image, _) = link_modules(&built.objects, &built.libs, &LayoutOpts::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let r = run_image(&image, SIM_STEPS).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(r.result, expected, "{name} {} standard link", mode.name());

            // All OM levels.
            for level in [OmLevel::None, OmLevel::Simple, OmLevel::Full, OmLevel::FullSched] {
                let out = optimize_and_link(&built.objects, &built.libs, level)
                    .unwrap_or_else(|e| panic!("{name} {} {}: {e}", mode.name(), level.name()));
                let r = run_image(&out.image, SIM_STEPS)
                    .unwrap_or_else(|e| panic!("{name} {} {}: {e}", mode.name(), level.name()));
                assert_eq!(
                    r.result,
                    expected,
                    "{name} {} {}",
                    mode.name(),
                    level.name()
                );
            }
        }
    }
}

#[test]
fn workload_shapes_exercise_the_paper_features() {
    // The generated programs must actually contain the constructs whose
    // optimization the paper measures.
    let s = spec::quick(&spec::by_name("li").unwrap());
    let built = build(&s, CompileMode::Each).unwrap();
    let out = optimize_and_link(&built.objects, &built.libs, OmLevel::Full).unwrap();
    let st = out.stats;
    assert!(st.addr_loads_total > 50, "{st:?}");
    assert!(st.calls_total > 20, "{st:?}");
    assert!(st.calls_indirect > 0, "li uses procedure variables: {st:?}");
    assert!(st.gat_slots_before > 20, "{st:?}");
}

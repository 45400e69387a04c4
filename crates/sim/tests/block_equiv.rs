//! Block-engine equivalence battery: the block-cached fast path must be
//! **byte-identical** to the reference per-instruction interpreter — same
//! checksums, same retired-instruction counts, same output, same
//! `TimingStats` (cycles, dual issues, cache misses, nops, loads), same
//! profile JSON — across the full 19-workload × (mode × level) grid plus
//! the profile-guided relink, on a 10-module `--scale` program whose result
//! must also equal the mini-C interpreter's, and on the nine hand-traced
//! exact-cycle cases from `timing_model.rs`.
//!
//! The grid is split by OM level into separate `#[test]` functions so the
//! harness runs them in parallel.

use om_alpha::{encode_all, BrOp, Inst, Operand, OprOp, PalOp, Reg};
use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_linker::{Image, LayoutInfo, Segment};
use om_sim::{
    run_image, run_timed_profiled_fast, ExecError, Machine, Observer, Pipeline, ProfileObserver,
    Retired, RunResult, Tee,
};
use om_workloads::scale::{build_scale, interp_reference_scale, ScaleSpec};
use om_workloads::{build::build, spec, CompileMode};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Simulator instruction budget per run (quick-spec workloads are small).
const SIM_STEPS: u64 = 200_000_000;

/// Runs one image on both engines and asserts byte-identical results,
/// timing, and profile JSON. Returns the reference result and profile.
fn assert_engines_agree(image: &Image, what: &str) -> (RunResult, om_core::profile::Profile) {
    // Reference: one interpreter run feeding timing + profile via a tee.
    let mut pipe = Pipeline::default();
    let mut prof = ProfileObserver::new(image);
    let mut machine = Machine::load(image).expect("load");
    let r_ref = machine
        .run(SIM_STEPS, &mut Tee { a: &mut pipe, b: &mut prof })
        .unwrap_or_else(|e| panic!("{what}: reference run: {e}"));
    let t_ref = pipe.stats();
    let p_ref = prof.finish();

    // Block engine: one dispatch loop feeding the fused timing + the
    // block-granularity profiler.
    let (r_fast, t_fast, p_fast) = run_timed_profiled_fast(image, SIM_STEPS)
        .unwrap_or_else(|e| panic!("{what}: block run: {e}"));

    assert_eq!(r_ref, r_fast, "{what}: functional result diverged");
    assert_eq!(t_ref, t_fast, "{what}: timing stats diverged");
    assert_eq!(p_ref.to_json(), p_fast.to_json(), "{what}: profile JSON diverged");
    (r_ref, p_ref)
}

/// A `--scale` generator program at a size debug builds can run: the only
/// input here that is also checked against the mini-C interpreter.
fn scale_spec() -> ScaleSpec {
    ScaleSpec {
        name: "scale_equiv".to_string(),
        modules: 10,
        procs_per_module: 8,
        globals_per_module: 4,
        iters: 2,
    }
}

/// The scale program at `level` in both compile modes: the engines agree,
/// and the result equals the interpreter's (computed once per test binary).
fn sweep_scale(level: OmLevel) {
    static REFERENCE: OnceLock<i64> = OnceLock::new();
    let spec = scale_spec();
    let expected = *REFERENCE.get_or_init(|| {
        interp_reference_scale(&spec, SIM_STEPS).expect("interpreter reference")
    });
    for mode in CompileMode::ALL {
        let what = format!("{} [{}] {}", spec.name, mode.name(), level.name());
        let b = build_scale(&spec, mode).expect("scale build");
        let out = optimize_and_link_with(&b.objects, &b.libs, level, &OmOptions::default())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let (r, _) = assert_engines_agree(&out.image, &what);
        assert_eq!(r.result, expected, "{what}: result vs interpreter");
    }
}

fn sweep_level(level: OmLevel) {
    let options = OmOptions::default();
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            let out = optimize_and_link_with(&b.objects, &b.libs, level, &options)
                .unwrap_or_else(|e| panic!("{} [{}] {}: {e}", s.name, mode.name(), level.name()));
            let what = format!("{} [{}] {}", s.name, mode.name(), level.name());
            assert_engines_agree(&out.image, &what);
        }
    }
    sweep_scale(level);
}

#[test]
fn engines_agree_on_every_workload_at_level_none() {
    sweep_level(OmLevel::None);
}

#[test]
fn engines_agree_on_every_workload_at_level_simple() {
    sweep_level(OmLevel::Simple);
}

#[test]
fn engines_agree_on_every_workload_at_level_full() {
    sweep_level(OmLevel::Full);
}

#[test]
fn engines_agree_on_every_workload_at_level_fullsched_and_pgo() {
    // FullSched plus the ninth variant: a profile-guided relink driven by a
    // profile the two engines must also agree on.
    let options = OmOptions::default();
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            let sched =
                optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &options)
                    .unwrap_or_else(|e| panic!("{} [{}] sched: {e}", s.name, mode.name()));
            let what = format!("{} [{}] sched", s.name, mode.name());
            let (_, profile) = assert_engines_agree(&sched.image, &what);

            let popts = OmOptions { profile: Some(profile), ..options.clone() };
            let pgo = optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &popts)
                .unwrap_or_else(|e| panic!("{} [{}] pgo: {e}", s.name, mode.name()));
            let what = format!("{} [{}] pgo", s.name, mode.name());
            assert_engines_agree(&pgo.image, &what);
        }
    }
    sweep_scale(OmLevel::FullSched);
}

/// `StepLimit` must fire at the exact instruction boundary even though the
/// block engine checks the budget once per block: for every limit the two
/// engines return the same `Ok`/`Err`, and at the full retirement count the
/// run completes on both.
#[test]
fn step_limit_boundary_matches_reference_on_a_real_workload() {
    let s = spec::all().into_iter().next().expect("at least one spec");
    let quick = spec::quick(&s);
    let b = build(&quick, CompileMode::Each).expect("build");
    let out =
        optimize_and_link_with(&b.objects, &b.libs, OmLevel::Full, &OmOptions::default())
            .expect("link");
    let full = run_image(&out.image, SIM_STEPS).expect("full run").insts;

    // Limits landing inside blocks, on block seams, and at the exact end.
    let mut limits: Vec<u64> = (1..64).collect();
    limits.extend([full / 2, full - 2, full - 1, full, full + 1]);
    for limit in limits {
        let r_ref = run_image(&out.image, limit);
        let r_fast = om_sim::run_fast(&out.image, limit);
        assert_eq!(r_ref, r_fast, "limit {limit}");
        if limit < full {
            assert!(
                matches!(r_fast, Err(ExecError::StepLimit { .. })),
                "limit {limit}: expected StepLimit"
            );
        } else {
            assert!(r_fast.is_ok(), "limit {limit}: expected completion");
        }
    }
}

// ---------------------------------------------------------------------------
// The nine hand-traced exact-cycle cases from `timing_model.rs`, rerun as
// real images through the block engine.
//
// Each case lays the traced sequence out at its original addresses (text
// base 0x1000, matching pcs) and appends a HALT. The pre-HALT cycle total is
// pinned to the hand-traced number by feeding the same retirement stream to
// the reference `Pipeline`; the executed total (including the HALT) must
// then agree between the reference interpreter and the block engine.
// ---------------------------------------------------------------------------

fn addq(ra: Reg, rc: Reg) -> Inst {
    Inst::Opr { op: OprOp::Addq, ra, rb: Operand::Reg(ra), rc }
}

/// Builds an image whose text is `insts` (at base 0x1000) plus a HALT.
fn case_image(insts: &[Inst]) -> Image {
    let mut all = insts.to_vec();
    all.push(Inst::Pal { op: PalOp::Halt });
    Image {
        segments: vec![Segment { base: 0x1000, bytes: encode_all(&all) }],
        entry: 0x1000,
        symbols: HashMap::new(),
        layout: LayoutInfo::default(),
    }
}

/// Asserts the hand-traced pre-HALT cycle count (`traced_cycles`, fed to the
/// reference `Pipeline` as a synthetic stream exactly like `timing_model.rs`
/// does), then runs the image on both engines and asserts byte-identical
/// timing stats.
fn check_case(name: &str, image: &Image, stream: &[Retired], traced_cycles: u64) {
    let mut p = Pipeline::default();
    for r in stream {
        p.retire(r);
    }
    assert_eq!(p.stats().cycles, traced_cycles, "{name}: hand-traced total changed");

    let mut pipe = Pipeline::default();
    let mut machine = Machine::load(image).expect("load");
    let r_ref = machine.run(1_000_000, &mut pipe).unwrap_or_else(|e| panic!("{name}: {e}"));
    let t_ref = pipe.stats();
    let (r_fast, t_fast) =
        om_sim::run_timed_fast(image, 1_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(r_ref, r_fast, "{name}: functional result diverged");
    assert_eq!(t_ref, t_fast, "{name}: timing stats diverged");
}

fn retired(pc: u64, inst: Inst) -> Retired {
    Retired { pc, inst, ea: None, taken: false }
}

#[test]
fn hand_traced_cases_match_on_the_block_engine() {
    // 1. Aligned IntOp+Mem pair: 8 cycles.
    let seq = [Inst::mov(Reg::new(1), Reg::new(2)), Inst::lda(Reg::new(3), 0, Reg::SP)];
    check_case(
        "aligned_pair",
        &case_image(&seq),
        &[retired(0x1000, seq[0]), retired(0x1004, seq[1])],
        8,
    );

    // 2. Misaligned pair (shifted by one slot): 9 cycles.
    let seq = [Inst::nop(), Inst::mov(Reg::new(1), Reg::new(2)), Inst::lda(Reg::new(3), 0, Reg::SP)];
    check_case(
        "misaligned_pair",
        &case_image(&seq),
        &[retired(0x1004, seq[1]), retired(0x1008, seq[2])],
        9,
    );

    // 3. Same-pipe pair never dual-issues: 9 cycles.
    let seq = [Inst::mov(Reg::new(1), Reg::new(2)), Inst::mov(Reg::new(3), Reg::new(4))];
    check_case(
        "same_pipe",
        &case_image(&seq),
        &[retired(0x1000, seq[0]), retired(0x1004, seq[1])],
        9,
    );

    // 4. Dependent load-use: 19 cycles (I-miss 8 + load 3 + D-miss 8).
    let seq = [Inst::ldq(Reg::new(1), 0, Reg::SP), addq(Reg::new(1), Reg::new(2))];
    check_case(
        "dependent_load_use",
        &case_image(&seq),
        &[
            Retired { pc: 0x1000, inst: seq[0], ea: Some(0x2000), taken: false },
            retired(0x1004, seq[1]),
        ],
        19,
    );

    // 5. Independent use pairs with the load: 8 cycles.
    let seq = [Inst::ldq(Reg::new(1), 0, Reg::SP), addq(Reg::new(3), Reg::new(2))];
    check_case(
        "independent_load_pair",
        &case_image(&seq),
        &[
            Retired { pc: 0x1000, inst: seq[0], ea: Some(0x2000), taken: false },
            retired(0x1004, seq[1]),
        ],
        8,
    );

    // 6. Taken branch to an aligned target: 9 cycles.
    let br = Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 3 };
    let seq = [
        br,
        Inst::nop(),
        Inst::nop(),
        Inst::nop(),
        Inst::mov(Reg::new(1), Reg::new(2)),
        Inst::lda(Reg::new(3), 0, Reg::SP),
    ];
    check_case(
        "taken_branch_aligned_target",
        &case_image(&seq),
        &[
            Retired { pc: 0x1000, inst: br, ea: None, taken: true },
            retired(0x1010, seq[4]),
            retired(0x1014, seq[5]),
        ],
        9,
    );

    // 7. Taken branch to a misaligned target: 10 cycles.
    let br = Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 2 };
    let seq = [
        br,
        Inst::nop(),
        Inst::nop(),
        Inst::mov(Reg::new(1), Reg::new(2)),
        Inst::lda(Reg::new(3), 0, Reg::SP),
    ];
    check_case(
        "taken_branch_misaligned_target",
        &case_image(&seq),
        &[
            Retired { pc: 0x1000, inst: br, ea: None, taken: true },
            retired(0x100C, seq[3]),
            retired(0x1010, seq[4]),
        ],
        10,
    );

    // 8. Multiply latency stalls the dependent use to cycle 29.
    let mul = Inst::Opr {
        op: OprOp::Mulq,
        ra: Reg::new(1),
        rb: Operand::Reg(Reg::new(2)),
        rc: Reg::new(1),
    };
    let seq = [mul, addq(Reg::new(1), Reg::new(2))];
    check_case(
        "multiply_latency",
        &case_image(&seq),
        &[retired(0x1000, seq[0]), retired(0x1004, seq[1])],
        29,
    );

    // 9. I-cache line reuse is free after the compulsory miss: 23 cycles.
    let seq: Vec<Inst> = (0..9).map(|_| Inst::mov(Reg::new(1), Reg::new(2))).collect();
    let stream: Vec<Retired> =
        (0..9u64).map(|k| retired(0x1000 + 4 * k, seq[k as usize])).collect();
    check_case("icache_line_reuse", &case_image(&seq), &stream, 23);
}

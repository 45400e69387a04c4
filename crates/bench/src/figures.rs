//! Reproduction of every figure and table in the paper's evaluation (§5).
//!
//! Each `figN` function measures one benchmark in the same configurations the
//! paper plots and returns the rows its figure reports. The `reproduce`
//! binary renders them as text tables; `EXPERIMENTS.md` records a captured
//! run against the paper's numbers.
//!
//! [`Prepared`] memoizes the expensive middle of the harness: each
//! `(CompileMode, OmLevel)` OM pipeline result is computed exactly once per
//! benchmark behind a [`OnceLock`] grid, so fig3/fig4/fig5/fig6 and the GAT
//! table share one `optimize_and_link_with` run per configuration instead of
//! each re-running it. The grid is the harness's only memo layer: it does
//! not go through `omd`'s relink cache ([`om_core::OmCaches`]). The
//! standard-link image, the profile and the profile-guided relink are cached
//! the same way. All caches are interior and thread-safe: the harness
//! measures many benchmarks concurrently with shared references. Figure 7
//! is the deliberate exception — it times fresh pipeline runs, so it
//! bypasses every cache.

use om_core::{
    optimize_and_link, optimize_and_link_with, OmLevel, OmOptions, OmOutput, OmStats, Profile,
};
use om_linker::{link_modules, Image, LayoutOpts};
use om_sim::{run_profiled_fast, run_timed_fast, TimingStats};
use om_workloads::build::{build, BuiltBenchmark, CompileMode};
use om_workloads::gen::BenchSpec;
use std::sync::OnceLock;

/// Simulator instruction budget per run.
pub const SIM_LIMIT: u64 = 2_000_000_000;

/// A fully-built benchmark in both compile modes (compiled once, measured
/// many times), with memoized per-configuration pipeline results.
pub struct Prepared {
    pub spec: BenchSpec,
    pub each: BuiltBenchmark,
    pub all: BuiltBenchmark,
    /// OM results, indexed `[mode.index()][level.index()]`, computed on
    /// first use.
    om: [[OnceLock<OmOutput>; OmLevel::ALL.len()]; CompileMode::ALL.len()],
    /// Standard-link images per mode, computed on first use.
    std_image: [OnceLock<Image>; CompileMode::ALL.len()],
    /// Execution profiles per mode (one functional run of the cached
    /// OM-full-scheduled image), computed on first use.
    profile: [OnceLock<Profile>; CompileMode::ALL.len()],
    /// Profile-guided relinks per mode (built with verification on),
    /// computed on first use.
    pgo: [OnceLock<OmOutput>; CompileMode::ALL.len()],
}

impl Prepared {
    /// Builds both variants of a benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails to compile (a toolchain bug).
    pub fn new(spec: &BenchSpec) -> Prepared {
        let each = build(spec, CompileMode::Each).expect("compile-each build");
        let all = build(spec, CompileMode::All).expect("compile-all build");
        Prepared {
            spec: *spec,
            each,
            all,
            om: Default::default(),
            std_image: Default::default(),
            profile: Default::default(),
            pgo: Default::default(),
        }
    }

    fn built(&self, mode: CompileMode) -> &BuiltBenchmark {
        match mode {
            CompileMode::Each => &self.each,
            CompileMode::All => &self.all,
        }
    }

    /// The OM pipeline result for `(mode, level)`, running it on first use
    /// and returning the cached output thereafter.
    ///
    /// # Panics
    ///
    /// Panics on link failure.
    pub fn om(&self, mode: CompileMode, level: OmLevel) -> &OmOutput {
        self.om[mode.index()][level.index()].get_or_init(|| {
            let b = self.built(mode);
            optimize_and_link_with(&b.objects, &b.libs, level, &OmOptions::default())
                .unwrap_or_else(|e| panic!("{} {}: {e}", self.spec.name, level.name()))
        })
    }

    /// Runs OM at `level` on `mode`'s objects, returning its statistics.
    ///
    /// # Panics
    ///
    /// Panics on link failure.
    pub fn om_stats(&self, mode: CompileMode, level: OmLevel) -> OmStats {
        self.om(mode, level).stats
    }

    /// The standard (non-optimizing) link of `mode`, cached after the first
    /// call.
    ///
    /// # Panics
    ///
    /// Panics on link failure.
    pub fn std_image(&self, mode: CompileMode) -> &Image {
        self.std_image[mode.index()].get_or_init(|| {
            let b = self.built(mode);
            link_modules(&b.objects, &b.libs, &LayoutOpts::default())
                .unwrap_or_else(|e| panic!("{}: {e}", self.spec.name))
                .0
        })
    }

    /// Simulates `mode` under the standard link and returns `(result, timing)`.
    ///
    /// # Panics
    ///
    /// Panics on link or execution failure.
    pub fn run_standard(&self, mode: CompileMode) -> (i64, TimingStats) {
        let image = self.std_image(mode);
        let (r, t) =
            run_timed_fast(image, SIM_LIMIT).unwrap_or_else(|e| panic!("{}: {e}", self.spec.name));
        (r.result, t)
    }

    /// Simulates `mode` after OM at `level`.
    ///
    /// # Panics
    ///
    /// Panics on link or execution failure.
    pub fn run_om(&self, mode: CompileMode, level: OmLevel) -> (i64, TimingStats) {
        let out = self.om(mode, level);
        let (r, t) = run_timed_fast(&out.image, SIM_LIMIT)
            .unwrap_or_else(|e| panic!("{} {}: {e}", self.spec.name, level.name()));
        (r.result, t)
    }

    /// The execution profile of `mode`'s OM-full-scheduled image (one extra
    /// functional simulator run), cached after the first call.
    ///
    /// # Panics
    ///
    /// Panics on link or execution failure.
    pub fn profile(&self, mode: CompileMode) -> &Profile {
        self.profile[mode.index()].get_or_init(|| {
            let image = &self.om(mode, OmLevel::FullSched).image;
            let (_, prof) = run_profiled_fast(image, SIM_LIMIT)
                .unwrap_or_else(|e| panic!("{} profile: {e}", self.spec.name));
            prof
        })
    }

    /// The profile-guided relink of `mode` — OM-full-scheduled rebuilt with
    /// [`Prepared::profile`] and verification enabled — cached after the
    /// first call.
    ///
    /// # Panics
    ///
    /// Panics on link or verification failure.
    pub fn om_pgo(&self, mode: CompileMode) -> &OmOutput {
        self.pgo[mode.index()].get_or_init(|| {
            let options = OmOptions {
                profile: Some(self.profile(mode).clone()),
                verify: true,
                ..OmOptions::default()
            };
            let b = self.built(mode);
            optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &options)
                .unwrap_or_else(|e| panic!("{} pgo: {e}", self.spec.name))
        })
    }

    /// Simulates `mode` after the profile-guided relink.
    ///
    /// # Panics
    ///
    /// Panics on link or execution failure.
    pub fn run_pgo(&self, mode: CompileMode) -> (i64, TimingStats) {
        let out = self.om_pgo(mode);
        let (r, t) = run_timed_fast(&out.image, SIM_LIMIT)
            .unwrap_or_else(|e| panic!("{} pgo: {e}", self.spec.name));
        (r.result, t)
    }
}

/// Figure 3: static fraction of address loads removed, split converted /
/// nullified, for (compile-each, compile-all) × (OM-simple, OM-full).
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// `(converted, nullified)` fractions in `[0, 1]`.
    pub each_simple: (f64, f64),
    pub each_full: (f64, f64),
    pub all_simple: (f64, f64),
    pub all_full: (f64, f64),
}

/// Measures Figure 3 for one prepared benchmark.
pub fn fig3(p: &Prepared) -> Fig3Row {
    // Modes × the transforming static levels, from the shared tables.
    let mut v = [[(0.0, 0.0); 2]; 2];
    for mode in CompileMode::ALL {
        for (li, level) in OmLevel::ALL[1..3].iter().enumerate() {
            v[mode.index()][li] = p.om_stats(mode, *level).addr_load_fractions();
        }
    }
    Fig3Row {
        each_simple: v[0][0],
        each_full: v[0][1],
        all_simple: v[1][0],
        all_full: v[1][1],
    }
}

/// Figure 4: fraction of calls still requiring PV loads (top) and GP-reset
/// code (bottom) for no-OM / OM-simple / OM-full × compile-each/compile-all.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Indexed `[mode][level]` with mode 0=each 1=all, level 0=no OM,
    /// 1=simple, 2=full.
    pub pv: [[f64; 3]; 2],
    pub gp_reset: [[f64; 3]; 2],
}

/// Measures Figure 4 for one prepared benchmark.
pub fn fig4(p: &Prepared) -> Fig4Row {
    let mut pv = [[0.0; 3]; 2];
    let mut gp = [[0.0; 3]; 2];
    for mode in CompileMode::ALL {
        for (li, level) in OmLevel::ALL[..3].iter().enumerate() {
            let s = p.om_stats(mode, *level);
            pv[mode.index()][li] = s.pv_fraction_after();
            gp[mode.index()][li] = s.gp_reset_fraction_after();
        }
    }
    Fig4Row { pv, gp_reset: gp }
}

/// Figure 5: static fraction of instructions nullified (simple) or deleted
/// (full), per compile mode.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    pub each_simple: f64,
    pub each_full: f64,
    pub all_simple: f64,
    pub all_full: f64,
}

/// Measures Figure 5 for one prepared benchmark.
pub fn fig5(p: &Prepared) -> Fig5Row {
    let mut v = [[0.0; 2]; 2];
    for mode in CompileMode::ALL {
        for (li, level) in OmLevel::ALL[1..3].iter().enumerate() {
            v[mode.index()][li] = p.om_stats(mode, *level).inst_fraction_removed();
        }
    }
    Fig5Row {
        each_simple: v[0][0],
        each_full: v[0][1],
        all_simple: v[1][0],
        all_full: v[1][1],
    }
}

/// Figure 6: dynamic percentage improvement over the same compile mode with
/// no link-time optimization, plus the §5.2 rescheduling variant.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Percent improvements, indexed `[mode][level]` with level 0=simple,
    /// 1=full, 2=full w/sched.
    pub improvement: [[f64; 3]; 2],
    /// Baseline cycle counts per mode (for context).
    pub base_cycles: [u64; 2],
}

/// Measures Figure 6 for one prepared benchmark (the expensive one: eight
/// simulator runs).
///
/// # Panics
///
/// Panics if any variant's checksum disagrees with the baseline — the
/// harness doubles as a correctness check.
pub fn fig6(p: &Prepared) -> Fig6Row {
    let mut improvement = [[0.0; 3]; 2];
    let mut base_cycles = [0u64; 2];
    for mode in CompileMode::ALL {
        let mi = mode.index();
        let (expect, base) = p.run_standard(mode);
        base_cycles[mi] = base.cycles;
        for (li, level) in OmLevel::ALL[1..].iter().enumerate() {
            let (r, t) = p.run_om(mode, *level);
            assert_eq!(r, expect, "{} {} {}", p.spec.name, mode.name(), level.name());
            improvement[mi][li] = (base.cycles as f64 / t.cycles as f64 - 1.0) * 100.0;
        }
    }
    Fig6Row { improvement, base_cycles }
}

/// Figure 7: build-time comparison in seconds — standard link, the
/// interprocedural build (compile-all from source), and OM at each level.
/// One wall-clock sample per cell, so `reproduce fig7` prints it and the
/// BENCH JSON leaves it out; `omperf` is the repeatable timing harness.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    pub standard_link: f64,
    pub interproc_build: f64,
    pub om_none: f64,
    pub om_simple: f64,
    pub om_full: f64,
    pub om_full_sched: f64,
}

/// Measures Figure 7 for one benchmark spec. Every timed region runs the
/// real pipeline fresh, exactly as the paper's table does — the memoized
/// results in [`Prepared`] are deliberately not consulted.
pub fn fig7(p: &Prepared) -> Fig7Row {
    use std::time::Instant;

    let standard_link = {
        let b = &p.each;
        let t0 = Instant::now();
        let _ = link_modules(&b.objects, &b.libs, &LayoutOpts::default())
            .expect("standard link");
        t0.elapsed().as_secs_f64()
    };

    // The paper's "interproc build": full recompilation of all sources with
    // interprocedural optimization, then a standard link.
    let interproc_build = {
        let t0 = Instant::now();
        let b = build(&p.spec, CompileMode::All).expect("compile-all");
        let _ = link_modules(&b.objects, &b.libs, &LayoutOpts::default()).expect("link");
        t0.elapsed().as_secs_f64()
    };

    let om = |level: OmLevel| {
        let b = &p.each;
        let t0 = Instant::now();
        let _ = optimize_and_link(&b.objects, &b.libs, level).expect("om link");
        t0.elapsed().as_secs_f64()
    };

    // The four levels in OmLevel::ALL order.
    let [om_none, om_simple, om_full, om_full_sched] = OmLevel::ALL.map(om);
    Fig7Row {
        standard_link,
        interproc_build,
        om_none,
        om_simple,
        om_full,
        om_full_sched,
    }
}

/// Profile-guided layout (this reproduction's §13 extension): cycle counts
/// of the profile-guided relink against plain OM-full-scheduled, per
/// compile mode.
#[derive(Debug, Clone, Copy)]
pub struct PgoRow {
    /// OM-full w/sched cycles (blind backward-target alignment), per mode.
    pub sched_cycles: [u64; 2],
    /// Profile-guided relink cycles, per mode.
    pub pgo_cycles: [u64; 2],
    /// Percent improvement of PGO over OM-full w/sched, per mode.
    pub improvement: [f64; 2],
    /// Procedures moved by hot-first reordering, per mode.
    pub procs_moved: [usize; 2],
    /// `(hot, cold)` backward-branch targets under the profile, per mode.
    pub targets: [(usize, usize); 2],
}

/// Measures the PGO comparison for one prepared benchmark: profiles the
/// OM-full-scheduled image, relinks with the profile (verification on), and
/// simulates both.
///
/// # Panics
///
/// Panics if the profile-guided image computes a different checksum than the
/// scheduled one — PGO must never change program meaning.
pub fn pgo(p: &Prepared) -> PgoRow {
    let mut sched_cycles = [0u64; 2];
    let mut pgo_cycles = [0u64; 2];
    let mut improvement = [0.0; 2];
    let mut procs_moved = [0usize; 2];
    let mut targets = [(0usize, 0usize); 2];
    for mode in CompileMode::ALL {
        let mi = mode.index();
        let (expect, sched) = p.run_om(mode, OmLevel::FullSched);
        let (r, t) = p.run_pgo(mode);
        assert_eq!(r, expect, "{} {} pgo checksum", p.spec.name, mode.name());
        sched_cycles[mi] = sched.cycles;
        pgo_cycles[mi] = t.cycles;
        improvement[mi] = (sched.cycles as f64 / t.cycles as f64 - 1.0) * 100.0;
        let s = p.om_pgo(mode).stats;
        procs_moved[mi] = s.pgo_procs_moved;
        targets[mi] = (s.pgo_targets_hot, s.pgo_targets_cold);
    }
    PgoRow { sched_cycles, pgo_cycles, improvement, procs_moved, targets }
}

/// The transformation passes [`passes`] meters, in pipeline order. Only
/// passes that run under a [`om_core::obs::PassMeter`] appear; translation
/// and resolution mutate no [`OmStats`] field in
/// [`om_core::obs::DELTA_FIELDS`].
pub const PASS_NAMES: [&str; 4] = ["calls", "convert", "resched", "pgo"];

/// Per-pass deterministic counter deltas for one benchmark: how much each
/// pass added to every stats field, from one traced OM-full-scheduled run
/// of the compile-each build. Every field is input-determined, so the row
/// is gated against the BENCH baseline.
#[derive(Debug, Clone, Copy)]
pub struct PassesRow {
    /// `deltas[pass][field]`, pass order [`PASS_NAMES`], field order
    /// [`om_core::obs::DELTA_FIELDS`]. Each pass counts the removals it
    /// decides, so `convert` carries OM-full's deleted address loads.
    pub deltas: [[u64; om_core::obs::DELTA_FIELDS.len()]; PASS_NAMES.len()],
    /// Rounds of the OM-full fixpoint loop.
    pub full_rounds: u64,
    /// True iff the per-pass deltas reconcile exactly with the run's final
    /// [`OmStats`] ([`om_core::obs::reconcile`]).
    pub reconciled: bool,
}

/// Measures the per-pass counter table for one prepared benchmark: one
/// dedicated, uncached OM-full-scheduled run of the compile-each objects
/// under a thread-local [`om_obs::Trace`] (a cached result would replay no
/// passes and meter nothing).
///
/// # Panics
///
/// Panics on link failure.
pub fn passes(p: &Prepared) -> PassesRow {
    let b = &p.each;
    let trace = om_obs::Trace::new();
    let out = {
        let _g = trace.install();
        optimize_and_link(&b.objects, &b.libs, OmLevel::FullSched)
            .unwrap_or_else(|e| panic!("{} passes: {e}", p.spec.name))
    };
    let counters = trace.counters();
    let mut deltas = [[0u64; om_core::obs::DELTA_FIELDS.len()]; PASS_NAMES.len()];
    for (pi, pass) in PASS_NAMES.iter().enumerate() {
        for (fi, (field, _)) in om_core::obs::DELTA_FIELDS.iter().enumerate() {
            deltas[pi][fi] = counters.get(&format!("pass.{pass}.{field}")).copied().unwrap_or(0);
        }
    }
    PassesRow {
        deltas,
        full_rounds: counters.get("pipeline.full_rounds").copied().unwrap_or(0),
        reconciled: om_core::obs::reconcile(&counters, &out.stats).is_ok(),
    }
}

/// §5.1 GAT reduction: merged GAT slots before and after OM-full, per
/// compile mode.
#[derive(Debug, Clone, Copy)]
pub struct GatRow {
    pub each_before: usize,
    pub each_after: usize,
    pub all_before: usize,
    pub all_after: usize,
}

/// Measures the GAT-reduction row for one prepared benchmark.
pub fn gat(p: &Prepared) -> GatRow {
    let e = p.om_stats(CompileMode::Each, OmLevel::Full);
    let a = p.om_stats(CompileMode::All, OmLevel::Full);
    GatRow {
        each_before: e.gat_slots_before,
        each_after: e.gat_slots_after,
        all_before: a.gat_slots_before,
        all_after: a.gat_slots_after,
    }
}

/// Three design choices the paper weighs, each switched off alone on the
/// compile-each build (DESIGN §10): the default value, then the ablated one.
#[derive(Debug, Clone, Copy)]
pub struct AblationsRow {
    /// OM-simple's nullified address loads with commons sorted by size next
    /// to the GAT, and unsorted.
    pub nullified_sorted: usize,
    pub nullified_unsorted: usize,
    /// OM-full's GAT slots after the reduction fixpoint, and after one round.
    pub gat_fixpoint: usize,
    pub gat_one_round: usize,
    /// OM-full w/sched cycles with backward-branch targets quadword-aligned,
    /// and unaligned.
    pub cycles_aligned: u64,
    pub cycles_unaligned: u64,
}

/// Measures the ablations for one prepared benchmark. The default-option
/// runs come from the memo grid; each ablation is one fresh link, simulated.
///
/// # Panics
///
/// Panics if an ablated image computes a different result from the default
/// OM-full w/sched image: no ablation may change what the program computes.
pub fn ablations(p: &Prepared) -> AblationsRow {
    let mode = CompileMode::Each;
    let (expect, aligned) = p.run_om(mode, OmLevel::FullSched);
    let ablate = |level: OmLevel, options: OmOptions, what: &str| {
        let b = &p.each;
        let out = optimize_and_link_with(&b.objects, &b.libs, level, &options)
            .unwrap_or_else(|e| panic!("{} {what}: {e}", p.spec.name));
        let (r, t) = run_timed_fast(&out.image, SIM_LIMIT)
            .unwrap_or_else(|e| panic!("{} {what}: {e}", p.spec.name));
        assert_eq!(r.result, expect, "{}: {what} must not change the result", p.spec.name);
        (out.stats, t.cycles)
    };
    let (unsorted, _) = ablate(
        OmLevel::Simple,
        OmOptions { sort_commons: false, ..OmOptions::default() },
        "unsorted commons",
    );
    let (one_round, _) = ablate(
        OmLevel::Full,
        OmOptions { max_rounds: 1, ..OmOptions::default() },
        "one GAT round",
    );
    let (_, cycles_unaligned) = ablate(
        OmLevel::FullSched,
        OmOptions { align_backward_targets: false, ..OmOptions::default() },
        "unaligned loop heads",
    );
    AblationsRow {
        nullified_sorted: p.om_stats(mode, OmLevel::Simple).addr_loads_nullified,
        nullified_unsorted: unsorted.addr_loads_nullified,
        gat_fixpoint: p.om_stats(mode, OmLevel::Full).gat_slots_after,
        gat_one_round: one_round.gat_slots_after,
        cycles_aligned: aligned.cycles,
        cycles_unaligned,
    }
}

/// Every figure `reproduce` produces, in print order; `all` selects them
/// all. A figure's name is its `"fig"` key in the JSON report.
pub const FIGURES: [&str; 12] = [
    "fig3", "fig4", "fig5", "fig6", "fig7", "gat", "pgo", "fleet", "passes", "scale", "ablations",
    "mutants",
];

/// The figures that measure programs of their own instead of the paper
/// benchmarks, so `--bench` does not apply to them.
pub const OWN_PROGRAMS: [&str; 2] = ["scale", "mutants"];

/// Every selected figure's rows for one benchmark — the unit of parallel
/// measurement in the harness.
#[derive(Debug, Clone, Default)]
pub struct BenchRows {
    pub name: String,
    pub fig3: Option<Fig3Row>,
    pub fig4: Option<Fig4Row>,
    pub fig5: Option<Fig5Row>,
    pub fig6: Option<Fig6Row>,
    pub fig7: Option<Fig7Row>,
    pub gat: Option<GatRow>,
    pub pgo: Option<PgoRow>,
    /// The CI-fleet relink storm, filled in by the harness after the
    /// parallel measurement pass (like `fig7`).
    pub fleet: Option<crate::fleet::FleetRow>,
    pub passes: Option<PassesRow>,
    /// The scale figure's row — only on the dedicated `scale{N}` entries
    /// ([`crate::scale::bench_rows`]); always `None` on the 19 paper
    /// benchmarks.
    pub scale: Option<crate::scale::ScaleRow>,
    pub ablations: Option<AblationsRow>,
    /// The mutation-kill scorecard — only on the dedicated `mutants` entry
    /// ([`crate::mutate::bench_rows`]).
    pub mutants: Option<crate::mutate::Scorecard>,
}

/// Measures the figures of `which` ([`FIGURES`] names) that run in the
/// parallel pass. Thanks to the memoized pipeline, overlapping figures
/// (3/4/5/6/gat/ablations) share OM runs. `fig7` and `fleet` are measured
/// by the caller after this pass, and the [`OWN_PROGRAMS`] figures get
/// entries of their own.
pub fn measure(p: &Prepared, which: &[&str]) -> BenchRows {
    let on = |fig: &str| which.contains(&fig);
    BenchRows {
        name: p.spec.name.to_string(),
        fig3: on("fig3").then(|| fig3(p)),
        fig4: on("fig4").then(|| fig4(p)),
        fig5: on("fig5").then(|| fig5(p)),
        fig6: on("fig6").then(|| {
            eprintln!("  fig6: {}", p.spec.name);
            fig6(p)
        }),
        gat: on("gat").then(|| gat(p)),
        pgo: on("pgo").then(|| {
            eprintln!("  pgo: {}", p.spec.name);
            pgo(p)
        }),
        passes: on("passes").then(|| passes(p)),
        ablations: on("ablations").then(|| ablations(p)),
        ..BenchRows::default()
    }
}

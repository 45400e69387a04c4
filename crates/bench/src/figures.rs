//! Reproduction of every figure and table in the paper's evaluation (§5),
//! and of this reproduction's own figures.
//!
//! Each figure is one entry of [`FIGURES`]: its name, where it is measured
//! ([`Measure`]), whether the JSON report carries it, its oracle markers and
//! its table. Its measure function returns each row's fields, named and in
//! report order. The `reproduce` binary, the report writer and its gate
//! ([`crate::json`]) and the table writer ([`crate::render`]) loop over
//! [`FIGURES`] and hold nothing of any one figure; `EXPERIMENTS.md` records
//! a captured run against the paper's numbers.
//!
//! [`Prepared`] memoizes the expensive middle of the harness: each
//! `(CompileMode, OmLevel)` OM pipeline result is computed exactly once per
//! benchmark behind a [`OnceLock`] grid, so fig3/fig4/fig5/fig6 and the GAT
//! table share one `optimize_and_link_with` run per configuration instead of
//! each re-running it, and fig6, pgo and the ablations share one simulation
//! of each image. The grid is the harness's only memo layer: it does
//! not go through `omd`'s relink cache ([`om_core::OmCaches`]). The
//! standard-link image, the profile and the profile-guided relink are cached
//! the same way. All caches are interior and thread-safe: the harness
//! measures many benchmarks concurrently with shared references. Figure 7
//! is the deliberate exception — it times fresh pipeline runs, so it
//! bypasses every cache.

use crate::par::parallel_map;
use crate::render::Fmt::{Dec, Flag, Over, Pct, PctOf, Plain};
use crate::render::Stat::{Mean, Median};
use crate::render::{Col, Group, Print, Table, TABLE};
use crate::{fleet, mutate, render, scale};
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
    /// Simulations of the `om` images, indexed the same way.
    om_run: [[OnceLock<(i64, TimingStats)>; OmLevel::ALL.len()]; CompileMode::ALL.len()],
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
            om_run: Default::default(),
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

    /// Simulates `mode` after OM at `level`, once: fig6, pgo and ablations
    /// share the run.
    ///
    /// # Panics
    ///
    /// Panics on link or execution failure.
    pub fn run_om(&self, mode: CompileMode, level: OmLevel) -> (i64, TimingStats) {
        *self.om_run[mode.index()][level.index()].get_or_init(|| {
            let out = self.om(mode, level);
            let (r, t) = run_timed_fast(&out.image, SIM_LIMIT)
                .unwrap_or_else(|e| panic!("{} {}: {e}", self.spec.name, level.name()));
            (r.result, t)
        })
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

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// One field value of a figure row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A ratio, percentage or time.
    Float(f64),
    /// A count, cycle total or checksum: every `u64` and `i64` fits.
    Int(i128),
    Bool(bool),
    Text(String),
}

impl Value {
    /// The value as a number: a flag reads 0 or 1, text NaN.
    pub fn num(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            Value::Bool(b) => f64::from(u8::from(*b)),
            Value::Text(_) => f64::NAN,
        }
    }
}

/// The value as the report writes it: a float in its shortest round-trip
/// form (`.0` on an integral one), text as a quoted JSON string.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Float(v) if *v == v.trunc() && v.abs() < 1e15 => write!(f, "{v:.1}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => f.write_str(&om_obs::json::quote(s)),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => |$x:ident| $v:expr),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $v
            }
        })*
    };
}
value_from!(
    f64 => |x| Value::Float(x),
    bool => |x| Value::Bool(x),
    String => |x| Value::Text(x),
    usize => |x| Value::Int(x as i128),
    u64 => |x| Value::Int(x.into()),
    i64 => |x| Value::Int(x.into()),
);

/// A row's fields, named and in report order.
pub type Fields = Vec<(String, Value)>;

/// One named field.
pub fn field(name: impl Into<String>, value: impl Into<Value>) -> (String, Value) {
    (name.into(), value.into())
}

/// One row of a figure: its `"bench"` key (a paper benchmark, a scale point
/// or a mutant) and its fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub bench: String,
    pub fields: Fields,
}

impl Row {
    /// The field `name`, if the row has it.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// One entry of a run, as the report's `"benchmarks"` header counts them: a
/// paper benchmark, or one unit of a figure's own programs (a scale point,
/// the mutants corpus).
#[derive(Debug, Clone)]
pub struct Entry {
    /// `rows[i]` holds `FIGURES[i]`'s rows, empty where it was not measured.
    pub rows: Vec<Vec<Row>>,
}

impl Entry {
    /// An entry holding only `fig`'s `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `fig` is not a figure of [`FIGURES`].
    pub fn of(fig: &str, rows: Vec<Row>) -> Entry {
        let mut all = vec![Vec::new(); FIGURES.len()];
        all[index(fig)] = rows;
        Entry { rows: all }
    }
}

fn index(fig: &str) -> usize {
    FIGURES.iter().position(|f| f.name == fig).unwrap_or_else(|| panic!("no figure {fig}"))
}

/// Every row of figure `fig` in `entries`, in entry order.
pub fn rows_of(entries: &[Entry], fig: &str) -> Vec<Row> {
    let i = index(fig);
    entries.iter().flat_map(|e| e.rows[i].iter().cloned()).collect()
}

// ---------------------------------------------------------------------------
// The figures
// ---------------------------------------------------------------------------

/// What a measurement reads of the invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// `--quick`: the small fleet storm and scale points.
    pub quick: bool,
    /// `--jobs`: worker threads.
    pub jobs: usize,
}

/// Where and how a figure is measured.
#[derive(Clone, Copy)]
pub enum Measure {
    /// One row per paper benchmark, in the parallel pass: overlapping
    /// figures share [`Prepared`]'s memoized runs.
    Parallel(fn(&Prepared) -> Fields),
    /// One row per paper benchmark, one benchmark at a time after the
    /// parallel pass: wall-clock timing that concurrent workers would
    /// inflate, or a storm that is parallel inside.
    After(fn(&Prepared, &Run) -> Fields),
    /// Programs of its own, as entries after the paper benchmarks' (each
    /// list one entry's rows). `--bench` does not apply to it.
    Own(fn(&Run) -> Vec<Vec<Row>>),
}

/// One figure: all that `reproduce`, its report, its gate and its table
/// know of it.
#[derive(Clone, Copy)]
pub struct Figure {
    /// Its `reproduce` argument and the report's `"fig"` key.
    pub name: &'static str,
    pub measure: Measure,
    /// Whether `--json` writes its rows; `reproduce check` requires rows of
    /// every figure written. Figure 7's wall-clock seconds are only printed.
    pub json: bool,
    /// Oracle markers, checked on every row by `reproduce check`: `(field,
    /// value as written)`, where `None` only requires the field. The harness
    /// enforces most of these oracles itself; the gate re-checks what it
    /// recorded so a harness regression cannot slip an unverified row into
    /// the baseline. A mutant that escapes every oracle is recorded, and
    /// fails here.
    pub markers: &'static [(&'static str, Option<&'static str>)],
    pub print: Print,
}

impl Figure {
    /// A figure the report carries, without markers, printed as `tables`.
    const fn new(name: &'static str, measure: Measure, tables: &'static [Table]) -> Figure {
        Figure { name, measure, json: true, markers: &[], print: Print::Tables(tables) }
    }

    /// The figure with oracle `markers`.
    const fn markers(self, markers: &'static [(&'static str, Option<&'static str>)]) -> Figure {
        Figure { markers, ..self }
    }
}

/// The figure named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Every figure `reproduce` produces; `all` selects them all, in this
/// order. Within an entry the report writes rows in this order too.
#[rustfmt::skip]
pub static FIGURES: [Figure; 12] = [
    Figure::new("fig3", Measure::Parallel(fig3), &[Table {
        title: "Figure 3: static fraction of address loads removed (%)\n  \
                (cv = converted to load-address, nu = nullified/deleted)\n\n",
        groups: &[
            Group("each/simple", &[
                Col("cv", 5, "each_simple_cv", Pct), Col("nu", 5, "each_simple_nu", Pct),
            ]),
            Group("each/full", &[
                Col("cv", 5, "each_full_cv", Pct), Col("nu", 5, "each_full_nu", Pct),
            ]),
            Group("all/simple", &[
                Col("cv", 5, "all_simple_cv", Pct), Col("nu", 5, "all_simple_nu", Pct),
            ]),
            Group("all/full", &[
                Col("cv", 5, "all_full_cv", Pct), Col("nu", 5, "all_full_nu", Pct),
            ]),
        ],
        rule: 66,
        stats: &[Mean],
        ..TABLE
    }]),
    Figure::new("fig4", Measure::Parallel(fig4), &[
        Table {
            title: "Figure 4: fraction of calls still requiring PV loads (top)\n          \
                    and GP-reset code (bottom), %\n\nPV loads:\n",
            groups: &[
                Group("compile-each", &[
                    Col("noOM", 5, "pv_each_noom", Pct), Col("simp", 5, "pv_each_simple", Pct),
                    Col("full", 5, "pv_each_full", Pct),
                ]),
                Group("compile-all", &[
                    Col("noOM", 5, "pv_all_noom", Pct), Col("simp", 5, "pv_all_simple", Pct),
                    Col("full", 5, "pv_all_full", Pct),
                ]),
            ],
            rule: 50,
            stats: &[Mean],
            note: |_| "\n".into(),
            ..TABLE
        },
        Table {
            title: "GP resets:\n",
            groups: &[
                Group("compile-each", &[
                    Col("noOM", 5, "gp_each_noom", Pct), Col("simp", 5, "gp_each_simple", Pct),
                    Col("full", 5, "gp_each_full", Pct),
                ]),
                Group("compile-all", &[
                    Col("noOM", 5, "gp_all_noom", Pct), Col("simp", 5, "gp_all_simple", Pct),
                    Col("full", 5, "gp_all_full", Pct),
                ]),
            ],
            rule: 50,
            stats: &[Mean],
            note: |_| "\n".into(),
            ..TABLE
        },
    ]),
    Figure::new("fig5", Measure::Parallel(fig5), &[Table {
        title: "Figure 5: static fraction of instructions nullified/deleted (%)\n\n",
        groups: &[
            Group("", &[
                Col("each/simple", 11, "each_simple", Pct), Col("each/full", 9, "each_full", Pct),
            ]),
            Group("", &[
                Col("all/simple", 10, "all_simple", Pct), Col("all/full", 8, "all_full", Pct),
            ]),
        ],
        rule: 57,
        stats: &[Mean],
        ..TABLE
    }]),
    Figure::new("fig6", Measure::Parallel(fig6), &[Table {
        title: "Figure 6: dynamic improvement over no link-time optimization (%)\n\n",
        groups: &[
            Group("compile-each", &[
                Col("simp", 6, "imp_each_simple", Dec(2)), Col("full", 6, "imp_each_full", Dec(2)),
                Col("sched", 6, "imp_each_sched", Dec(2)),
            ]),
            Group("compile-all", &[
                Col("simp", 6, "imp_all_simple", Dec(2)), Col("full", 6, "imp_all_full", Dec(2)),
                Col("sched", 6, "imp_all_sched", Dec(2)),
            ]),
        ],
        rule: 58,
        stats: &[Mean, Median],
        ..TABLE
    }]),
    Figure {
        json: false,
        ..Figure::new("fig7", Measure::After(|p, _| fig7(p)), &[Table {
            title: "Figure 7: build times in seconds\n\n",
            groups: &[
                Group("", &[
                    Col("std-link", 8, "standard_link", Dec(3)),
                    Col("interproc", 9, "interproc_build", Dec(3)),
                ]),
                Group("", &[
                    Col("OM-none", 7, "om_none", Dec(3)), Col("OM-simp", 7, "om_simple", Dec(3)),
                    Col("OM-full", 7, "om_full", Dec(3)),
                    Col("OM-sched", 8, "om_full_sched", Dec(3)),
                ]),
            ],
            rule: 66,
            ..TABLE
        }])
    },
    Figure::new("gat", Measure::Parallel(gat), &[Table {
        title: "GAT reduction under OM-full (merged slots)\n\n",
        groups: &[
            Group("", &[
                Col("each:in", 7, "each_before", Plain), Col("out", 7, "each_after", Plain),
                Col("ratio", 6, "each_after", PctOf("each_before")),
            ]),
            Group("", &[
                Col("all:in", 7, "all_before", Plain), Col("out", 7, "all_after", Plain),
                Col("ratio", 6, "all_after", PctOf("all_before")),
            ]),
        ],
        rule: 60,
        ..TABLE
    }]),
    Figure::new("pgo", Measure::Parallel(pgo), &[Table {
        title: "Profile-guided layout vs OM-full w/sched (cycles; + = PGO faster)\n\n",
        groups: &[
            Group("compile-each", &[
                Col("sched", 10, "sched_cycles_each", Plain),
                Col("pgo", 10, "pgo_cycles_each", Plain), Col("imp%", 6, "imp_each", Dec(2)),
            ]),
            Group("compile-all", &[
                Col("sched", 10, "sched_cycles_all", Plain),
                Col("pgo", 10, "pgo_cycles_all", Plain), Col("imp%", 6, "imp_all", Dec(2)),
            ]),
        ],
        rule: 73,
        stats: &[Mean, Median],
        note: pgo_no_worse,
        ..TABLE
    }])
    .markers(&[("pgo_cycles_each", None)]),
    Figure::new("passes", Measure::Parallel(passes), &[Table {
        title: "Per-pass counter deltas (OM-full w/sched, compile-each; deterministic)\n\n",
        groups: &[
            Group("", &[
                Col("jsr>bsr", 7, "calls_calls_jsr_to_bsr", Plain),
                Col("conv", 7, "convert_addr_loads_converted", Plain),
                Col("null", 7, "convert_addr_loads_nullified", Plain),
                Col("del", 7, "convert_insts_deleted", Plain),
                Col("unop", 7, "resched_unops_inserted", Plain),
            ]),
            Group("", &[
                Col("rounds", 6, "full_rounds", Plain),
                Col("recon", 5, "reconciled", Flag("ok", "FAIL")),
            ]),
        ],
        rule: 68,
        ..TABLE
    }])
    .markers(&[("reconciled", Some("true"))]),
    Figure::new("fleet", Measure::After(fleet::measure), &[Table {
        title: "CI fleet: cached relinks after single-module edits (omd link server)\n\n",
        groups: &[
            Group("", &[
                Col("req", 4, "requests", Plain), Col("thr", 3, "threads", Plain),
                Col("mods", 4, "modules", Plain),
            ]),
            Group("", &[
                Col("l.hit", 6, "link_hits", Plain), Col("l.miss", 6, "link_misses", Plain),
            ]),
            Group("", &[Col("hit%", 6, "hit_rate", Pct)]),
            Group("", &[Col("ident", 5, "byte_identical", Flag("yes", "NO"))]),
        ],
        rule: 59,
        stats: &[Mean],
        ..TABLE
    }])
    .markers(&[("byte_identical", Some("true"))]),
    Figure::new("scale", Measure::Own(scale::measure), &[Table {
        title: "Scaling curves: oracle-gated scale points (all variants verified)\n\n",
        label: "point",
        groups: &[
            Group("", &[Col("mods", 6, "n", Plain), Col("procs", 7, "procs", Plain)]),
            Group("", &[
                Col("gat.in", 8, "gat_entries_input", Plain), Col("slots", 8, "gat_slots", Plain),
                Col("gp.e", 5, "gp_groups_each", Plain), Col("gp.a", 5, "gp_groups_all", Plain),
            ]),
            Group("", &[
                Col("vars", 4, "verified_variants", Plain), Col("hit%", 6, "edit_hit_rate", Pct),
            ]),
            Group("", &[Col("arch", 5, "archive_members_live", Over("archive_members_total"))]),
            Group("", &[Col("ident", 5, "shared_identical", Flag("yes", "NO"))]),
        ],
        rule: 89,
        ..TABLE
    }])
    .markers(&[
        ("verified_variants", Some("8")),
        ("shared_identical", Some("true")),
        ("edit_module_misses", Some("1")),
    ]),
    Figure::new("ablations", Measure::Parallel(ablations), &[Table {
        title: "Ablations: one OM design choice switched off at a time (compile-each)\n\n",
        label: "bench",
        groups: &[
            Group("", &[
                Col("nu(sort)", 9, "nullified_sorted", Plain),
                Col("nu(!sort)", 9, "nullified_unsorted", Plain),
            ]),
            Group("", &[
                Col("gat(fix)", 8, "gat_fixpoint", Plain),
                Col("gat(1rd)", 8, "gat_one_round", Plain),
            ]),
            Group("", &[
                Col("cyc(align)", 10, "cycles_aligned", Plain),
                Col("cyc(!algn)", 10, "cycles_unaligned", Plain),
            ]),
        ],
        rule: 78,
        note: |_| {
            "\nnu    = address loads nullified by OM-simple (with/without sorted commons)\n\
             gat   = GAT slots after OM-full (fixpoint vs one reduction round)\n\
             cyc   = cycles after OM-full w/sched (with/without quadword alignment)\n"
                .into()
        },
        ..TABLE
    }]),
    Figure {
        print: Print::With(|rows| render::mutants(&mutate::scorecard(rows))),
        ..Figure::new("mutants", Measure::Own(mutate::measure), &[])
    }
    .markers(&[("killed", Some("true"))]),
];

/// Measures the figures of `which` (names in [`FIGURES`]): the
/// per-benchmark ones over `prepared`, first the parallel pass on
/// `run.jobs` workers and then the [`Measure::After`] figures one benchmark
/// at a time, then the figures with programs of their own.
///
/// Returns one entry per prepared benchmark, in order, then each
/// own-program figure's entries in [`FIGURES`] order, so the result does
/// not depend on `run.jobs`.
pub fn measure(prepared: &[Prepared], which: &[&str], run: &Run) -> Vec<Entry> {
    let row = |p: &Prepared, fields| vec![Row { bench: p.spec.name.to_string(), fields }];
    let mut entries = parallel_map(run.jobs, prepared, |p| Entry {
        rows: FIGURES
            .iter()
            .map(|f| match f.measure {
                Measure::Parallel(m) if which.contains(&f.name) => row(p, m(p)),
                _ => Vec::new(),
            })
            .collect(),
    });
    for (i, f) in FIGURES.iter().enumerate().filter(|(_, f)| which.contains(&f.name)) {
        match f.measure {
            Measure::Parallel(_) => {}
            Measure::After(m) => {
                for (e, p) in entries.iter_mut().zip(prepared) {
                    e.rows[i] = row(p, m(p, run));
                }
            }
            Measure::Own(m) => {
                entries.extend(m(run).into_iter().map(|rows| Entry::of(f.name, rows)));
            }
        }
    }
    entries
}

// ---------------------------------------------------------------------------
// Measure functions
// ---------------------------------------------------------------------------

/// The report's names of the compile modes, by [`CompileMode::index`].
const MODE: [&str; 2] = ["each", "all"];
/// The report's names of the OM levels, by [`OmLevel::index`].
const LEVEL: [&str; 4] = ["noom", "simple", "full", "sched"];

/// Figure 3: static fraction of address loads removed, converted
/// (`<mode>_<level>_cv`) and nullified (`_nu`), for (compile-each,
/// compile-all) × (OM-simple, OM-full).
pub fn fig3(p: &Prepared) -> Fields {
    let mut out = Fields::new();
    for mode in CompileMode::ALL {
        for level in [OmLevel::Simple, OmLevel::Full] {
            let (cv, nu) = p.om_stats(mode, level).addr_load_fractions();
            let key = format!("{}_{}", MODE[mode.index()], LEVEL[level.index()]);
            out.extend([field(format!("{key}_cv"), cv), field(format!("{key}_nu"), nu)]);
        }
    }
    out
}

/// Figure 4: fraction of calls still requiring PV loads (`pv_<mode>_<level>`)
/// and GP-reset code (`gp_`) for no-OM / OM-simple / OM-full × compile-each
/// / compile-all.
pub fn fig4(p: &Prepared) -> Fields {
    let mut out = Fields::new();
    for mode in CompileMode::ALL {
        for level in [OmLevel::None, OmLevel::Simple, OmLevel::Full] {
            let s = p.om_stats(mode, level);
            let key = format!("{}_{}", MODE[mode.index()], LEVEL[level.index()]);
            out.push(field(format!("pv_{key}"), s.pv_fraction_after()));
            out.push(field(format!("gp_{key}"), s.gp_reset_fraction_after()));
        }
    }
    out
}

/// Figure 5: static fraction of instructions nullified (OM-simple) or
/// deleted (OM-full), per compile mode.
pub fn fig5(p: &Prepared) -> Fields {
    let mut out = Fields::new();
    for mode in CompileMode::ALL {
        for level in [OmLevel::Simple, OmLevel::Full] {
            let key = format!("{}_{}", MODE[mode.index()], LEVEL[level.index()]);
            out.push(field(key, p.om_stats(mode, level).inst_fraction_removed()));
        }
    }
    out
}

/// Figure 6: dynamic percentage improvement over the same compile mode with
/// no link-time optimization (`imp_<mode>_<level>`, OM-simple, OM-full and
/// the §5.2 rescheduling variant), and the baseline cycle count per mode
/// (for context). The expensive one: eight simulator runs.
///
/// # Panics
///
/// Panics if any variant's checksum disagrees with the baseline — the
/// harness doubles as a correctness check.
pub fn fig6(p: &Prepared) -> Fields {
    eprintln!("  fig6: {}", p.spec.name);
    let mut out = Fields::new();
    for mode in CompileMode::ALL {
        let m = MODE[mode.index()];
        let (expect, base) = p.run_standard(mode);
        for level in &OmLevel::ALL[1..] {
            let (r, t) = p.run_om(mode, *level);
            assert_eq!(r, expect, "{} {} {}", p.spec.name, mode.name(), level.name());
            let imp = (base.cycles as f64 / t.cycles as f64 - 1.0) * 100.0;
            out.push(field(format!("imp_{m}_{}", LEVEL[level.index()]), imp));
        }
        out.push(field(format!("base_cycles_{m}"), base.cycles));
    }
    out
}

/// Figure 7: build-time comparison in seconds — standard link, the
/// interprocedural build (compile-all from source), and OM at each level.
/// One wall-clock sample per cell, so `reproduce fig7` prints it and the
/// BENCH JSON leaves it out; `omperf` is the repeatable timing harness.
///
/// Every timed region runs the real pipeline fresh, exactly as the paper's
/// table does — the memoized results in [`Prepared`] are deliberately not
/// consulted.
pub fn fig7(p: &Prepared) -> Fields {
    use std::time::Instant;

    let b = &p.each;
    let t0 = Instant::now();
    let _ = link_modules(&b.objects, &b.libs, &LayoutOpts::default()).expect("standard link");
    let mut out = vec![field("standard_link", t0.elapsed().as_secs_f64())];

    // The paper's "interproc build": full recompilation of all sources with
    // interprocedural optimization, then a standard link.
    let t0 = Instant::now();
    let all = build(&p.spec, CompileMode::All).expect("compile-all");
    let _ = link_modules(&all.objects, &all.libs, &LayoutOpts::default()).expect("link");
    out.push(field("interproc_build", t0.elapsed().as_secs_f64()));

    for (level, name) in OmLevel::ALL.into_iter().zip(["none", "simple", "full", "full_sched"]) {
        let t0 = Instant::now();
        let _ = optimize_and_link(&b.objects, &b.libs, level).expect("om link");
        out.push(field(format!("om_{name}"), t0.elapsed().as_secs_f64()));
    }
    out
}

/// Profile-guided layout (this reproduction's §13 extension), per compile
/// mode: OM-full w/sched cycles (blind backward-target alignment), the
/// profile-guided relink's cycles, the percent improvement of PGO over
/// OM-full w/sched, the procedures hot-first reordering moved, and the hot
/// and cold backward-branch targets under the profile. Profiles the
/// OM-full-scheduled image, relinks with the profile (verification on), and
/// simulates both.
///
/// # Panics
///
/// Panics if the profile-guided image computes a different checksum than the
/// scheduled one — PGO must never change program meaning.
pub fn pgo(p: &Prepared) -> Fields {
    eprintln!("  pgo: {}", p.spec.name);
    let mut out = Fields::new();
    for mode in CompileMode::ALL {
        let m = MODE[mode.index()];
        let (expect, sched) = p.run_om(mode, OmLevel::FullSched);
        let (r, t) = p.run_pgo(mode);
        assert_eq!(r, expect, "{} {} pgo checksum", p.spec.name, mode.name());
        let s = p.om_pgo(mode).stats;
        out.extend([
            field(format!("sched_cycles_{m}"), sched.cycles),
            field(format!("pgo_cycles_{m}"), t.cycles),
            field(format!("imp_{m}"), (sched.cycles as f64 / t.cycles as f64 - 1.0) * 100.0),
            field(format!("procs_moved_{m}"), s.pgo_procs_moved),
            field(format!("hot_{m}"), s.pgo_targets_hot),
            field(format!("cold_{m}"), s.pgo_targets_cold),
        ]);
    }
    out
}

/// The PGO table's last line: per mode, how many benchmarks the
/// profile-guided relink made faster or left tied.
fn pgo_no_worse(rows: &[Row]) -> String {
    let tally = |m: &str| {
        let cycles = |r: &Row, k: &str| r.get(&format!("{k}_cycles_{m}")).map_or(0.0, Value::num);
        let [mut faster, mut tied] = [0, 0];
        for r in rows {
            match cycles(r, "pgo").partial_cmp(&cycles(r, "sched")) {
                Some(std::cmp::Ordering::Less) => faster += 1,
                Some(std::cmp::Ordering::Equal) => tied += 1,
                _ => {}
            }
        }
        format!("{m} {}/{} ({faster} faster, {tied} tied)", faster + tied, rows.len())
    };
    format!("PGO no worse: {}, {}\n", tally("each"), tally("all"))
}

/// The transformation passes [`passes`] meters, in pipeline order. Only
/// passes that run under a [`om_core::obs::PassMeter`] appear; translation
/// and resolution mutate no [`OmStats`] field in
/// [`om_core::obs::DELTA_FIELDS`].
pub const PASS_NAMES: [&str; 4] = ["calls", "convert", "resched", "pgo"];

/// Per-pass deterministic counter deltas for one benchmark, from one
/// dedicated, uncached OM-full-scheduled run of the compile-each objects
/// under a thread-local [`om_obs::Trace`] (a cached result would replay no
/// passes and meter nothing): the rounds of the OM-full fixpoint loop, then
/// `<pass>_<field>` for each pass of [`PASS_NAMES`] and field of
/// [`om_core::obs::DELTA_FIELDS`] the pass moved (only nonzero deltas, so
/// the key set itself is gated content; each pass counts the removals it
/// decides, so `convert` carries OM-full's deleted address loads), whether
/// the deltas reconcile exactly with the run's final [`OmStats`]
/// ([`om_core::obs::reconcile`]), and the first 8 bytes of the linked
/// image's BLAKE2s digest, so the gate sees any change that moves an image.
///
/// # Panics
///
/// Panics on link failure.
pub fn passes(p: &Prepared) -> Fields {
    let b = &p.each;
    let trace = om_obs::Trace::new();
    let out = {
        let _g = trace.install();
        optimize_and_link(&b.objects, &b.libs, OmLevel::FullSched)
            .unwrap_or_else(|e| panic!("{} passes: {e}", p.spec.name))
    };
    let counters = trace.counters();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let mut fields = vec![field("full_rounds", count("pipeline.full_rounds"))];
    for pass in PASS_NAMES {
        for (name, _) in om_core::obs::DELTA_FIELDS {
            let d = count(&format!("pass.{pass}.{name}"));
            if d != 0 {
                fields.push(field(format!("{pass}_{name}"), d));
            }
        }
    }
    fields.push(field("reconciled", om_core::obs::reconcile(&counters, &out.stats).is_ok()));
    let digest = om_core::hash::blake2s(&out.image.to_bytes());
    let hex: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
    fields.push(field("image_digest", hex));
    fields
}

/// §5.1 GAT reduction: merged GAT slots before and after OM-full, per
/// compile mode.
pub fn gat(p: &Prepared) -> Fields {
    let mut out = Fields::new();
    for mode in CompileMode::ALL {
        let s = p.om_stats(mode, OmLevel::Full);
        let m = MODE[mode.index()];
        out.push(field(format!("{m}_before"), s.gat_slots_before));
        out.push(field(format!("{m}_after"), s.gat_slots_after));
    }
    out
}

/// Three design choices the paper weighs, each switched off alone on the
/// compile-each build (DESIGN §10), the default value first: OM-simple's
/// nullified address loads with commons sorted by size next to the GAT and
/// unsorted, OM-full's GAT slots after the reduction fixpoint and after one
/// round, and OM-full w/sched cycles with backward-branch targets
/// quadword-aligned and unaligned. The default-option runs come from the
/// memo grid; each ablation is one fresh link, simulated.
///
/// # Panics
///
/// Panics if an ablated image computes a different result from the default
/// OM-full w/sched image: no ablation may change what the program computes.
pub fn ablations(p: &Prepared) -> Fields {
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
    vec![
        field("nullified_sorted", p.om_stats(mode, OmLevel::Simple).addr_loads_nullified),
        field("nullified_unsorted", unsorted.addr_loads_nullified),
        field("gat_fixpoint", p.om_stats(mode, OmLevel::Full).gat_slots_after),
        field("gat_one_round", one_round.gat_slots_after),
        field("cycles_aligned", aligned.cycles),
        field("cycles_unaligned", cycles_unaligned),
    ]
}

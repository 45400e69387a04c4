//! `omperf`: the OM benchmark.
//!
//! One closed-loop client (a single thread that sends its next request only
//! after the previous one returned) drives one workload through the public
//! entry points of `om_core`, `om_omd` and `om_sim`, checks every output,
//! and prints one JSON object as the last line of standard output. Times
//! are reported in units of a calibration sort that a second thread runs on
//! the same CPU meanwhile (`calib.rs`), which cancels the shared host's
//! swings in CPU speed.
//!
//!
//! ```text
//! omperf --workload scale-link|spec19-run --seed N
//!        --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload, then rebuilds the OM pipeline from public calls with a timer
//! around each one (`rebuild.rs`) and prints the per-layer metrics instead.
//! `--smoke` shrinks every input (scale N=16, two quick SPEC programs) for
//! `tests/smoke.rs`. README.md describes the workloads and the metrics.

mod calib;
mod inputs;
mod measure;
mod rebuild;

use calib::{Meter, Sample, REF_CAL_S};
use inputs::{Program, SetupCost, Workload};
use measure::{geomean, median, medians, timed, Checks, Measured};
use om_core::OmStats;
use om_linker::{link_modules, LayoutOpts};
use om_sim::TimingStats;
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: omperf --workload scale-link|spec19-run \
                     --seed N --seconds S --trace 0|1 [--smoke]";

/// Simulated cycles of the OM-full-sched compile-each images in the
/// canonical link order: the "sched (each)" column of EXPERIMENTS.md's
/// profile-guided layout table. A seed-0 `spec19-run` reports whether it
/// still reproduces them.
const EXPERIMENTS_SCHED_EACH: [(&str, u64); 19] = [
    ("alvinn", 4_972_037),
    ("compress", 14_579_382),
    ("doduc", 11_784_731),
    ("ear", 6_820_592),
    ("eqntott", 7_841_088),
    ("espresso", 16_968_436),
    ("fpppp", 2_417_252),
    ("hydro2d", 5_355_716),
    ("li", 4_962_700),
    ("mdljdp2", 3_996_324),
    ("mdljsp2", 4_415_206),
    ("nasa7", 5_902_467),
    ("ora", 4_815_601),
    ("sc", 9_687_845),
    ("spice", 7_723_152),
    ("su2cor", 6_290_420),
    ("swm256", 20_188_828),
    ("tomcatv", 5_315_843),
    ("wave5", 7_091_007),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Named metric values, in the order they print.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The `metrics` JSON object, and whether every value is finite (JSON
    /// has no NaN; a non-finite value marks the run incorrect).
    fn json(&self) -> (String, bool) {
        let mut out = String::from("{");
        let mut finite = true;
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            finite &= value.is_finite();
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        (out, finite)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pinned before the first setup, so that it runs as the later ones do.
    let meter = Meter::start();
    let mut cost = SetupCost::default();
    let programs = match setup(&args, &meter, &mut cost) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("omperf: setup: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut checks = Checks::default();
    let metrics = run(&args, &programs, &mut cost, meter, &mut checks);
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<24} {value:>18.6} {unit}");
    }
    eprintln!(
        "  {} operations, {} failed",
        checks.attempted, checks.failed
    );
    let (body, finite) = metrics.json();
    let correct = checks.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {body}}}",
        checks.attempted, checks.failed
    );
    ExitCode::SUCCESS
}

/// Makes the workload's inputs, timed on `meter` into `cost`.
fn setup(args: &Args, meter: &Meter, cost: &mut SetupCost) -> Result<Vec<Program>, String> {
    let (made, span) = meter.time(|| inputs::setup(args.workload, args.seed, args.smoke, cost));
    cost.whole.push(span);
    made
}

/// Runs the workload and returns its end-to-end metrics, or with
/// `--trace 1` its per-layer metrics.
fn run(
    args: &Args,
    programs: &[Program],
    cost: &mut SetupCost,
    meter: Meter,
    checks: &mut Checks,
) -> Metrics {
    let mut edits = inputs::Edits::new(programs, args.seed);
    // Every later setup must make the same inputs as the first.
    let mut setup_again = |checks: &mut Checks| match setup(args, &meter, cost) {
        Ok(p) => checks.op(p == programs, || {
            "setup made other inputs than the first one".to_string()
        }),
        Err(e) => checks.op(false, || format!("setup: {e}")),
    };
    // scale-link links and runs each round's edit, checked byte for byte
    // against the image the server served; spec19-run links and runs the
    // programs themselves, whose cycles EXPERIMENTS.md records.
    let link_edited = args.workload == Workload::ScaleLink;
    let mut m = measure::run(
        programs,
        &mut edits,
        link_edited,
        args.seconds,
        &meter,
        &mut setup_again,
        checks,
    );
    m.calibration = meter.finish();
    let targets = m.edited.as_deref().unwrap_or(programs);
    if args.workload == Workload::Spec19Run {
        report_cycles(targets, &m.stats, args.seed == 0 && !args.smoke);
    }
    if args.trace {
        return layers(cost, targets, &m, checks);
    }
    let outputs = || m.outputs.iter().flatten();
    let timings = [
        ("link", &m.link),
        ("relink_cold", &m.cold),
        ("relink_edit", &m.edit),
        ("relink_hit", &m.hit),
        ("sim", &m.sim),
    ]
    .map(|(name, samples)| (name, medians(samples, &m.calibration)));
    eprintln!(
        "  wall medians (calibration sort {:.1} us):",
        median(&m.calibration.sort_secs()) * 1e6
    );
    for (name, (secs, _)) in &timings {
        eprintln!("  {:<24} {secs:>18.6} s", format!("{name}_s"));
    }
    let setups: Vec<Sample> = cost.whole.iter().map(|&s| Sample::from(s)).collect();
    let (setup_wall, setup_cal) = medians(&setups, &m.calibration);
    eprintln!("  {:<24} {setup_wall:>18.6} s", "setup_s");
    let mut out = Metrics::default();
    // Set-up time in seconds at the reference speed, so that it is as
    // steady as the other calibrated times.
    out.put("setup_s", setup_cal * REF_CAL_S, "s");
    out.put("link_rss_mb", m.rss_mb, "MB");
    for (name, (_, cal)) in &timings {
        out.put(&format!("{name}_cal"), *cal, "cal");
    }
    out.put(
        "sim_cycles",
        geomean(m.stats.iter().map(|t| t.cycles as f64)),
        "cycles",
    );
    out.put(
        "text_bytes",
        outputs().map(|o| o.link.text_bytes as f64).sum(),
        "bytes",
    );
    out.put(
        "gat_slots",
        outputs().map(|o| o.stats.gat_slots_after as f64).sum(),
        "slots",
    );
    out
}

/// Prints each program's simulated cycles and, when `against_table`, how
/// many equal the EXPERIMENTS.md column.
fn report_cycles(programs: &[Program], stats: &[TimingStats], against_table: bool) {
    let mut matched = 0;
    for (p, t) in programs.iter().zip(stats) {
        let want = EXPERIMENTS_SCHED_EACH
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|&(_, c)| c);
        matched += usize::from(want == Some(t.cycles));
        eprintln!(
            "  sim.cycles.{:<12} {:>12}  (EXPERIMENTS.md: {want:?})",
            p.name, t.cycles
        );
    }
    if against_table {
        eprintln!(
            "  seed 0: {matched}/{} programs match EXPERIMENTS.md",
            programs.len()
        );
    }
}

/// Per-layer metrics: the pipeline rebuilt from public calls over every
/// target, checked byte for byte against the first round's one-shot
/// images, plus the standard link and the simulator, cache and setup layers.
fn layers(cost: &SetupCost, targets: &[Program], m: &Measured, checks: &mut Checks) -> Metrics {
    let opts = measure::options();
    let mut l = rebuild::Layers::default();
    let mut counts = OmStats::default();
    let (mut rebuild_s, mut hash_s, mut std_link_s) = (0.0, 0.0, 0.0);
    let mut std_cycles = Vec::new();
    for (p, out) in targets.iter().zip(&m.outputs) {
        let Some(out) = out else { continue };
        // Timed as a whole too, so the traced run's wall time includes what
        // the per-call timers miss: bookkeeping and freeing intermediates.
        let (rebuilt, secs) = timed(|| rebuild::rebuild(&p.objects, &p.libs, &opts));
        rebuild_s += secs;
        match rebuilt {
            Ok((image, stats, layers)) => {
                checks.op(
                    image.to_bytes() == out.image.to_bytes() && stats == out.stats,
                    || {
                        format!(
                            "{}: rebuilt pipeline differs from optimize_and_link_with",
                            p.name
                        )
                    },
                );
                l.add(&layers);
                counts.insts_before += stats.insts_before;
                counts.insts_deleted += stats.insts_deleted;
                counts.addr_loads_converted += stats.addr_loads_converted;
                counts.addr_loads_nullified += stats.addr_loads_nullified;
                counts.calls_jsr_to_bsr += stats.calls_jsr_to_bsr;
                counts.gat_slots_after += stats.gat_slots_after;
            }
            Err(e) => checks.op(false, || format!("{}: rebuilt pipeline: {e}", p.name)),
        }
        hash_s += timed(|| {
            p.objects
                .iter()
                .map(om_core::module_hash)
                .collect::<Vec<_>>()
        })
        .1;
        let (std, secs) = timed(|| link_modules(&p.objects, &p.libs, &LayoutOpts::default()));
        std_link_s += secs;
        match std {
            Ok((image, _)) => {
                std_cycles.extend(measure::simulate(p, &image, checks).map(|t| t.cycles as f64));
            }
            Err(e) => checks.op(false, || format!("{}: standard link: {e}", p.name)),
        }
    }
    let secs = |samples| medians(samples, &m.calibration).0;
    let link_s = secs(&m.link);
    let omd_saved_s = secs(&m.cold) - secs(&m.edit);
    let sim_s = secs(&m.sim);
    let sum = |f: fn(&TimingStats) -> u64| m.stats.iter().map(f).sum::<u64>() as f64;
    let insts = sum(|t| t.insts);
    let (modules, links) = (m.modules, m.links);
    let mut m = Metrics::default();
    m.put("linker.select_s", l.select, "s");
    m.put("linker.symtab_s", l.symtab, "s");
    m.put("linker.layout_s", l.layout, "s");
    m.put("linker.link_s", l.link, "s");
    m.put("linker.std_link_s", std_link_s, "s");
    m.put("core.translate_s", l.translate, "s");
    m.put("core.resolve_s", l.resolve, "s");
    m.put("core.snapshot_s", l.snapshot, "s");
    m.put("core.full_s", l.full, "s");
    m.put("core.full_rounds", l.full_rounds as f64, "count");
    m.put("core.resched_s", l.resched, "s");
    m.put("core.emit_s", l.emit, "s");
    m.put("core.verify_s", l.verify, "s");
    m.put("core.hash_s", hash_s, "s");
    m.put("core.unattributed_s", link_s - l.timed_sum(), "s");
    m.put("core.insts_before", counts.insts_before as f64, "count");
    m.put("core.insts_deleted", counts.insts_deleted as f64, "count");
    m.put(
        "core.addr_loads_converted",
        counts.addr_loads_converted as f64,
        "count",
    );
    m.put(
        "core.addr_loads_nullified",
        counts.addr_loads_nullified as f64,
        "count",
    );
    m.put(
        "core.calls_jsr_to_bsr",
        counts.calls_jsr_to_bsr as f64,
        "count",
    );
    m.put(
        "core.gat_slots_after",
        counts.gat_slots_after as f64,
        "slots",
    );
    m.put("cache.module_hits", modules.hits as f64, "count");
    m.put("cache.module_misses", modules.misses as f64, "count");
    m.put("cache.link_hits", links.hits as f64, "count");
    m.put("cache.link_misses", links.misses as f64, "count");
    m.put(
        "cache.evictions",
        (modules.evictions + links.evictions) as f64,
        "count",
    );
    m.put("cache.module_hit_rate", modules.hit_rate(), "ratio");
    m.put("omd.saved_s", omd_saved_s, "s");
    m.put("sim.run_s", sim_s, "s");
    m.put("sim.insts", insts, "count");
    m.put("sim.minsts_per_s", insts / sim_s / 1e6, "Minst/s");
    m.put("sim.icache_misses", sum(|t| t.icache_misses), "count");
    m.put("sim.dcache_misses", sum(|t| t.dcache_misses), "count");
    m.put("sim.dual_issued", sum(|t| t.dual_issued), "count");
    m.put("sim.std_cycles", geomean(std_cycles), "cycles");
    m.put("workloads.build_s", median(&cost.build_s), "s");
    m.put("minic.interp_s", median(&cost.interp_s), "s");
    m.put("obs.overhead_frac", rebuild_s / link_s - 1.0, "ratio");
    m
}

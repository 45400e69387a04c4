//! The timed loop every workload runs: rounds of relinks through a fresh
//! in-process `LinkServer`, verified one-shot OM links, and block-engine
//! runs of the linked images. Only the calls into the program are timed,
//! against a calibration kernel ([`crate::calib`]); output checks run
//! between them and count in [`Checks`].

use crate::calib::{Calibration, Meter, Sample, Span};
use crate::inputs::{Edits, Program};
use om_core::{optimize_and_link_with, CacheStats, OmLevel, OmOptions, OmOutput};
use om_linker::Image;
use om_omd::LinkServer;
use om_sim::{run_timed_fast, ExecError, RunResult, TimingStats};
use std::sync::Arc;
use std::time::Instant;

/// Instruction budget of one simulated run.
const SIM_LIMIT: u64 = 2_000_000_000;

/// Link-cache hits timed after each edit; `relink_hit_cal` is their median.
const HITS_PER_EDIT: usize = 5;

/// Fewest rounds, however short the window is. Single samples swing by a
/// fifth on a shared machine; every reported time is a median.
const MIN_ROUNDS: usize = 3;

/// Setups made between the rounds, evenly spaced over the window. With the
/// one before the rounds, `setup_s` is the median of five: the host's speed
/// swings for tens of seconds, so setups made back to back would all see
/// the same swing.
const SETUPS_BETWEEN: usize = 4;

/// Runs of every image per round: a run is short next to a link, so a
/// round runs each image twice to give `sim_cal` more samples.
const SIMS_PER_ROUND: usize = 2;

/// Operations attempted and failed: links, relinks and simulated runs. An
/// operation fails when it errors or when its output check does not hold.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("omperf: FAILED: {}", what());
        }
    }
}

/// The link every workload measures: OM-full-sched with the verifier on.
pub fn options() -> OmOptions {
    OmOptions {
        verify: true,
        ..OmOptions::default()
    }
}

/// Runs `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// The medians of the samples' wall seconds and of their `cal` values.
pub fn medians(xs: &[Sample], cal: &Calibration) -> (f64, f64) {
    let (secs, cals): (Vec<f64>, Vec<f64>) = xs.iter().map(|s| cal.value(s)).unzip();
    (median(&secs), median(&cals))
}

/// The median; NaN when empty, which the report flags as incorrect.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The geometric mean; NaN when empty.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    (log_sum / f64::from(n)).exp()
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that
/// [`peak_rss_mb`] covers only what runs after. False where the kernel
/// refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (VmHWM) in MB; NaN when unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Simulates `image` on the block engine, untimed; see [`check_run`].
pub fn simulate(p: &Program, image: &Image, checks: &mut Checks) -> Option<TimingStats> {
    check_run(p, run_timed_fast(image, SIM_LIMIT), checks)
}

/// Checks a simulated run's checksum against the program's interpreter
/// reference. Returns the run's timing, None when it failed.
fn check_run(
    p: &Program,
    run: Result<(RunResult, TimingStats), ExecError>,
    checks: &mut Checks,
) -> Option<TimingStats> {
    match run {
        Ok((r, t)) => {
            let ok = r.result == p.reference;
            checks.op(ok, || {
                format!(
                    "{}: simulated checksum {} != interpreter {}",
                    p.name, r.result, p.reference
                )
            });
            ok.then_some(t)
        }
        Err(e) => {
            checks.op(false, || format!("{}: simulation: {e}", p.name));
            None
        }
    }
}

/// Everything a run measured. Each timing sample is summed over the
/// programs.
#[derive(Default)]
pub struct Measured {
    pub cold: Vec<Sample>,
    pub edit: Vec<Sample>,
    pub hit: Vec<Sample>,
    pub link: Vec<Sample>,
    pub sim: Vec<Sample>,
    /// The sorts the calls were timed against.
    pub calibration: Calibration,
    /// The first round's edited targets, when the workload links edits.
    pub edited: Option<Vec<Program>>,
    /// The first round's one-shot output per target (None where it failed).
    pub outputs: Vec<Option<OmOutput>>,
    /// The first round's simulated timing per target (zero where it failed).
    pub stats: Vec<TimingStats>,
    /// The last server's cache counters.
    pub modules: CacheStats,
    pub links: CacheStats,
    /// Peak resident set size over the rounds in MB; NaN when unreadable.
    pub rss_mb: f64,
}

/// Runs rounds until `seconds` have passed and at least [`MIN_ROUNDS`] ran.
/// A round, in this order: links every program cold through a fresh
/// server; makes one new single-module edit of each, relinked once through
/// that server (a link-cache miss that must translate only the edited
/// module) and then [`HITS_PER_EDIT`] more times (link-cache hits); links
/// every target one-shot; runs every target's image [`SIMS_PER_ROUND`]
/// times. The targets are the programs, whose one-shot images must equal
/// the first round's, or with `link_edited` the round's edits, whose
/// one-shot images must equal the ones the server served. Interleaving
/// every operation in every round spreads each metric's samples over the
/// whole window. Between rounds, `setup_again` makes the inputs again
/// [`SETUPS_BETWEEN`] times in all, inside the window but outside the peak
/// memory.
pub fn run(
    programs: &[Program],
    edits: &mut Edits,
    link_edited: bool,
    seconds: f64,
    meter: &Meter,
    setup_again: &mut dyn FnMut(&mut Checks),
    checks: &mut Checks,
) -> Measured {
    let mut m = Measured::default();
    if !reset_peak_rss() {
        eprintln!("omperf: cannot reset VmHWM; link_rss_mb includes setup");
    }
    let mut peak_mb = f64::NAN;
    let mut setups = 0;
    let mut expect: Vec<Vec<u8>> = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let server = LinkServer::new(programs[0].libs.to_vec());
        m.cold.push(cold(&server, programs, meter, checks));
        let (edited, served) = edit_round(&server, programs, edits, meter, &mut m, checks);
        let targets: &[Program] = if link_edited { &edited } else { programs };
        if link_edited {
            expect = served
                .iter()
                .map(|o| o.as_ref().map(|o| o.image.to_bytes()))
                .map(Option::unwrap_or_default)
                .collect();
        }
        let (sample, outputs) = link_pass(targets, &mut expect, meter, checks);
        m.link.push(sample);
        let images: Vec<Option<&Image>> = outputs
            .iter()
            .map(|o| o.as_ref().map(|o| &o.image))
            .collect();
        for _ in 0..SIMS_PER_ROUND {
            let (sample, stats) = sim_pass(targets, &images, meter, checks);
            m.sim.push(sample);
            if m.stats.is_empty() {
                m.stats = stats;
            }
        }
        m.modules = server.caches().modules.stats();
        m.links = server.caches().links.stats();
        if round == 0 {
            m.outputs = outputs;
            if link_edited {
                m.edited = Some(edited);
            }
        }
        round += 1;
        while setups < SETUPS_BETWEEN
            && start.elapsed().as_secs_f64() * (SETUPS_BETWEEN + 1) as f64
                >= (setups + 1) as f64 * seconds
        {
            peak_mb = peak_mb.max(peak_rss_mb());
            setup_again(checks);
            reset_peak_rss();
            setups += 1;
        }
    }
    m.rss_mb = peak_mb.max(peak_rss_mb());
    m
}

fn link_server(
    server: &LinkServer,
    objects: &[om_objfile::Module],
    meter: &Meter,
) -> (Result<om_omd::LinkReply, om_core::OmError>, Span) {
    let opts = options();
    meter.time(|| server.link(objects, OmLevel::FullSched, &opts))
}

/// Links every program through a fresh `server`; returns the summed sample.
fn cold(server: &LinkServer, programs: &[Program], meter: &Meter, checks: &mut Checks) -> Sample {
    let mut total = Sample::default();
    for p in programs {
        let (reply, span) = link_server(server, &p.objects, meter);
        total.push(span);
        checks.op(matches!(reply, Ok(ref r) if !r.cached), || {
            format!("{}: cold relink: {:?}", p.name, reply.as_ref().err())
        });
    }
    total
}

/// One new edit of every program, relinked and then repeated through
/// `server`. Returns the edited programs and the outputs served for them.
fn edit_round(
    server: &LinkServer,
    programs: &[Program],
    edits: &mut Edits,
    meter: &Meter,
    m: &mut Measured,
    checks: &mut Checks,
) -> (Vec<Program>, Vec<Option<Arc<OmOutput>>>) {
    let mut edit_total = Sample::default();
    let mut hits = vec![Sample::default(); HITS_PER_EDIT];
    let mut edited = Vec::with_capacity(programs.len());
    let mut served = Vec::with_capacity(programs.len());
    for (i, p) in programs.iter().enumerate() {
        let e = edits.next(i, p);
        let misses_before = server.caches().modules.stats().misses;
        let (reply, span) = link_server(server, &e.objects, meter);
        edit_total.push(span);
        let misses = server.caches().modules.stats().misses - misses_before;
        let output = match reply {
            Ok(r) => {
                checks.op(!r.cached && misses == 1, || {
                    format!(
                        "{}: edit relink served cached={} after {misses} module misses \
                         (want a fresh link and 1 miss)",
                        e.name, r.cached
                    )
                });
                Some(r.output)
            }
            Err(err) => {
                checks.op(false, || format!("{}: edit relink: {err}", e.name));
                None
            }
        };
        for hit in &mut hits {
            let (reply, span) = link_server(server, &e.objects, meter);
            hit.push(span);
            let ok = matches!((&reply, &output),
                (Ok(r), Some(o)) if r.cached && Arc::ptr_eq(&r.output, o));
            checks.op(ok, || {
                format!("{}: repeat relink missed the link cache", e.name)
            });
        }
        edited.push(e);
        served.push(output);
    }
    m.edit.push(edit_total);
    m.hit.extend(hits);
    (edited, served)
}

/// One verified one-shot link of every program. Each image must equal
/// `expect`'s entry for it byte for byte; an empty `expect` is filled from
/// this pass. Returns the summed sample and the outputs.
fn link_pass(
    programs: &[Program],
    expect: &mut Vec<Vec<u8>>,
    meter: &Meter,
    checks: &mut Checks,
) -> (Sample, Vec<Option<OmOutput>>) {
    let opts = options();
    let fill = expect.is_empty();
    let mut total = Sample::default();
    let mut outputs = Vec::with_capacity(programs.len());
    for (i, p) in programs.iter().enumerate() {
        let (out, span) =
            meter.time(|| optimize_and_link_with(&p.objects, &p.libs, OmLevel::FullSched, &opts));
        total.push(span);
        match out {
            Ok(out) => {
                let bytes = out.image.to_bytes();
                let ok = out.verify.is_some() && (fill || bytes == expect[i]);
                checks.op(ok, || {
                    format!("{}: image differs from the expected one", p.name)
                });
                if fill {
                    expect.push(bytes);
                }
                outputs.push(Some(out));
            }
            Err(e) => {
                checks.op(false, || format!("{}: link: {e}", p.name));
                if fill {
                    expect.push(Vec::new());
                }
                outputs.push(None);
            }
        }
    }
    (total, outputs)
}

/// One run of every image (None marks a program whose link failed).
/// Returns the summed sample and each run's timing, zero where it failed.
fn sim_pass(
    programs: &[Program],
    images: &[Option<&Image>],
    meter: &Meter,
    checks: &mut Checks,
) -> (Sample, Vec<TimingStats>) {
    let mut total = Sample::default();
    let mut stats = Vec::with_capacity(programs.len());
    for (p, image) in programs.iter().zip(images) {
        let t = image.and_then(|image| {
            let (run, span) = meter.time(|| run_timed_fast(image, SIM_LIMIT));
            total.push(span);
            check_run(p, run, checks)
        });
        stats.push(t.unwrap_or_default());
    }
    (total, stats)
}

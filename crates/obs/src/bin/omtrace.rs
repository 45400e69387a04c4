//! `omtrace` — validates and summarizes `--trace-json` output files.
//!
//! ```text
//! omtrace check TRACE.json [--require SPAN]... [--require-counter NAME]...
//!                          [--min-coverage SPAN=FRACTION]...
//! omtrace summarize TRACE.json...
//! ```
//!
//! `check` parses the file, proves every span event is well-formed and that
//! spans nest properly per thread, and (optionally) that named spans and
//! counters are present. CI runs this against a real `om --trace-json` run
//! so a malformed or flat trace fails the build, not a human squinting at
//! chrome://tracing.
//!
//! `--min-coverage SPAN=FRACTION` makes time attribution a check: it fails
//! when the summed durations of the direct children of any instance of
//! SPAN cover less than FRACTION (0 to 1) of that instance, or when SPAN
//! does not occur. It prints the lowest coverage it found.
//!
//! `summarize` reads k traces of the same link and prints, per span name,
//! its instance count and the median and median absolute deviation (MAD) of
//! its total milliseconds across the k traces: one link's layer table with
//! its noise band. A span missing from a trace counts 0 ms there. A span
//! that occurs the same number of times (more than once) in every trace,
//! such as one `snapshot` per OM-full round, also gets the median of each
//! instance's milliseconds, instances taken in start order. Then, per
//! numeric span argument (`pipeline`'s `peak_rss_kb`, the passes' visit
//! counts and deltas), the median across the traces of its sum over the
//! span's instances in each; a trace without it counts 0. A one-shot link
//! has one `pipeline`, so its `peak_rss_kb` row is the link's peak.

use om_obs::TraceSpan;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "omtrace check TRACE.json [--require SPAN]... [--require-counter NAME]... \
                     [--min-coverage SPAN=FRACTION]... | omtrace summarize TRACE.json...";

fn main() -> ExitCode {
    om_obs::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("summarize") => summarize(&args[1..]),
        _ => {
            eprintln!("usage: {USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Reads and validates one trace, reporting a failure on stderr.
fn read_spans(path: &str) -> Option<(String, Vec<TraceSpan>)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| eprintln!("omtrace: cannot read {path}: {e}"))
        .ok()?;
    let spans =
        om_obs::validate_chrome_trace(&text).map_err(|e| eprintln!("omtrace: {path}: {e}")).ok()?;
    Some((text, spans))
}

fn check(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut require_spans = Vec::new();
    let mut require_counters = Vec::new();
    let mut min_coverage: Vec<(String, f64)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require" => match it.next() {
                Some(name) => require_spans.push(name.clone()),
                None => return usage("--require needs a span name"),
            },
            "--require-counter" => match it.next() {
                Some(name) => require_counters.push(name.clone()),
                None => return usage("--require-counter needs a counter name"),
            },
            "--min-coverage" => {
                let parsed = it.next().and_then(|v| v.rsplit_once('=')).and_then(|(span, f)| {
                    let f: f64 = f.parse().ok().filter(|f| (0.0..=1.0).contains(f))?;
                    Some((span.to_string(), f)).filter(|_| !span.is_empty())
                });
                match parsed {
                    Some(c) => min_coverage.push(c),
                    None => return usage("--min-coverage needs SPAN=FRACTION, FRACTION in [0, 1]"),
                }
            }
            _ if path.is_none() => path = Some(a.clone()),
            other => return usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else { return usage("missing TRACE.json path") };

    let Some((text, spans)) = read_spans(&path) else { return ExitCode::FAILURE };
    for want in &require_spans {
        if !spans.iter().any(|s| s.name == *want) {
            eprintln!("omtrace: {path}: required span `{want}` not found");
            return ExitCode::FAILURE;
        }
    }
    if !require_counters.is_empty() {
        let doc = om_obs::parse_json(&text).expect("validated above");
        let counters = doc.get("counters").expect("validated above");
        for want in &require_counters {
            if counters.get(want).is_none() {
                eprintln!("omtrace: {path}: required counter `{want}` not found");
                return ExitCode::FAILURE;
            }
        }
    }
    for (span, floor) in &min_coverage {
        let Some(lowest) = lowest_coverage(&spans, span) else {
            eprintln!("omtrace: {path}: no `{span}` span to check coverage of");
            return ExitCode::FAILURE;
        };
        if lowest < *floor {
            eprintln!(
                "omtrace: {path}: direct children cover {:.1}% of a `{span}` span, below {:.1}%",
                100.0 * lowest,
                100.0 * floor
            );
            return ExitCode::FAILURE;
        }
        println!("omtrace: {path}: direct children cover >= {:.1}% of `{span}`", 100.0 * lowest);
    }
    println!("omtrace: {path}: ok ({} spans)", spans.len());
    ExitCode::SUCCESS
}

/// The lowest share of an instance of `span` that its direct children (same
/// thread, one level deeper, inside it) cover, or `None` when `span` does
/// not occur.
fn lowest_coverage(spans: &[TraceSpan], span: &str) -> Option<f64> {
    let dur = |s: &TraceSpan| s.end - s.start;
    let covered = |p: &TraceSpan| -> f64 {
        (spans.iter())
            .filter(|c| {
                c.tid == p.tid && c.depth == p.depth + 1 && c.start >= p.start && c.end <= p.end
            })
            .map(dur)
            .sum()
    };
    (spans.iter().filter(|p| p.name == span))
        .map(|p| if dur(p) > 0.0 { covered(p) / dur(p) } else { 1.0 })
        .reduce(f64::min)
}

fn summarize(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        return usage("summarize needs at least one TRACE.json");
    }
    if let Some(flag) = paths.iter().find(|p| p.starts_with('-')) {
        return usage(&format!("unexpected argument `{flag}`"));
    }
    // Per span name, its instances' `(start, ms)` in each trace; per (span,
    // argument), its sum in each trace.
    let mut by_name: BTreeMap<String, Vec<Vec<(f64, f64)>>> = BTreeMap::new();
    let mut by_arg: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (k, path) in paths.iter().enumerate() {
        let Some((_, spans)) = read_spans(path) else { return ExitCode::FAILURE };
        for s in spans {
            for (arg, v) in s.args {
                let per_trace =
                    by_arg.entry((s.name.clone(), arg)).or_insert_with(|| vec![0.0; paths.len()]);
                per_trace[k] += v;
            }
            let per_trace = by_name.entry(s.name).or_insert_with(|| vec![Vec::new(); paths.len()]);
            per_trace[k].push((s.start, (s.end - s.start) / 1e3));
        }
    }
    println!(
        "spans over {} traces (name, instances, median total ms, MAD ms; then, for a span \
         every trace holds equally often, the median ms of each instance in order):",
        paths.len()
    );
    for (name, per_trace) in &mut by_name {
        let (lo, hi) = per_trace.iter().fold((usize::MAX, 0), |(lo, hi), t| {
            (lo.min(t.len()), hi.max(t.len()))
        });
        let instances = if lo == hi { lo.to_string() } else { format!("{lo}-{hi}") };
        let totals: Vec<f64> =
            per_trace.iter().map(|t| t.iter().map(|&(_, ms)| ms).sum()).collect();
        let mid = median(&totals);
        let mad = median(&totals.iter().map(|t| (t - mid).abs()).collect::<Vec<_>>());
        let mut row = format!("  {name:<28} {instances:>9}  {mid:>10.3}  {mad:>8.3}");
        if lo == hi && lo > 1 {
            for t in per_trace.iter_mut() {
                t.sort_by(|a, b| a.0.total_cmp(&b.0));
            }
            for j in 0..lo {
                let each: Vec<f64> = per_trace.iter().map(|t| t[j].1).collect();
                row += &format!("  {:>8.3}", median(&each));
            }
        }
        println!("{row}");
    }
    if !by_arg.is_empty() {
        println!("span arguments (span, argument, median of per-trace sums):");
        for ((name, arg), sums) in &by_arg {
            println!("  {name:<28} {arg:<24} {:>12}", median(sums));
        }
    }
    ExitCode::SUCCESS
}

/// The median of a non-empty sample (the mean of the middle two when even).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("omtrace: {msg}");
    eprintln!("usage: {USAGE}");
    ExitCode::from(2)
}

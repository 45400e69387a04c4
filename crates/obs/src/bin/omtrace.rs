//! `omtrace` — validates `--trace-json` output files.
//!
//! ```text
//! omtrace check TRACE.json [--require SPAN]... [--require-counter NAME]...
//!                          [--min-coverage SPAN=FRACTION]...
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

use om_obs::TraceSpan;
use std::process::ExitCode;

const USAGE: &str = "omtrace check TRACE.json [--require SPAN]... [--require-counter NAME]... \
                     [--min-coverage SPAN=FRACTION]...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        _ => {
            eprintln!("usage: {USAGE}");
            ExitCode::from(2)
        }
    }
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

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("omtrace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spans = match om_obs::validate_chrome_trace(&text) {
        Ok(spans) => spans,
        Err(e) => {
            eprintln!("omtrace: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
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

fn usage(msg: &str) -> ExitCode {
    eprintln!("omtrace: {msg}");
    ExitCode::from(2)
}

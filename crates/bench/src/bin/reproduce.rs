//! Regenerates the paper's figures and tables.
//!
//! Usage:
//!
//! ```text
//! reproduce [FIGURE]... [all] [--quick] [--bench NAME]... [--jobs N] [--json PATH]
//! reproduce check RUN [BASELINE]
//! ```
//!
//! The figures are [`figures::FIGURES`]; none or `all` selects every one.
//! Benchmarks are built and measured on a worker pool (`--jobs`, default =
//! available parallelism); results are rendered in spec order, so stdout is
//! byte-identical at any width. `--json` additionally writes machine-
//! readable per-figure rows; Figure 7's wall-clock table is printed only,
//! so the report is byte-identical at any width too. `--bench` filters the
//! paper benchmarks: naming a figure that measures programs of its own
//! with it is an error, and `all` then selects only the per-benchmark
//! figures.
//!
//! `check` is the BENCH drift gate ([`json::check`]): it checks a `--json`
//! report's figure coverage and oracle markers and, given a baseline,
//! compares its deterministic rows field by field. It exits 1 on any
//! finding or an unreadable report, 2 on bad arguments.

use om_bench::figures::{self, figure, Measure, Prepared, Run, FIGURES};
use om_bench::par::{default_jobs, parallel_map};
use om_bench::{json, render};
use om_obs::json::JsonValue;
use om_workloads::spec;

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: reproduce [{}|all] [--quick] [--bench NAME]... [--jobs N] [--json PATH]\n       \
         reproduce check RUN [BASELINE]",
        names.join("|")
    );
    std::process::exit(2);
}

/// `reproduce check RUN [BASELINE]`.
fn check(paths: &[String]) -> ! {
    if paths.is_empty() || paths.len() > 2 || paths.iter().any(|p| p.starts_with('-')) {
        usage("check needs a run report and at most one baseline");
    }
    let docs: Vec<JsonValue> = paths
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| om_obs::json::parse(&text))
                .unwrap_or_else(|e| {
                    eprintln!("reproduce check: {path}: {e}");
                    std::process::exit(1);
                })
        })
        .collect();
    let findings = json::check(&docs[0], docs.get(1));
    for f in &findings {
        eprintln!("FAIL: {f}");
    }
    let against = paths.get(1).map_or(String::new(), |b| format!(" against {b}"));
    if !findings.is_empty() {
        eprintln!("reproduce check: {} finding(s) in {}{against}", findings.len(), paths[0]);
        std::process::exit(1);
    }
    let drift = paths.get(1).map_or(String::new(), |b| format!(", figure rows match {b}"));
    println!("OK: {}: every figure present, every oracle marker holds{drift}", paths[0]);
    std::process::exit(0);
}

fn main() {
    om_obs::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "check") {
        check(&args[1..]);
    }
    let mut which: Vec<&str> = Vec::new();
    let mut named: Vec<&str> = Vec::new();
    let mut quick = false;
    let mut filter: Vec<String> = Vec::new();
    let mut jobs = default_jobs();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--bench" => {
                i += 1;
                match args.get(i) {
                    Some(name) if !name.is_empty() && !name.starts_with('-') => {
                        filter.push(name.clone());
                    }
                    _ => usage("--bench needs a benchmark name"),
                }
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage("--jobs needs a thread count >= 1"),
                };
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.is_empty() => json_path = Some(path.clone()),
                    _ => usage("--json needs an output path"),
                }
            }
            "all" => {
                for fig in &FIGURES {
                    if !which.contains(&fig.name) {
                        which.push(fig.name);
                    }
                }
            }
            f => match figure(f) {
                Some(fig) => {
                    named.push(fig.name);
                    if !which.contains(&fig.name) {
                        which.push(fig.name);
                    }
                }
                None => usage(&format!("unknown argument `{f}`")),
            },
        }
        i += 1;
    }
    if which.is_empty() {
        which.extend(FIGURES.iter().map(|f| f.name));
    }

    let own = |f: &str| figure(f).is_some_and(|fig| matches!(fig.measure, Measure::Own(_)));
    if !filter.is_empty() {
        if let Some(f) = named.iter().find(|f| own(f)) {
            usage(&format!("--bench filters the paper benchmarks, and `{f}` measures its own"));
        }
        which.retain(|f| !own(f));
    }
    let specs: Vec<_> = spec::all()
        .into_iter()
        .filter(|s| filter.is_empty() || filter.iter().any(|f| f == s.name))
        .map(|s| if quick { spec::quick(&s) } else { s })
        .collect();
    if specs.is_empty() {
        usage("no benchmarks match the filter");
    }
    // Skip building the 19 paper benchmarks when only figures with
    // programs of their own were asked for.
    let specs = if which.iter().all(|f| own(f)) { Vec::new() } else { specs };
    if !specs.is_empty() {
        eprintln!("building {} benchmarks (both compile modes, {jobs} jobs)...", specs.len());
    }
    let prepared: Vec<Prepared> = parallel_map(jobs, &specs, Prepared::new);
    let entries = figures::measure(&prepared, &which, &Run { quick, jobs });

    for name in &which {
        let fig = figure(name).expect("a selected figure");
        println!("{}", render::print(&fig.print, &figures::rows_of(&entries, name)));
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, json::report(&entries, quick)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

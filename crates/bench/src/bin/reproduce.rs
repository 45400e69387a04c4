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
//! paper benchmarks, so it needs a figure that measures them.
//!
//! `check` is the BENCH drift gate ([`json::check`]): it checks a `--json`
//! report's figure coverage and oracle markers and, given a baseline,
//! compares its deterministic rows field by field. It exits 1 on any
//! finding or an unreadable report, 2 on bad arguments.

use om_bench::figures::{self, Prepared, FIGURES, OWN_PROGRAMS};
use om_bench::fleet::{self, FleetConfig};
use om_bench::par::{default_jobs, parallel_map};
use om_bench::{json, mutate, render, scale};
use om_obs::json::JsonValue;
use om_workloads::spec;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: reproduce [{}|all] [--quick] [--bench NAME]... [--jobs N] [--json PATH]\n       \
         reproduce check RUN [BASELINE]",
        FIGURES.join("|")
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
                for fig in FIGURES {
                    if !which.contains(&fig) {
                        which.push(fig);
                    }
                }
            }
            f => match FIGURES.iter().find(|x| **x == f) {
                Some(fig) if !which.contains(fig) => which.push(fig),
                Some(_) => {}
                None => usage(&format!("unknown argument `{f}`")),
            },
        }
        i += 1;
    }
    if which.is_empty() {
        which.extend(FIGURES);
    }

    let per_bench = which.iter().any(|f| !OWN_PROGRAMS.contains(f));
    if !filter.is_empty() && !per_bench {
        usage("--bench filters the paper benchmarks, and no selected figure measures them");
    }
    let specs: Vec<_> = spec::all()
        .into_iter()
        .filter(|s| filter.is_empty() || filter.iter().any(|f| f == s.name))
        .map(|s| if quick { spec::quick(&s) } else { s })
        .collect();
    if specs.is_empty() {
        usage("no benchmarks match the filter");
    }
    // The scale and mutants figures measure programs of their own; skip
    // building the 19 paper benchmarks when nothing else was asked for.
    let specs = if per_bench { specs } else { Vec::new() };
    if per_bench {
        eprintln!(
            "building {} benchmarks (both compile modes, {jobs} jobs)...",
            specs.len()
        );
    }
    let prepared: Vec<Prepared> = parallel_map(jobs, &specs, Prepared::new);

    if which.contains(&"fig6") {
        eprintln!("fig6: simulating 8 variants per benchmark...");
    }
    if which.contains(&"pgo") {
        eprintln!("pgo: profiling + relinking + simulating the ninth variant...");
    }
    if which.contains(&"ablations") {
        eprintln!("ablations: three ablated links, simulated, per benchmark...");
    }
    let mut rows = parallel_map(jobs, &prepared, |p| figures::measure(p, &which));
    // Figure 7 measures pipeline wall-clock, so it runs sequentially after
    // the parallel pass — concurrent workers would contend and inflate it.
    if which.contains(&"fig7") {
        for (r, p) in rows.iter_mut().zip(&prepared) {
            r.fig7 = Some(figures::fig7(p));
        }
    }
    if which.contains(&"fleet") {
        // Sequential across benchmarks: the storm is internally parallel.
        let cfg = if quick { FleetConfig::quick() } else { FleetConfig::full() };
        eprintln!("fleet: relink storm ({} edits x {} repeats, {} threads)...",
            cfg.edits, cfg.repeats, cfg.jobs);
        for (r, p) in rows.iter_mut().zip(&prepared) {
            r.fleet = Some(fleet::fleet(&p.each, &cfg));
        }
    }
    // The own-program figures are appended after the 19 paper benchmarks.
    if which.contains(&"scale") && filter.is_empty() {
        for n in scale::points(quick) {
            eprintln!("scale: measuring scale{n} ({n} modules, all oracles)...");
            rows.push(scale::bench_rows(n));
        }
    }
    if which.contains(&"mutants") && filter.is_empty() {
        eprintln!(
            "mutants: {} seeds x {} sites per class on {jobs} jobs...",
            mutate::DEFAULT_SEEDS.len(),
            mutate::SITES_PER_CLASS
        );
        rows.push(mutate::bench_rows(jobs));
    }

    for w in &which {
        // Collect each figure's `(name, row)` pairs in spec order.
        macro_rules! rows_of {
            ($field:ident) => {
                rows.iter()
                    .filter_map(|r| r.$field.map(|x| (r.name.clone(), x)))
                    .collect::<Vec<_>>()
            };
        }
        match *w {
            "fig3" => println!("{}", render::fig3(&rows_of!(fig3))),
            "fig4" => println!("{}", render::fig4(&rows_of!(fig4))),
            "fig5" => println!("{}", render::fig5(&rows_of!(fig5))),
            "fig6" => println!("{}", render::fig6(&rows_of!(fig6))),
            "fig7" => println!("{}", render::fig7(&rows_of!(fig7))),
            "gat" => println!("{}", render::gat(&rows_of!(gat))),
            "pgo" => println!("{}", render::pgo(&rows_of!(pgo))),
            "fleet" => println!("{}", render::fleet(&rows_of!(fleet))),
            "passes" => println!("{}", render::passes(&rows_of!(passes))),
            "scale" => {
                let pairs = rows_of!(scale);
                if !pairs.is_empty() {
                    println!("{}", render::scale(&pairs));
                }
            }
            "ablations" => println!("{}", render::ablations(&rows_of!(ablations))),
            "mutants" => {
                for card in rows.iter().filter_map(|r| r.mutants.as_ref()) {
                    println!("{}", render::mutants(card));
                }
            }
            _ => unreachable!(),
        }
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, json::report(&rows, quick)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

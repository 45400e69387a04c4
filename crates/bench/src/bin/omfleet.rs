//! `omfleet` — the CI-fleet relink benchmark, standalone.
//!
//! ```text
//! omfleet [--smoke] [--quick] [--scale N] [--bench NAME]... [--json PATH]
//! ```
//!
//! Default: runs the full relink storm (10 edits × 5 repeats, 8 client
//! threads) over every workload and prints the fleet table.
//!
//! `--smoke` is the bounded CI gate: a handful of quick workloads, the
//! quick storm shape, plus one socket round trip — and it *fails* (exit 1)
//! if any benchmark's per-module hit rate drops below the 80% floor, any
//! served image differs from the one-shot pipeline, or the socket relink
//! misbehaves.
//!
//! `--scale N` runs the storm over an N-module scale workload instead and
//! enforces the tighter invalidation gate: a single-module edit at scale
//! must reuse ≥ 99% of translations ([`SCALE_HIT_RATE_FLOOR`]), images must
//! stay byte-identical, and a deliberately tiny cache must evict without
//! ever serving a wrong image.

use om_bench::figures::Prepared;
use om_bench::fleet::{fleet, fleet_built, FleetConfig, HIT_RATE_FLOOR};
use om_bench::scale::{built_each, eviction_smoke, SCALE_HIT_RATE_FLOOR};
use om_bench::{json, render};
use om_core::OmLevel;
use om_omd::{serve, Client, LinkServer};
use om_workloads::spec;
use std::sync::Arc;

/// Workloads the smoke gate exercises (small, fast to build).
const SMOKE_BENCHES: usize = 6;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: omfleet [--smoke] [--quick] [--scale N] [--bench NAME]... [--json PATH]");
    std::process::exit(2);
}

/// The `--scale N` gate: the relink storm over an N-module scale build,
/// held to the 99% invalidation floor, plus the eviction-bound smoke.
fn scale_fleet(n: usize, quick: bool) -> ! {
    let cfg = if quick { FleetConfig::quick() } else { FleetConfig::full() };
    eprintln!(
        "fleet --scale {n}: building {n} modules, then {} edits x {} repeats at {} threads...",
        cfg.edits, cfg.repeats, cfg.jobs
    );
    let b = built_each(n);
    let row = fleet_built(&b, &cfg);
    println!(
        "scale{n}: {} requests over {} modules: {} module misses, hit rate {:.3}%, identical {}",
        row.requests,
        row.modules,
        row.module_misses,
        row.hit_rate * 100.0,
        row.byte_identical
    );
    let mut failures = Vec::new();
    if row.hit_rate < SCALE_HIT_RATE_FLOOR {
        failures.push(format!(
            "hit rate {:.3}% below the {:.0}% scale floor — a one-module edit is not O(1 module)",
            row.hit_rate * 100.0,
            SCALE_HIT_RATE_FLOOR * 100.0
        ));
    }
    if row.byte_identical {
        eprintln!("fleet --scale {n}: every served image byte-identical to one-shot");
    } else {
        failures.push("served image differs from one-shot pipeline".to_string());
    }
    eviction_smoke(&b, 64);
    eprintln!("fleet --scale {n}: 64-entry cache evicted under pressure, images intact");
    if failures.is_empty() {
        eprintln!("fleet --scale {n}: OK");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("FLEET FAILURE: scale{n}: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut quick = false;
    let mut scale_n: Option<usize> = None;
    let mut filter: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--quick" => quick = true,
            "--scale" => {
                i += 1;
                scale_n = match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    // The 99% floor needs ≥ 100 modules to be meetable at all.
                    Some(n) if n >= 100 => Some(n),
                    _ => usage("--scale needs a module count >= 100"),
                };
            }
            "--bench" => {
                i += 1;
                match args.get(i) {
                    Some(name) if !name.is_empty() && !name.starts_with('-') => {
                        filter.push(name.clone());
                    }
                    _ => usage("--bench needs a benchmark name"),
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.is_empty() => json_path = Some(path.clone()),
                    _ => usage("--json needs an output path"),
                }
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if let Some(n) = scale_n {
        scale_fleet(n, quick || smoke);
    }

    let mut specs: Vec<_> = spec::all()
        .into_iter()
        .filter(|s| filter.is_empty() || filter.iter().any(|f| f == s.name))
        .collect();
    if smoke && filter.is_empty() {
        specs.truncate(SMOKE_BENCHES);
    }
    if specs.is_empty() {
        eprintln!("no benchmarks match the filter");
        std::process::exit(2);
    }
    let quick = quick || smoke;
    let specs: Vec<_> = specs
        .into_iter()
        .map(|s| if quick { spec::quick(&s) } else { s })
        .collect();
    let cfg = if quick { FleetConfig::quick() } else { FleetConfig::full() };

    eprintln!(
        "fleet: {} benchmarks, {} edits x {} repeats at {} threads...",
        specs.len(),
        cfg.edits,
        cfg.repeats,
        cfg.jobs
    );
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut relinks = 0usize;
    for s in &specs {
        let p = Prepared::new(s);
        let row = fleet(&p, &cfg);
        relinks += row.requests;
        if row.hit_rate < HIT_RATE_FLOOR {
            failures.push(format!(
                "{}: hit rate {:.1}% below the {:.0}% floor",
                s.name,
                row.hit_rate * 100.0,
                HIT_RATE_FLOOR * 100.0
            ));
        }
        if !row.byte_identical {
            failures.push(format!("{}: served image differs from one-shot pipeline", s.name));
        }
        let mut r = om_bench::figures::measure(&p, Default::default());
        r.fleet = Some(row);
        rows.push(r);
    }

    if smoke {
        if let Err(e) = socket_smoke(&specs[0]) {
            failures.push(format!("socket: {e}"));
        }
    }

    print!(
        "{}",
        render::fleet(
            &rows
                .iter()
                .filter_map(|r| r.fleet.map(|x| (r.name.clone(), x)))
                .collect::<Vec<_>>()
        )
    );
    eprintln!("fleet: {relinks} measured relinks");

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, json::report(&rows, quick)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FLEET FAILURE: {f}");
        }
        std::process::exit(1);
    }
    if smoke {
        eprintln!("fleet smoke: OK");
    }
}

/// One relink pair over the unix-socket front end: the second request must
/// be a cache hit and both images byte-identical.
fn socket_smoke(s: &om_workloads::gen::BenchSpec) -> Result<(), String> {
    let b = om_workloads::build::build(s, om_workloads::build::CompileMode::Each)
        .map_err(|e| e.to_string())?;
    let path = std::env::temp_dir().join(format!("omfleet-{}.sock", std::process::id()));
    let handle = serve(&path, Arc::new(LinkServer::new(b.libs.to_vec())))
        .map_err(|e| e.to_string())?;
    let run = || -> Result<(), String> {
        let mut client = Client::connect(&path).map_err(|e| e.to_string())?;
        client.ping().map_err(|e| e.to_string())?;
        let (hit1, img1) = client
            .link(&b.objects, OmLevel::FullSched, true)
            .map_err(|e| e.to_string())??;
        let (hit2, img2) = client
            .link(&b.objects, OmLevel::FullSched, true)
            .map_err(|e| e.to_string())??;
        if hit1 {
            return Err("first socket relink reported a cache hit".to_string());
        }
        if !hit2 {
            return Err("second socket relink missed the cache".to_string());
        }
        if img1.to_bytes() != img2.to_bytes() {
            return Err("socket relink images differ".to_string());
        }
        Ok(())
    };
    let result = run();
    handle.shutdown();
    result
}

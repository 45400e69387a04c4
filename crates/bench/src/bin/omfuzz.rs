//! `omfuzz` — differential fuzzing of the OM pipeline.
//!
//! ```text
//! omfuzz [--seeds N] [--start S] [--jobs N] [--out DIR]
//!        [--modules N] [--procs N] [--stmts N]
//! omfuzz --adversarial
//! ```
//!
//! Each seed generates a random mini-C program, runs the mini-C interpreter
//! as the reference, then builds and simulates all 8 `(compile mode × OM
//! level)` variants plus a profile-guided relink per mode (9 in all), each
//! with the linked-image verifier enabled, comparing checksums. Seeds are
//! checked in parallel on the shared `om_bench::par` pool (`--jobs`,
//! defaulting to the machine's parallelism); output and repro files are
//! identical at any width because results are reported in seed order.
//! Failures are shrunk (modules → procedures → statements) and a minimized
//! repro file is written to `--out` (default `target/omfuzz`). Exits 1 if
//! any seed failed.
//!
//! `--adversarial` runs the deterministic scenario corpus
//! ([`om_bench::adversarial`]) instead of random seeds: hand-shaped inputs
//! sitting on the pipeline's limits. Source cases go through the same
//! oracle as the seeds; object cases must fail with a typed `Range` error
//! (or link, on the boundary). It takes no other option. Exits 1 if any
//! case fails or panics.
//!
//! Every argument is parsed before any work starts; a usage error exits 2
//! with the usage text.

use om_bench::fuzz::{check, generate, shrink, write_repro, FuzzConfig, Outcome};
use om_bench::par::{default_jobs, parallel_map};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("omfuzz: {msg}");
    eprintln!(
        "usage: omfuzz [--seeds N] [--start S] [--jobs N] [--out DIR] \
         [--modules N] [--procs N] [--stmts N]\n       omfuzz --adversarial"
    );
    exit(2);
}

fn main() {
    om_obs::exit_quietly_on_closed_stdout();
    let mut seeds: u64 = 100;
    let mut start: u64 = 0;
    let mut jobs: usize = default_jobs();
    let mut out_dir = String::from("target/omfuzz");
    let mut cfg = FuzzConfig::default();
    let mut adversarial = false;
    let mut other_options = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--adversarial" {
            adversarial = true;
            continue;
        }
        other_options = true;
        let value = args.next().filter(|v| !v.starts_with('-'));
        let num = || value.as_deref().and_then(|v| v.parse::<u64>().ok());
        let number = || num().unwrap_or_else(|| usage(&format!("{flag} needs a number")));
        match flag.as_str() {
            "--seeds" => seeds = number(),
            "--start" => start = number(),
            "--jobs" => {
                jobs = match num() {
                    Some(n) if n >= 1 => n as usize,
                    _ => usage("--jobs needs a thread count >= 1"),
                }
            }
            "--modules" => cfg.max_modules = number() as usize,
            "--procs" => cfg.max_procs_per_module = number() as usize,
            "--stmts" => cfg.max_stmts = number() as usize,
            "--out" => out_dir = value.unwrap_or_else(|| usage("--out needs a directory")),
            other => usage(&format!("unknown option {other}")),
        }
    }
    if adversarial {
        if other_options {
            usage("--adversarial runs the fixed corpus and takes no other option");
        }
        run_adversarial();
    }

    let all_seeds: Vec<u64> = (start..start + seeds).collect();
    let mut passed = 0u64;
    let mut skipped = 0u64;
    let mut failures: Vec<u64> = Vec::new();

    // Check seeds in parallel, in chunks so progress still prints; shrink
    // failures serially afterwards (shrinking re-runs the pipeline many
    // times and is itself the bottleneck — one failure at a time keeps the
    // repro output readable).
    for chunk in all_seeds.chunks(jobs.max(1) * 4) {
        let outcomes = parallel_map(jobs, chunk, |&seed| check(&generate(seed, &cfg)));
        for (&seed, outcome) in chunk.iter().zip(outcomes) {
            match outcome {
                Outcome::Pass => passed += 1,
                Outcome::Skip(why) => {
                    skipped += 1;
                    eprintln!("omfuzz: seed {seed}: skipped ({why})");
                }
                outcome @ Outcome::Fail { .. } => {
                    eprintln!("omfuzz: seed {seed}: FAILED, shrinking…");
                    let small = shrink(generate(seed, &cfg), 300);
                    let final_outcome = check(&small);
                    let report = match &final_outcome {
                        Outcome::Fail { .. } => write_repro(&small, &final_outcome),
                        // Shrinking should preserve failure, but never lose
                        // the original if it somehow does not.
                        _ => write_repro(&small, &outcome),
                    };
                    if let Err(e) = std::fs::create_dir_all(&out_dir) {
                        eprintln!("omfuzz: cannot create {out_dir}: {e}");
                    } else {
                        let path = format!("{out_dir}/repro_{seed}.mc");
                        match std::fs::write(&path, report) {
                            Ok(()) => eprintln!("omfuzz: seed {seed}: repro written to {path}"),
                            Err(e) => eprintln!("omfuzz: cannot write {path}: {e}"),
                        }
                    }
                    if let Outcome::Fail { mismatches, .. } = &outcome {
                        for m in mismatches {
                            eprintln!("omfuzz:   {}: {}", m.variant, m.detail);
                        }
                    }
                    failures.push(seed);
                }
            }
        }
        let done = chunk.last().copied().unwrap_or(start) - start + 1;
        if done < seeds {
            eprintln!(
                "omfuzz: {done}/{seeds} seeds ({passed} passed, {skipped} skipped, {} failed)",
                failures.len()
            );
        }
    }

    eprintln!(
        "omfuzz: done — {passed} passed, {skipped} skipped, {} failed of {seeds} seeds",
        failures.len()
    );
    if !failures.is_empty() {
        eprintln!("omfuzz: failing seeds: {failures:?}");
        exit(1);
    }
}

/// Runs the deterministic adversarial corpus and exits with its verdict.
fn run_adversarial() -> ! {
    let failures = om_bench::adversarial::run_all(|name, detail, outcome| match outcome {
        Ok(summary) => eprintln!("omfuzz: adversarial {name}: ok — {summary}"),
        Err(why) => eprintln!("omfuzz: adversarial {name} ({detail}): FAILED — {why}"),
    });
    if failures > 0 {
        eprintln!("omfuzz: adversarial corpus: {failures} case(s) failed");
        exit(1);
    }
    eprintln!("omfuzz: adversarial corpus: all cases passed");
    exit(0);
}

//! `om` — the optimizing linker (the paper's tool, as a command).
//!
//! ```text
//! om [-o OUT.exe] [--level none|simple|full|full-sched] [--stats]
//!    [--verify] [--profile-use PROF.json] [--preemptible SYMBOL]...
//!    [--trace-json TRACE.json] [--trace-summary]
//!    FILE.o... [LIB.a...]
//! ```
//!
//! `--preemptible` marks a symbol as dynamically bindable: every reference
//! to it stays fully conservative (the paper's shared-library semantics).
//! `--verify` re-checks the transformed program and the linked image
//! against OM's structural invariants (branch bounds, GAT reach, GPDISP
//! pairing, LITUSE links, segment geometry, stats accounting) and fails
//! the link on any violation.
//! `--profile-use` reads an execution profile written by `asim --profile`
//! and enables profile-guided layout: procedures reorder hot-first by call
//! count and only hot backward-branch targets earn alignment UNOPs. It
//! implies `--level full-sched` (the only level that lays code out).
//!
//! `--trace-json` records the link as a chrome://tracing trace-event file:
//! one complete event per pipeline phase and transformation pass, with
//! per-pass counter deltas attached, plus the deterministic counter map
//! (`omtrace check` validates the result in CI). `--trace-summary` prints
//! the same data as a table on stdout. Tracing observes the link without
//! participating in it: the linked image is byte-identical either way.
//!
//! Replaces the standard link step: translates the whole program to symbolic
//! form, applies the requested level of address-calculation optimization,
//! and writes the linked executable. `--stats` prints the Figure 3–5
//! counters for this program.
//!
//! A usage error (no input object, an unknown option, a missing flag value
//! or an unknown level) exits 2 with the usage text; an unreadable or
//! malformed input, a failed link or an unwritable output exits 1.

use om_core::{optimize_and_link_with, OmLevel, OmOptions, Profile};
use om_objfile::binary;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: om [-o OUT.exe] [--level none|simple|full|full-sched] [--stats]
          [--verify] [--profile-use PROF.json] [--preemptible SYMBOL]...
          [--trace-json TRACE.json] [--trace-summary] FILE.o... [LIB.a...]";

/// Reports a usage error and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("om: {msg}\n{USAGE}");
    exit(2);
}

fn main() {
    om_obs::exit_quietly_on_closed_stdout();
    let mut inputs = Vec::new();
    let mut out = PathBuf::from("a.exe");
    let mut level = OmLevel::Full;
    let mut stats = false;
    let mut trace_json: Option<PathBuf> = None;
    let mut trace_summary = false;
    let mut profile_use: Option<String> = None;
    let mut options = OmOptions::default();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    // The value of the flag at `args[*i]`, consumed.
    let value = |i: &mut usize, what: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage(&format!("{} needs {what}", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "-o" => out = PathBuf::from(value(&mut i, "a path")),
            "--level" => {
                let flag = value(&mut i, "a level");
                level = OmLevel::from_flag(&flag)
                    .unwrap_or_else(|| usage(&format!("unknown level {flag}")));
            }
            "--stats" => stats = true,
            "--verify" => options.verify = true,
            "--trace-json" => trace_json = Some(PathBuf::from(value(&mut i, "a path"))),
            "--trace-summary" => trace_summary = true,
            "--profile-use" => profile_use = Some(value(&mut i, "a profile path")),
            "--preemptible" => options.preemptible.push(value(&mut i, "a symbol name")),
            f if !f.starts_with('-') => inputs.push(f.to_string()),
            other => usage(&format!("unknown option {other}")),
        }
        i += 1;
    }
    if inputs.iter().all(|f| f.ends_with(".a")) {
        usage("no input objects");
    }

    let (objects, libs) = binary::read_inputs(&inputs).unwrap_or_else(|e| {
        eprintln!("om: {e}");
        exit(1);
    });
    if let Some(f) = &profile_use {
        let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
            eprintln!("om: cannot read {f}: {e}");
            exit(1);
        });
        options.profile = Some(Profile::from_json(&text).unwrap_or_else(|e| {
            eprintln!("om: {f}: {e}");
            exit(1);
        }));
    }
    // PGO layout only exists at the scheduling level, regardless of flag order.
    if options.profile.is_some() {
        level = OmLevel::FullSched;
    }

    let trace = (trace_json.is_some() || trace_summary).then(om_obs::Trace::new);
    let guard = trace.as_ref().map(om_obs::Trace::install);
    let result = optimize_and_link_with(&objects, &libs, level, &options);
    drop(guard);
    if let Some(t) = &trace {
        if let Some(path) = &trace_json {
            let json = t.chrome_json("om");
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("om: cannot write {}: {e}", path.display());
                exit(1);
            }
            eprintln!("om: wrote trace {}", path.display());
        }
        if trace_summary {
            print!("{}", t.summary());
        }
    }

    match result {
        Ok(output) => {
            if let Err(e) = std::fs::write(&out, output.image.to_bytes()) {
                eprintln!("om: cannot write {}: {e}", out.display());
                exit(1);
            }
            eprintln!(
                "om: wrote {} ({}, text {} bytes)",
                out.display(),
                level.name(),
                output.link.text_bytes
            );
            if let Some(report) = &output.verify {
                eprintln!("om: verify OK ({} checks)", report.checks);
            }
            if stats {
                let s = output.stats;
                let (cv, nu) = s.addr_load_fractions();
                println!("instructions:   {} before, {} nullified, {} deleted ({:.1}% removed)",
                    s.insts_before, s.insts_nullified, s.insts_deleted,
                    100.0 * s.inst_fraction_removed());
                println!("address loads:  {} total, {:.1}% converted, {:.1}% nullified",
                    s.addr_loads_total, 100.0 * cv, 100.0 * nu);
                println!("calls:          {} total ({} indirect), {} JSR->BSR",
                    s.calls_total, s.calls_indirect, s.calls_jsr_to_bsr);
                println!("  PV loads:     {} -> {}", s.calls_pv_before, s.calls_pv_after);
                println!("  GP resets:    {} -> {}", s.calls_gp_reset_before, s.calls_gp_reset_after);
                println!("GAT:            {} -> {} slots ({:.1}%)",
                    s.gat_slots_before, s.gat_slots_after, 100.0 * s.gat_ratio());
                if s.unops_inserted > 0 {
                    println!("alignment:      {} UNOPs inserted", s.unops_inserted);
                }
            }
        }
        Err(e) => {
            eprintln!("om: {e}");
            exit(1);
        }
    }
}

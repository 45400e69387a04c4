//! `asim` — run an executable image on the simulated Alpha.
//!
//! ```text
//! asim [--limit N] [--timing] [--reference] [--profile OUT.json]
//!      [--trace-json TRACE.json] [--trace-summary] [--disasm [SYMBOL]] IMAGE.exe
//! ```
//!
//! `--trace-json` / `--trace-summary` record the run on the block engine as
//! a chrome://tracing file (or a stdout table): a `sim.run` span with
//! block-cache occupancy, deterministic dispatch/decode counters, and the
//! wall-clock decode vs dispatch split.
//!
//! Prints the program's result (and its `__write_int` output); `--timing`
//! adds the 21064-model cycle statistics; `--profile` additionally collects
//! an execution profile (per-procedure counts, call edges, backward-branch
//! targets) and writes it as JSON for `om --profile-use`; `--disasm` dumps
//! the text segment (or one procedure) instead of running.
//!
//! Runs use the block-cache engine by default; `--reference` falls back to
//! the per-instruction interpreter (the differential oracle). Both time
//! every instruction exactly.
//!
//! A usage error (no image, a second image, an unknown option or a missing
//! flag value) exits 2 with the usage text; an unreadable image or a failed
//! run exits 1. Otherwise the exit code follows the program's result.

use om_linker::Image;
use om_sim::{
    run_fast, run_profiled_fast, run_timed_fast, run_timed_profiled_fast, text_segment, Machine,
    NoTiming, Pipeline, ProfileObserver, RunResult, Tee, TimingStats,
};
use om_core::profile::Profile;
use std::process::exit;

const USAGE: &str = "usage: asim [--limit N] [--timing] [--reference] [--profile OUT.json]
            [--trace-json TRACE.json] [--trace-summary] [--disasm [SYMBOL]] IMAGE.exe";

/// Reports a usage error and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("asim: {msg}\n{USAGE}");
    exit(2);
}

/// Maps a program result to a process exit code without collisions: zero
/// stays zero, and any nonzero result (including multiples of 128, whose
/// low 7 bits vanish) exits nonzero.
fn exit_code(result: i64) -> i32 {
    if result == 0 {
        0
    } else {
        ((result & 0x7F) as i32).max(1)
    }
}

fn main() {
    om_obs::exit_quietly_on_closed_stdout();
    let mut limit: u64 = 1_000_000_000;
    let mut timing = false;
    let mut reference = false;
    let mut profile_path: Option<String> = None;
    let mut disasm: Option<Option<String>> = None;
    let mut trace_json: Option<String> = None;
    let mut trace_summary = false;
    let mut path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--limit" => {
                i += 1;
                limit = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--limit needs a number"));
            }
            "--timing" => timing = true,
            "--reference" => reference = true,
            "--profile" => {
                i += 1;
                match args.get(i) {
                    Some(p) if !p.is_empty() && !p.starts_with('-') => {
                        profile_path = Some(p.clone());
                    }
                    _ => usage("--profile needs an output path"),
                }
            }
            "--trace-json" => {
                i += 1;
                match args.get(i) {
                    Some(p) if !p.is_empty() && !p.starts_with('-') => {
                        trace_json = Some(p.clone());
                    }
                    _ => usage("--trace-json needs an output path"),
                }
            }
            "--trace-summary" => trace_summary = true,
            "--disasm" => {
                let next = args.get(i + 1);
                if let Some(sym) = next.filter(|s| !s.starts_with('-') && !s.ends_with(".exe")) {
                    disasm = Some(Some(sym.clone()));
                    i += 1;
                } else {
                    disasm = Some(None);
                }
            }
            f if !f.starts_with('-') => {
                if path.is_some() {
                    usage(&format!("more than one image given ({f})"));
                }
                path = Some(f.to_string());
            }
            other => usage(&format!("unknown option {other}")),
        }
        i += 1;
    }
    // `--disasm` takes an optional symbol, so an image path that does not
    // end in `.exe` can be mistaken for one. If no path remained, the
    // "symbol" was really the image path.
    if path.is_none() {
        if let Some(Some(sym)) = disasm.take() {
            path = Some(sym);
            disasm = Some(None);
        }
    }
    let Some(path) = path else { usage("no image given") };

    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        eprintln!("asim: cannot read {path}: {e}");
        exit(1);
    });
    let image = Image::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("asim: {path}: {e}");
        exit(1);
    });

    if let Some(which) = disasm {
        let text = text_segment(&image).unwrap_or_else(|e| {
            eprintln!("asim: {path}: {e}");
            exit(1);
        });
        match which {
            None => print!("{}", om_alpha::disasm::section(text.base, &text.bytes)),
            Some(sym) => {
                let Some(&addr) = image.symbols.get(&sym) else {
                    eprintln!("asim: no symbol `{sym}`");
                    exit(1);
                };
                if !text.contains(addr) {
                    eprintln!("asim: `{sym}` ({addr:#x}) is not in the text segment");
                    exit(1);
                }
                // Dump until the next symbol (or 64 instructions).
                let mut end = addr + 256;
                for &a in image.symbols.values() {
                    if a > addr && a < end {
                        end = a;
                    }
                }
                let off = (addr - text.base) as usize;
                let len = ((end - addr) as usize).min(text.bytes.len() - off);
                print!("{}", om_alpha::disasm::section(addr, &text.bytes[off..off + len]));
            }
        }
        return;
    }

    let trace = (trace_json.is_some() || trace_summary).then(om_obs::Trace::new);
    let _guard = trace.as_ref().map(om_obs::Trace::install);

    // The block-cache engine, with the per-instruction reference
    // interpreter behind `--reference`. Either way one run feeds every
    // requested observer, so the flags compose without re-executing.
    let run: Result<(RunResult, Option<TimingStats>, Option<Profile>), om_sim::ExecError> =
        if reference {
            let mut pipe = Pipeline::default();
            let mut prof = profile_path.as_ref().map(|_| ProfileObserver::new(&image));
            (|| {
                let mut machine = Machine::load(&image)?;
                let r = match (timing, prof.as_mut()) {
                    (false, None) => machine.run(limit, &mut NoTiming),
                    (true, None) => machine.run(limit, &mut pipe),
                    (false, Some(p)) => machine.run(limit, p),
                    (true, Some(p)) => machine.run(limit, &mut Tee { a: &mut pipe, b: p }),
                }?;
                Ok((
                    r,
                    timing.then(|| pipe.stats()),
                    prof.take().map(ProfileObserver::finish),
                ))
            })()
        } else {
            match (timing, profile_path.is_some()) {
                (false, false) => run_fast(&image, limit).map(|r| (r, None, None)),
                (true, false) => run_timed_fast(&image, limit).map(|(r, t)| (r, Some(t), None)),
                (false, true) => {
                    run_profiled_fast(&image, limit).map(|(r, p)| (r, None, Some(p)))
                }
                (true, true) => run_timed_profiled_fast(&image, limit)
                    .map(|(r, t, p)| (r, Some(t), Some(p))),
            }
        };
    let (r, stats, profile) = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("asim: {e}");
            exit(1);
        }
    };
    if let Some(t) = &trace {
        if let Some(out) = &trace_json {
            if let Err(e) = std::fs::write(out, t.chrome_json("asim")) {
                eprintln!("asim: cannot write {out}: {e}");
                exit(1);
            }
            eprintln!("asim: wrote trace {out}");
        }
        if trace_summary {
            print!("{}", t.summary());
        }
    }

    if let (Some(out), Some(profile)) = (&profile_path, &profile) {
        if let Err(e) = std::fs::write(out, profile.to_json()) {
            eprintln!("asim: cannot write {out}: {e}");
            exit(1);
        }
        eprintln!(
            "asim: wrote profile {out} ({} procs, {} insts)",
            profile.procs.len(),
            profile.total_insts
        );
    }

    for v in &r.output {
        println!("{v}");
    }
    if let Some(t) = stats {
        eprintln!(
            "asim: result {} | {} insts, {} cycles ({:.2} IPC), {} dual-issued, {} nops",
            r.result,
            t.insts,
            t.cycles,
            t.insts as f64 / t.cycles.max(1) as f64,
            t.dual_issued,
            t.nops
        );
        eprintln!(
            "asim: icache {} misses | dcache {} misses",
            t.icache_misses, t.dcache_misses
        );
    } else {
        eprintln!("asim: result {} ({} instructions)", r.result, r.insts);
    }
    exit(exit_code(r.result));
}

#[cfg(test)]
mod tests {
    use super::exit_code;

    #[test]
    fn nonzero_results_never_exit_zero() {
        assert_eq!(exit_code(0), 0);
        assert_eq!(exit_code(1), 1);
        assert_eq!(exit_code(113), 113);
        // Multiples of 128 lose their low 7 bits; they must still be nonzero.
        assert_eq!(exit_code(128), 1);
        assert_eq!(exit_code(256), 1);
        assert_eq!(exit_code(-128), 1);
        assert_eq!(exit_code(1 << 32), 1);
    }
}

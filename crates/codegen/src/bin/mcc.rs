//! `mcc` — the mini-C compiler driver.
//!
//! ```text
//! mcc [-O0|-O2] [--no-schedule] [--all] [-o OUT.o | --ar LIB.a] FILE.mc...
//! ```
//!
//! Compiles each source to an object file (`FILE.o` next to the source, or
//! `-o` for a single input), or all sources monolithically with `--all`
//! (the paper's interprocedural compile-all), or into an archive with
//! `--ar`. `--no-schedule` turns off the compile-time list scheduler.
//!
//! A usage error (no input, an unknown option, a missing flag value, `-o`
//! with `--ar`, `--all` with `--ar`, or `-o` with several inputs and no
//! `--all`) exits 2 with the usage text before any source is read; an
//! unreadable or invalid source or an unwritable output exits 1.

use om_codegen::{compile_all_sources, compile_source, CompileOpts};
use om_objfile::{binary, Archive};
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str =
    "usage: mcc [-O0|-O2] [--no-schedule] [--all] [-o OUT.o | --ar LIB.a] FILE.mc...";

/// Reports a usage error and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("mcc: {msg}\n{USAGE}");
    exit(2);
}

/// Writes one output file, or reports why it cannot and exits 1.
fn write(path: &Path, bytes: &[u8]) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("mcc: cannot write {}: {e}", path.display());
        exit(1);
    }
    eprintln!("mcc: wrote {}", path.display());
}

fn main() {
    let mut opts = CompileOpts::o2();
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut output: Option<PathBuf> = None;
    let mut archive: Option<PathBuf> = None;
    let mut all = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    // The path following the flag at `args[*i]`, consumed.
    let path = |i: &mut usize| -> PathBuf {
        *i += 1;
        match args.get(*i) {
            Some(p) => PathBuf::from(p),
            None => usage(&format!("{} needs a path", args[*i - 1])),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "-O0" => opts = CompileOpts::o0(),
            "-O2" => opts = CompileOpts::o2(),
            "--no-schedule" => opts.schedule = false,
            "--all" => all = true,
            "-o" => output = Some(path(&mut i)),
            "--ar" => archive = Some(path(&mut i)),
            f if !f.starts_with('-') => inputs.push(PathBuf::from(f)),
            other => usage(&format!("unknown option {other}")),
        }
        i += 1;
    }
    if inputs.is_empty() {
        usage("no input files");
    }
    if archive.is_some() && (all || output.is_some()) {
        usage("--ar cannot be combined with --all or -o");
    }
    if output.is_some() && !all && inputs.len() != 1 {
        usage("-o requires exactly one input (use --ar or --all)");
    }

    let stem = |p: &Path| {
        p.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "module".to_string())
    };
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("mcc: cannot read {}: {e}", p.display());
            exit(1);
        })
    };

    if all {
        let sources: Vec<(String, String)> =
            inputs.iter().map(|p| (stem(p), read(p))).collect();
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let name = output
            .as_ref()
            .map(|p| stem(p))
            .unwrap_or_else(|| "all".to_string());
        let module = compile_all_sources(&name, &refs, &opts).unwrap_or_else(|e| {
            eprintln!("mcc: {e}");
            exit(1);
        });
        let out = output.unwrap_or_else(|| PathBuf::from(format!("{name}.o")));
        write(&out, &binary::write_module(&module));
        return;
    }

    let mut modules = Vec::new();
    for p in &inputs {
        let module = compile_source(&stem(p), &read(p), &opts).unwrap_or_else(|e| {
            eprintln!("mcc: {}: {e}", p.display());
            exit(1);
        });
        modules.push((p.clone(), module));
    }

    if let Some(arpath) = archive {
        let name = stem(&arpath);
        let mut ar = Archive::new(name);
        for (_, m) in modules {
            ar.add(m).unwrap_or_else(|e| {
                eprintln!("mcc: {e}");
                exit(1);
            });
        }
        write(&arpath, &binary::write_archive(&ar));
        return;
    }

    if let Some(out) = output {
        write(&out, &binary::write_module(&modules[0].1));
        return;
    }

    for (p, m) in modules {
        write(&p.with_extension("o"), &binary::write_module(&m));
    }
}

//! `mcc` — the mini-C compiler driver.
//!
//! ```text
//! mcc [-O0|-O2] [--all] [-o OUT.o | --ar LIB.a] FILE.mc...
//! ```
//!
//! Compiles each source to an object file (`FILE.o` next to the source, or
//! `-o` for a single input), or all sources monolithically with `--all`
//! (the paper's interprocedural compile-all), or into an archive with
//! `--ar`.

use om_codegen::{compile_all_sources, compile_source, CompileOpts};
use om_objfile::{binary, Archive};
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: mcc [-O0|-O2] [--all] [-o OUT.o | --ar LIB.a] FILE.mc...");
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
    while i < args.len() {
        match args[i].as_str() {
            "-O0" => opts = CompileOpts::o0(),
            "-O2" => opts = CompileOpts::o2(),
            "--no-schedule" => opts.schedule = false,
            "--all" => all = true,
            "-o" => {
                i += 1;
                output = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--ar" => {
                i += 1;
                archive = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            f if !f.starts_with('-') => inputs.push(PathBuf::from(f)),
            _ => usage(),
        }
        i += 1;
    }
    if inputs.is_empty() {
        usage();
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
        if modules.len() != 1 {
            eprintln!("mcc: -o requires exactly one input (use --ar or --all)");
            exit(2);
        }
        write(&out, &binary::write_module(&modules[0].1));
        return;
    }

    for (p, m) in modules {
        write(&p.with_extension("o"), &binary::write_module(&m));
    }
}

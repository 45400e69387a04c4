//! `mld` — the standard (non-optimizing) linker driver.
//!
//! ```text
//! mld [-o OUT.exe] [--trace-json TRACE.json] FILE.o... [LIB.a...]
//! ```
//!
//! Inputs ending in `.a` are searched as archives (in the order given);
//! everything else is an explicit object. Writes an executable image and
//! prints link statistics. Commons are placed in input order, as the
//! standard linker places them.
//!
//! `--trace-json` records the link as a chrome://tracing trace-event file,
//! as `om --trace-json` does: an `mld` span (with the process's
//! `peak_rss_kb`) holding `select`, `symtab`, `link.layout` and
//! `link.image`, the layers `om`'s final link shares, so `omtrace
//! summarize` puts the two tools side by side.
//!
//! A usage error (no input object, an unknown option, a missing `-o` or
//! `--trace-json` value) exits 2 with the usage text before any input is
//! read; an unreadable or malformed input, a failed link or an unwritable
//! output or trace exits 1.

use om_linker::{link_modules, LayoutOpts};
use om_objfile::binary;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: mld [-o OUT.exe] [--trace-json TRACE.json] FILE.o... [LIB.a...]";

/// Reports a usage error and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("mld: {msg}\n{USAGE}");
    exit(2);
}

fn main() {
    om_obs::exit_quietly_on_closed_stdout();
    let mut inputs = Vec::new();
    let mut out = PathBuf::from("a.exe");
    let mut trace_json: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                i += 1;
                out = PathBuf::from(args.get(i).unwrap_or_else(|| usage("-o needs a path")));
            }
            "--trace-json" => {
                i += 1;
                let path = args.get(i).unwrap_or_else(|| usage("--trace-json needs a path"));
                trace_json = Some(PathBuf::from(path));
            }
            f if !f.starts_with('-') => inputs.push(f.to_string()),
            other => usage(&format!("unknown option {other}")),
        }
        i += 1;
    }
    if inputs.iter().all(|f| f.ends_with(".a")) {
        usage("no input objects");
    }

    let (objects, libs) = binary::read_inputs(&inputs).unwrap_or_else(|e| {
        eprintln!("mld: {e}");
        exit(1);
    });

    let trace = trace_json.is_some().then(om_obs::Trace::new);
    let guard = trace.as_ref().map(om_obs::Trace::install);
    let result = {
        let mut span = om_obs::span("mld");
        let result = link_modules(&objects, &libs, &LayoutOpts::default());
        if let Some(kb) = om_obs::enabled().then(om_obs::peak_rss_kb).flatten() {
            span.arg("peak_rss_kb", kb);
        }
        result
    };
    // The image is written from its own copy: free the inputs first.
    drop((objects, libs));
    drop(guard);
    if let (Some(t), Some(path)) = (&trace, &trace_json) {
        if let Err(e) = std::fs::write(path, t.chrome_json("mld")) {
            eprintln!("mld: cannot write {}: {e}", path.display());
            exit(1);
        }
        eprintln!("mld: wrote trace {}", path.display());
    }

    match result {
        Ok((image, stats)) => {
            if let Err(e) = std::fs::write(&out, image.to_bytes()) {
                eprintln!("mld: cannot write {}: {e}", out.display());
                exit(1);
            }
            eprintln!(
                "mld: wrote {} ({} modules, text {} bytes, GAT {} slots in {} group(s))",
                out.display(),
                stats.modules,
                stats.text_bytes,
                stats.gat_slots,
                stats.gp_groups
            );
        }
        Err(e) => {
            eprintln!("mld: {e}");
            exit(1);
        }
    }
}

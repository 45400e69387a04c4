//! `genbench` — write a synthetic benchmark's mini-C sources (and the
//! standard library's) to a directory, so the whole pipeline can be driven
//! through the command-line tools:
//!
//! ```text
//! genbench spice out/
//! mcc out/*.mc                       # each source -> out/*.o
//! om -o spice.exe out/*.o out/libstd.a --stats
//! asim --timing spice.exe
//! ```
//!
//! (`out/crt0.o` and `out/libstd.a` are emitted pre-built; the library
//! sources under `out/lib/` are included for inspection or rebuilding with
//! `mcc --ar`.)
//!
//! `genbench --scale N out/` writes the N-module scale workload instead —
//! the program that forces multi-GAT group splits at real size (N user
//! modules, 100 procedures each; see `om_workloads::scale`). At large N,
//! compile the sources in partitioned groups (`mcc --all` over chunks) or
//! one `mcc` per source; a monolithic merge of all N would exceed a single
//! GP group's capacity and the linker will refuse it with a Range error.

use om_codegen::crt0;
use om_objfile::binary;
use om_workloads::build::stdlib_archive;
use om_workloads::scale;
use om_workloads::spec;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(name), Some(dir)) = (args.next(), args.next()) else {
        eprintln!("usage: genbench BENCHMARK OUTDIR [--quick]");
        eprintln!("       genbench --scale N OUTDIR");
        eprintln!("benchmarks: {}", spec::all().iter().map(|s| s.name).collect::<Vec<_>>().join(" "));
        exit(2);
    };

    let user_sources: Vec<(String, String)> = if name == "--scale" {
        let Ok(n) = dir.parse::<usize>() else {
            eprintln!("genbench: --scale needs a module count");
            exit(2);
        };
        if !(2..=4000).contains(&n) {
            eprintln!("genbench: --scale module count must be in 2..=4000");
            exit(2);
        }
        let Some(outdir) = args.next() else {
            eprintln!("usage: genbench --scale N OUTDIR");
            exit(2);
        };
        let sp = scale::scale_spec(n);
        eprintln!(
            "genbench: scale{} = {} modules x {} procs ({} procedures; compile in groups of <= {})",
            n,
            sp.modules,
            sp.procs_per_module,
            scale::total_procs(&sp),
            scale::chunk_modules(&sp)
        );
        return write_out(&outdir, scale::sources(&sp));
    } else {
        let Some(mut s) = spec::by_name(&name) else {
            eprintln!("genbench: unknown benchmark `{name}`");
            exit(2);
        };
        if args.next().as_deref() == Some("--quick") {
            s = spec::quick(&s);
        }
        om_workloads::build::sources(&s)
    };
    write_out(&dir, user_sources);
}

/// Exits 1 with `genbench: cannot write PATH: ERR` when writing `path`
/// failed.
fn written(path: &Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("genbench: cannot write {}: {e}", path.display());
        exit(1);
    }
}

fn write_out(dir: &str, user_sources: Vec<(String, String)>) {
    let dir = PathBuf::from(dir);
    written(&dir, std::fs::create_dir_all(&dir));
    let libdir = dir.join("lib");
    written(&libdir, std::fs::create_dir_all(&libdir));

    let n_user = user_sources.len();
    for (module, src) in user_sources {
        let p = dir.join(format!("{module}.mc"));
        written(&p, std::fs::write(&p, src));
    }
    eprintln!("genbench: wrote {n_user} sources to {}", dir.display());
    for (module, src) in om_workloads::stdlib::STDLIB_SOURCES {
        let p = libdir.join(format!("{module}.mc"));
        written(&p, std::fs::write(&p, src));
    }
    eprintln!("genbench: wrote {} library sources to {}", om_workloads::stdlib::STDLIB_SOURCES.len(), libdir.display());

    // Convenience: a pre-built libstd.a and crt0.o so the tool pipeline can
    // start immediately.
    let (lib_a, crt0_o) = (dir.join("libstd.a"), dir.join("crt0.o"));
    let ar = stdlib_archive().unwrap();
    written(&lib_a, std::fs::write(&lib_a, binary::write_archive(&ar)));
    let start = crt0::module().expect("the built-in crt0 assembles");
    written(&crt0_o, std::fs::write(&crt0_o, binary::write_module(&start)));
    eprintln!("genbench: wrote {} and {}", lib_a.display(), crt0_o.display());
}

//! Run one synthetic SPEC92 benchmark through the whole evaluation pipeline:
//! both compile modes, the standard link, and every OM level, reporting the
//! dynamic improvement the way Figure 6 does.
//!
//! ```text
//! cargo run --release --example spec_pipeline -- spice
//! ```

use om_repro::core::{optimize_and_link, OmLevel};
use om_repro::linker::{link_modules, LayoutOpts};
use om_repro::sim::run_timed;
use om_repro::workloads::build::{build, CompileMode};
use om_repro::workloads::spec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "spice".to_string());
    let Some(spec) = spec::by_name(&name) else {
        eprintln!("unknown benchmark `{name}`; try one of:");
        for s in spec::all() {
            eprint!(" {}", s.name);
        }
        eprintln!();
        std::process::exit(2);
    };

    println!(
        "benchmark {name}: {} modules x {} procs, {} main-loop iterations",
        spec.modules, spec.procs_per_module, spec.iters
    );

    for mode in [CompileMode::Each, CompileMode::All] {
        let built = build(&spec, mode)?;
        let (image, _) = link_modules(&built.objects, &built.libs, &LayoutOpts::default())?;
        let (base_run, base) = run_timed(&image, 2_000_000_000)?;
        println!(
            "\n{}: checksum {}, baseline {} cycles / {} insts",
            mode.name(),
            base_run.result,
            base.cycles,
            base.insts
        );

        for level in [OmLevel::Simple, OmLevel::Full, OmLevel::FullSched] {
            let out = optimize_and_link(&built.objects, &built.libs, level)?;
            let (r, t) = run_timed(&out.image, 2_000_000_000)?;
            assert_eq!(r.result, base_run.result, "semantics preserved");
            println!(
                "  {:16} {:>10} cycles  ({:+.2}%)  insts {:>9}  dual-issue {:>5.1}%",
                level.name(),
                t.cycles,
                (base.cycles as f64 / t.cycles as f64 - 1.0) * 100.0,
                t.insts,
                100.0 * t.dual_issued as f64 / t.insts as f64,
            );
        }
    }
    Ok(())
}

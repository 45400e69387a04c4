//! Quickstart: compile a small two-module program, link it twice — once with
//! the standard linker and once through OM-full — and show what the
//! link-time optimizer did.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use om_repro::codegen::{compile_source, crt0, CompileOpts};
use om_repro::core::{optimize_and_link, OmLevel};
use om_repro::linker::{link_modules, LayoutOpts};
use om_repro::sim::run_image;

const MAIN_SRC: &str = "
    extern int scale(int);
    int counter;
    int main() {
        int i = 0;
        for (i = 0; i < 10; i = i + 1) { counter = counter + scale(i); }
        return counter;
    }";

const LIB_SRC: &str = "
    int factor = 3;
    int scale(int x) { return x * factor; }";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = CompileOpts::o2();
    let objects = vec![
        crt0::module()?,
        compile_source("main", MAIN_SRC, &opts)?,
        compile_source("lib", LIB_SRC, &opts)?,
    ];

    // Standard link: the baseline the paper measures against.
    let (baseline, link_stats) = link_modules(&objects, &[], &LayoutOpts::default())?;
    let base_run = run_image(&baseline, 1_000_000)?;
    println!("standard link: {} modules, GAT {} slots", link_stats.modules, link_stats.gat_slots);
    println!("  result = {}, {} instructions retired", base_run.result, base_run.insts);

    // The same objects through OM-full.
    let out = optimize_and_link(&objects, &[], OmLevel::Full)?;
    let om_run = run_image(&out.image, 1_000_000)?;
    assert_eq!(om_run.result, base_run.result, "OM must preserve semantics");

    let s = out.stats;
    println!("\nOM-full:");
    println!("  result  = {} (identical, as it must be)", om_run.result);
    println!(
        "  address loads: {} total, {} converted, {} nullified",
        s.addr_loads_total, s.addr_loads_converted, s.addr_loads_nullified
    );
    println!(
        "  instructions deleted: {} of {} ({:.1}%)",
        s.insts_deleted,
        s.insts_before,
        100.0 * s.inst_fraction_removed()
    );
    println!(
        "  GAT: {} -> {} slots",
        s.gat_slots_before, s.gat_slots_after
    );
    println!(
        "  dynamic: {} -> {} instructions retired",
        base_run.insts, om_run.insts
    );

    Ok(())
}

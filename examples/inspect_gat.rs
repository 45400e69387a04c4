//! Inspect the global address table: how the linker merges and deduplicates
//! per-module GATs (§2), and how far OM-full's GAT reduction shrinks the
//! result (§5.1 reports an order of magnitude).
//!
//! ```text
//! cargo run --example inspect_gat
//! ```

use om_repro::codegen::{compile_source, crt0, CompileOpts};
use om_repro::core::{optimize_and_link, OmLevel};
use om_repro::linker::{link_modules, LayoutOpts};

/// Three modules that share some globals and procedures: their GATs overlap,
/// so the merged table is smaller than the sum.
const MODS: &[(&str, &str)] = &[
    (
        "alpha",
        "extern int shared_fn(int); extern int shared_g;
         int a1; int a2;
         int alpha_work(int x) { a1 = a1 + x; a2 = a2 ^ shared_g; return shared_fn(a1); }",
    ),
    (
        "beta",
        "extern int shared_fn(int); extern int shared_g;
         int b1;
         int beta_work(int x) { b1 = b1 + shared_g; return shared_fn(b1 + x); }",
    ),
    (
        "gamma",
        "int shared_g = 42;
         int shared_fn(int x) { shared_g = shared_g + 1; return x + shared_g; }
         extern int alpha_work(int); extern int beta_work(int);
         int main() { return alpha_work(1) + beta_work(2); }",
    ),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module()?];
    let mut per_module_entries = 0;
    for (name, src) in MODS {
        let m = compile_source(name, src, &opts)?;
        println!("module {name:6}: {} GAT entries", m.lita.len());
        per_module_entries += m.lita.len();
        objects.push(m);
    }
    per_module_entries += objects[0].lita.len();

    let (_, stats) = link_modules(&objects, &[], &LayoutOpts::default())?;
    println!(
        "\nstandard link: {} entries across modules -> {} merged slots ({} duplicates removed)",
        per_module_entries,
        stats.gat_slots,
        per_module_entries - stats.gat_slots
    );

    for level in [OmLevel::Simple, OmLevel::Full] {
        let out = optimize_and_link(&objects, &[], level)?;
        println!(
            "{:10}: GAT {} -> {} slots ({:.0}% of original)",
            level.name(),
            out.stats.gat_slots_before,
            out.stats.gat_slots_after,
            100.0 * out.stats.gat_ratio()
        );
    }

    let out = optimize_and_link(&objects, &[], OmLevel::Full)?;
    let r = om_repro::sim::run_image(&out.image, 100_000)?;
    println!("\nprogram result (unchanged by all of this): {}", r.result);
    Ok(())
}

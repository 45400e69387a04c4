//! Ablation studies over OM's design choices (the knobs DESIGN.md calls
//! out). Each row toggles exactly one mechanism and reports what it buys:
//!
//! * **common sorting** — OM-simple's layout policy of placing commons by
//!   size next to the GAT (more objects in the 16-bit GP window);
//! * **GAT-reduction fixpoint** — one reduction round vs iterating until no
//!   further address load becomes nullifiable;
//! * **quadword alignment** — padding backward-branch targets to 8-byte
//!   boundaries during rescheduling (the paper found it *hurt* `ear`).
//!
//! ```text
//! cargo run --release -p om-bench --bin ablations [--bench NAME]...
//! ```

use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_sim::run_timed;
use om_workloads::build::{build, CompileMode};
use om_workloads::spec;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: ablations [--bench NAME]...");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut filter: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                i += 1;
                match args.get(i) {
                    Some(name) if !name.is_empty() && !name.starts_with('-') => {
                        filter.push(name.clone());
                    }
                    _ => usage("--bench needs a benchmark name"),
                }
            }
            a => usage(&format!("unknown argument `{a}`")),
        }
        i += 1;
    }
    let specs: Vec<_> = spec::all()
        .into_iter()
        .filter(|s| filter.is_empty() || filter.iter().any(|f| f == s.name))
        .collect();
    if specs.is_empty() {
        usage("no benchmarks match the filter");
    }

    println!(
        "{:10} | {:>9} {:>9} | {:>8} {:>8} | {:>10} {:>10}",
        "bench", "nu(sort)", "nu(!sort)", "gat(fix)", "gat(1rd)", "cyc(align)", "cyc(!algn)"
    );
    println!("{}", "-".repeat(78));

    for s in &specs {
        let built = build(s, CompileMode::Each).unwrap();
        let run = |level: OmLevel, options: OmOptions| {
            let out =
                optimize_and_link_with(&built.objects, &built.libs, level, &options).unwrap();
            let (r, t) = run_timed(&out.image, 2_000_000_000).unwrap();
            (out.stats, r.result, t.cycles)
        };

        // Ablation 1: common sorting under OM-simple.
        let (sorted, res_a, _) = run(OmLevel::Simple, OmOptions::default());
        let (unsorted, res_b, _) = run(
            OmLevel::Simple,
            OmOptions { sort_commons: false, ..OmOptions::default() },
        );
        assert_eq!(res_a, res_b, "{}: sorting must not change results", s.name);

        // Ablation 2: GAT-reduction fixpoint vs a single round.
        let (fix, res_c, _) = run(OmLevel::Full, OmOptions::default());
        let (one, res_d, _) = run(
            OmLevel::Full,
            OmOptions { max_rounds: 1, ..OmOptions::default() },
        );
        assert_eq!(res_c, res_d, "{}: rounds must not change results", s.name);

        // Ablation 3: quadword alignment under rescheduling.
        let (_, res_e, cyc_align) = run(OmLevel::FullSched, OmOptions::default());
        let (_, res_f, cyc_noalign) = run(
            OmLevel::FullSched,
            OmOptions { align_backward_targets: false, ..OmOptions::default() },
        );
        assert_eq!(res_e, res_f, "{}: alignment must not change results", s.name);

        println!(
            "{:10} | {:>9} {:>9} | {:>8} {:>8} | {:>10} {:>10}",
            s.name,
            sorted.addr_loads_nullified,
            unsorted.addr_loads_nullified,
            fix.gat_slots_after,
            one.gat_slots_after,
            cyc_align,
            cyc_noalign,
        );
    }

    println!(
        "\nnu    = address loads nullified by OM-simple (with/without sorted commons)\n\
         gat   = GAT slots after OM-full (fixpoint vs one reduction round)\n\
         cyc   = cycles after OM-full w/sched (with/without quadword alignment)"
    );
}

//! Evaluation harness: regenerates every table and figure of the paper's §5
//! over the synthetic SPEC92 suite.
//!
//! Run the full reproduction with:
//!
//! ```text
//! cargo run --release -p om-bench --bin reproduce -- all
//! ```
//!
//! or individual artifacts (`fig3 fig4 fig5 fig6 fig7 gat`), optionally with
//! `--quick` (fewer loop iterations), `--bench <name>` filters, `--jobs N`
//! (worker threads; defaults to the machine's parallelism), and
//! `--json PATH` (machine-readable rows plus timings). `fig7` times the
//! build pipeline itself — the paper's Figure 7 comparison; the `omperf`
//! benchmark in `perfbench/` times it end to end and per layer.
//!
//! The harness is parallel and duplicate-work-free: benchmarks build and
//! measure on a scoped worker pool ([`par::parallel_map`]), and
//! [`figures::Prepared`] memoizes each `(mode, level)` pipeline run so
//! overlapping figures share it. Output is collected in spec order, so it is
//! byte-identical at any `--jobs` width.

pub mod adversarial;
pub mod figures;
pub mod fleet;
pub mod fuzz;
pub mod json;
pub mod mutate;
pub mod par;
pub mod render;
pub mod scale;

pub use figures::{fig3, fig4, fig5, fig6, fig7, gat, Prepared};
pub use par::{default_jobs, parallel_map};

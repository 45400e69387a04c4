//! Alpha-subset simulator: the reproduction's stand-in for the paper's
//! DECstation 3000 Model 400.
//!
//! Functional execution is exact and strict (faults on anything ill-formed);
//! timing is a 21064-class model — dual issue with quadword alignment,
//! 3-cycle loads, direct-mapped I/D caches — which is what gives OM's
//! transformations their dynamic effect.
//!
//! # Example
//!
//! ```
//! use om_codegen::{compile_source, crt0, CompileOpts};
//! use om_linker::{link_modules, LayoutOpts};
//! use om_sim::run_timed;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let obj = compile_source(
//!     "m",
//!     "int main() { int s = 0; int i = 0;
//!        for (i = 1; i <= 10; i = i + 1) { s = s + i; }
//!        return s; }",
//!     &CompileOpts::o2(),
//! )?;
//! let (image, _) = link_modules(&[crt0::module()?, obj], &[], &LayoutOpts::default())?;
//! let (result, timing) = run_timed(&image, 1_000_000)?;
//! assert_eq!(result.result, 55);
//! assert!(timing.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod block;
pub mod exec;
pub mod mem;
pub mod profile;
pub mod timing;
mod uop;

pub use block::{
    run_covered_fast, run_fast, run_profiled_fast, run_timed_fast, run_timed_profiled_fast,
};
pub use exec::{
    run_image, text_segment, Divergence, ExecError, Machine, NoTiming, Observer, Retired, RunResult,
};
pub use mem::{Fault, Mem, STACK_BASE, STACK_SIZE, STACK_TOP};
pub use profile::{ProfileObserver, Tee};
pub use timing::{Cache, Pipeline, TimingStats};

use om_core::profile::Profile;
use om_linker::Image;

/// Runs `image` with the default 21064-class timing model.
///
/// # Errors
///
/// Returns [`ExecError`] on faults or when `limit` instructions retire
/// without reaching HALT.
pub fn run_timed(image: &Image, limit: u64) -> Result<(RunResult, TimingStats), ExecError> {
    let mut pipe = Pipeline::default();
    let mut machine = Machine::load(image)?;
    let result = machine.run(limit, &mut pipe)?;
    Ok((result, pipe.stats()))
}

/// Runs `image` functionally while collecting an execution [`Profile`]
/// (per-procedure instruction and call counts, call edges, backward-branch
/// target executions) for profile-guided relinking.
///
/// # Errors
///
/// Returns [`ExecError`] on faults or when `limit` instructions retire
/// without reaching HALT.
pub fn run_profiled(image: &Image, limit: u64) -> Result<(RunResult, Profile), ExecError> {
    let mut obs = ProfileObserver::new(image);
    let mut machine = Machine::load(image)?;
    let result = machine.run(limit, &mut obs)?;
    Ok((result, obs.finish()))
}

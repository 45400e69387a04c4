//! OM: the link-time address-calculation optimizer of Srivastava & Wall,
//! *Link-Time Optimization of Address Calculation on a 64-bit Architecture*
//! (PLDI 1994) — the primary contribution this workspace reproduces.
//!
//! OM is an optimizing linker: it takes the entire statically-linked program
//! (user objects plus pre-compiled library members), translates the object
//! code into a symbolic form, improves the conservative global-address
//! calculation the compilers had to emit, and links the result:
//!
//! * **OM-simple** ([`OmLevel::Simple`]) — what a traditional linker could
//!   do: in-place conversion of GAT address loads to LDA/LDAH, nullification
//!   to no-ops, JSR→BSR, GP-reset removal, commons sorted next to the GAT.
//! * **OM-full** ([`OmLevel::Full`]) — moves and deletes code: prologue GP
//!   setup restored to procedure entries and removed when every call is a
//!   same-GAT BSR, PV loads deleted, the GAT reduced to a fixpoint.
//! * **OM-full w/sched** ([`OmLevel::FullSched`]) — adds final per-block
//!   rescheduling and quadword alignment of backward-branch targets.
//!
//! # Example
//!
//! ```
//! use om_codegen::{compile_source, crt0, CompileOpts};
//! use om_core::{optimize_and_link, OmLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let obj = compile_source(
//!     "m",
//!     "int hits; int main() { int i = 0;
//!        for (i = 0; i < 10; i = i + 1) { hits = hits + i; }
//!        return hits; }",
//!     &CompileOpts::o2(),
//! )?;
//! let out = optimize_and_link(&[crt0::module()?, obj], &[], OmLevel::Full)?;
//! assert!(out.stats.addr_loads_nullified > 0);
//! assert_eq!(om_sim::run_image(&out.image, 100_000)?.result, 45);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod cache;
pub mod fault;
pub mod full;
pub mod hash;
pub mod obs;
pub mod pgo;
pub mod pipeline;
pub mod profile;
pub mod resched;
pub mod simple;
pub mod stats;
pub mod sym;
pub mod verify;

pub use cache::{CacheStats, Lru, OmCaches};
pub use fault::{FaultKind, FaultPlan};
pub use hash::{archive_hash, link_key, module_hash, options_fingerprint, ContentHash};
pub use pipeline::{
    optimize_and_link, optimize_and_link_artifacts, optimize_and_link_keyed,
    optimize_and_link_with, pipeline_runs, CallBook, OmLevel, OmOptions, OmOutput,
};
pub use profile::{CallEdge, ProcProfile, Profile, ProfileError};
pub use stats::OmStats;
pub use sym::{GlobalRef, OmError, SymProgram};
pub use verify::VerifyReport;

//! `om-obs` — structured tracing and metrics for the OM reproduction.
//!
//! The paper sells OM with per-optimization accounting: instructions removed
//! per transformation, link-time cost per phase. This crate is the substrate
//! that accounting flows through, shared by every layer of the workspace —
//! the `om_core` pipeline passes, the linker's layout/image phases, the
//! block-cache simulator, and the `omd` link server.
//!
//! Three primitives, no dependencies:
//!
//! * **Spans** ([`span`]) — RAII-timed named regions recorded against the
//!   thread's installed [`Trace`]. Exported as chrome://tracing "complete"
//!   events ([`Trace::chrome_json`]) or a human-readable table
//!   ([`Trace::summary`]). Spans carry wall-clock time and are therefore
//!   report-only: never diffed, never gated.
//! * **Counters** ([`count`]) — named `u64` sums. Counters are
//!   *deterministic by contract*: a counter may only record facts that are
//!   identical for identical inputs (instructions deleted, blocks decoded,
//!   cache misses under coalescing), never wall time. Their JSON export
//!   ([`Sink::counters_json`]) is byte-identical at any thread width once
//!   per-thread sinks are merged, which is what lets `reproduce check`
//!   gate per-pass counters like any other figure row.
//! * **Timers** ([`timer_ns`]) — named nanosecond totals for regions too
//!   hot or too fragmented to span individually (the simulator's decode vs
//!   dispatch split). Wall-clock, report-only, excluded from
//!   [`Sink::counters_json`].
//!
//! Everything is zero-cost when no trace is installed: each instrumentation
//! site is one thread-local load and a branch.
//!
//! [`Histogram`] is the shared fixed-bucket log2 latency histogram — the
//! single quantile implementation behind `omd stats`' per-endpoint p50/p99
//! latency lines.
//!
//! [`json`] is the workspace's one JSON reader and string quoter: profiles,
//! the BENCH report gate and trace files all parse through it.

pub mod hist;
pub mod json;
pub mod trace;

pub use hist::{Histogram, HIST_BUCKETS};
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue, TraceSpan};
pub use trace::{
    count, enabled, span, timer_ns, InstallGuard, Sink, Span, SpanEvent, Trace,
};

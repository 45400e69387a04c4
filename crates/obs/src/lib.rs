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
//!
//! [`exit_quietly_on_closed_stdout`] is how every tool that prints a report
//! stops when its reader goes away (`omtrace summarize ... | head -1`).

pub mod hist;
pub mod json;
pub mod trace;

pub use hist::{Histogram, HIST_BUCKETS};
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue, TraceSpan};
pub use trace::{
    count, enabled, peak_rss_kb, span, timer_ns, InstallGuard, Sink, Span, SpanEvent, Trace,
};

/// Makes a closed stdout end the process quietly. Printing with `println!`
/// into a pipe whose reader has gone panics with "failed printing to
/// stdout: Broken pipe"; under this hook that one panic exits with status
/// 141 (what a shell reports for a process a closed pipe killed) and prints
/// nothing. Every other panic reports as before. Call it first in `main`.
pub fn exit_quietly_on_closed_stdout() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if is_closed_stdout(msg) {
            std::process::exit(141);
        }
        report(info);
    }));
}

/// True for the panic message `println!` gives when stdout is a pipe with
/// no reader: `failed printing to stdout: <error> (os error N)` where
/// error N is a broken pipe.
fn is_closed_stdout(msg: &str) -> bool {
    let Some(error) = msg.strip_prefix("failed printing to stdout: ") else { return false };
    let code = error.rsplit_once("(os error ").and_then(|(_, n)| n.strip_suffix(')')?.parse().ok());
    let kind = code.map(|c| std::io::Error::from_raw_os_error(c).kind());
    kind == Some(std::io::ErrorKind::BrokenPipe)
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_a_broken_stdout_pipe_is_a_closed_stdout() {
        let broken = std::io::Error::from_raw_os_error(32);
        if broken.kind() != std::io::ErrorKind::BrokenPipe {
            return; // EPIPE is 32 on Linux and the BSDs
        }
        assert!(super::is_closed_stdout(&format!("failed printing to stdout: {broken}")));
        assert!(!super::is_closed_stdout(&format!("failed printing to stderr: {broken}")));
        let full = std::io::Error::from_raw_os_error(28); // ENOSPC
        assert!(!super::is_closed_stdout(&format!("failed printing to stdout: {full}")));
        assert!(!super::is_closed_stdout("index out of bounds"));
    }
}

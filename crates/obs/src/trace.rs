//! Spans, counters, and timers against a thread-installed [`Trace`].
//!
//! A [`Trace`] is a cheaply-clonable handle to a shared sink. Threads that
//! want their work recorded install the handle ([`Trace::install`]) for a
//! scope; every [`span`]/[`count`]/[`timer_ns`] call in that scope records
//! into the trace, tagged with a per-install thread id. With no trace
//! installed every instrumentation site is one thread-local load and a
//! branch — the pipeline's hot paths pay nothing in the common case.
//!
//! Determinism contract: **counters** may only record input-determined
//! facts, and counter merging is addition, so the merged counter state (and
//! [`Sink::counters_json`]) is byte-identical at any thread count. Spans
//! and timers carry wall-clock time and are report-only.

use crate::json::quote;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span: a named, timed region on one install of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (dotted lowercase by convention: `pass.convert`,
    /// `link.layout`, `omd.link`).
    pub name: String,
    /// The install's thread id within its trace (dense from 0).
    pub tid: u32,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at record time (0 = top level). Spans on one tid are
    /// properly nested by construction (RAII guards).
    pub depth: u32,
    /// Key/value annotations: per-pass counter deltas and visit counts
    /// (deterministic), and the `pipeline` span's `peak_rss_kb` (from
    /// [`peak_rss_kb`]; report-only, like the span's time).
    pub args: Vec<(String, u64)>,
}

/// The recorded contents of a trace: spans plus merged counters and timers.
/// A `Sink` is plain data — extract one per thread and [`Sink::merge`] them,
/// or let a shared [`Trace`] merge on the fly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sink {
    /// Completed spans, in completion order per thread (wall-clock;
    /// report-only).
    pub spans: Vec<SpanEvent>,
    /// Deterministic named sums.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock nanosecond totals (report-only).
    pub timers_ns: BTreeMap<String, u64>,
}

impl Sink {
    /// Folds `other` into `self`: counters and timers add, spans append.
    /// Counter merging is commutative — any merge order yields the same
    /// counter state.
    pub fn merge(&mut self, other: &Sink) {
        self.spans.extend(other.spans.iter().cloned());
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.timers_ns {
            *self.timers_ns.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// The deterministic counter state as canonical JSON: sorted keys, no
    /// spans, no timers — byte-identical for identical inputs at any
    /// thread width.
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"om-obs-counters/v1\",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", quote(k));
        }
        out.push_str("}}");
        out
    }
}

struct Shared {
    epoch: Instant,
    next_tid: AtomicU32,
    sink: Mutex<Sink>,
}

/// A handle to one trace. Clones share the same sink; install on any number
/// of threads concurrently.
#[derive(Clone)]
pub struct Trace {
    shared: Arc<Shared>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// A fresh, empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                next_tid: AtomicU32::new(0),
                sink: Mutex::new(Sink::default()),
            }),
        }
    }

    /// Installs this trace on the current thread until the guard drops.
    /// Nested installs stack: the innermost wins, and dropping restores the
    /// previous one. Each install gets a fresh dense tid.
    pub fn install(&self) -> InstallGuard {
        let tid = self.shared.next_tid.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(Ctx { trace: self.clone(), tid, depth: 0 })
        });
        InstallGuard { prev }
    }

    /// A snapshot of everything recorded so far.
    pub fn sink(&self) -> Sink {
        self.shared.sink.lock().unwrap().clone()
    }

    /// Folds a detached [`Sink`] (e.g. from another trace's worker thread)
    /// into this trace.
    pub fn absorb(&self, sink: &Sink) {
        self.shared.sink.lock().unwrap().merge(sink);
    }

    /// Convenience: the current deterministic counter map.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.shared.sink.lock().unwrap().counters.clone()
    }

    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Renders the chrome://tracing "trace event format" JSON object:
    /// `traceEvents` holds every span as a complete (`"ph":"X"`) event with
    /// microsecond timestamps; the deterministic counters and the timers
    /// ride along as top-level objects chrome ignores.
    pub fn chrome_json(&self, process_name: &str) -> String {
        let sink = self.sink();
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            quote(process_name)
        );
        for e in &sink.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":{},\"cat\":\"om\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}",
                quote(&e.name),
                us(e.start_ns),
                us(e.dur_ns),
                e.tid,
                e.depth,
            );
            for (k, v) in &e.args {
                let _ = write!(out, ",{}:{v}", quote(k));
            }
            out.push_str("}}");
        }
        out.push_str("],\n\"counters\":{");
        for (i, (k, v)) in sink.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", quote(k));
        }
        out.push_str("},\n\"timersNs\":{");
        for (i, (k, v)) in sink.timers_ns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", quote(k));
        }
        out.push_str("},\n\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// A human-readable summary: per-name span totals, then counters, then
    /// timers. Span wall times vary run to run; the counter section is the
    /// deterministic part.
    pub fn summary(&self) -> String {
        let sink = self.sink();
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for e in &sink.spans {
            let slot = by_name.entry(&e.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += e.dur_ns;
        }
        let mut out = String::new();
        out.push_str("spans (name, count, total ms):\n");
        for (name, (count, total)) in &by_name {
            let _ = writeln!(out, "  {name:<28} {count:>6}  {:>10.3}", *total as f64 / 1e6);
        }
        out.push_str("counters (deterministic):\n");
        for (k, v) in &sink.counters {
            let _ = writeln!(out, "  {k:<44} {v:>12}");
        }
        if !sink.timers_ns.is_empty() {
            out.push_str("timers (wall, ms):\n");
            for (k, v) in &sink.timers_ns {
                let _ = writeln!(out, "  {k:<44} {:>12.3}", *v as f64 / 1e6);
            }
        }
        out
    }
}

/// Formats nanoseconds as decimal microseconds with nanosecond precision
/// (chrome's `ts`/`dur` unit), using integer math only.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

struct Ctx {
    trace: Trace,
    tid: u32,
    depth: u32,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Restores the previously-installed trace (if any) when dropped.
pub struct InstallGuard {
    prev: Option<Ctx>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// True when a trace is installed on this thread — use to gate argument
/// formatting that would otherwise allocate for nothing.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The process's peak resident set size in KiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that cannot be read. It is the
/// peak of the whole process so far, not of one span: for a one-shot `om`
/// the link's peak, for a long-running `omd` the peak since it started.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().strip_suffix("kB")?.trim_end().parse().ok()
}

/// An in-flight span; records a [`SpanEvent`] when dropped. A no-op (and no
/// allocation) when no trace was installed at creation.
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    trace: Trace,
    tid: u32,
    depth: u32,
    name: String,
    start_ns: u64,
    args: Vec<(String, u64)>,
}

impl Span {
    /// Attaches a key/value annotation.
    pub fn arg(&mut self, key: &str, value: u64) {
        if let Some(a) = &mut self.active {
            a.args.push((key.to_string(), value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_ns = a.trace.now_ns().saturating_sub(a.start_ns);
        {
            let mut sink = a.trace.shared.sink.lock().unwrap();
            sink.spans.push(SpanEvent {
                name: a.name,
                tid: a.tid,
                start_ns: a.start_ns,
                dur_ns,
                depth: a.depth,
                args: a.args,
            });
        }
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.depth = ctx.depth.saturating_sub(1);
            }
        });
    }
}

/// Opens a span named `name` on the current thread's trace. Returns an
/// inert guard when no trace is installed.
pub fn span(name: &str) -> Span {
    CURRENT.with(|c| {
        let mut ctx = c.borrow_mut();
        let Some(ctx) = ctx.as_mut() else { return Span { active: None } };
        let depth = ctx.depth;
        ctx.depth += 1;
        Span {
            active: Some(ActiveSpan {
                trace: ctx.trace.clone(),
                tid: ctx.tid,
                depth,
                name: name.to_string(),
                start_ns: ctx.trace.now_ns(),
                args: Vec::new(),
            }),
        }
    })
}

/// Adds `delta` to the named deterministic counter. No-op without an
/// installed trace.
pub fn count(name: &str, delta: u64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let mut sink = ctx.trace.shared.sink.lock().unwrap();
            *sink.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    });
}

/// Adds `ns` to the named wall-clock timer. No-op without an installed
/// trace.
pub fn timer_ns(name: &str, ns: u64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let mut sink = ctx.trace.shared.sink.lock().unwrap();
            *sink.timers_ns.entry(name.to_string()).or_insert(0) += ns;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_inert() {
        assert!(!enabled());
        let mut s = span("nothing");
        s.arg("k", 1);
        drop(s);
        count("c", 5);
        timer_ns("t", 5);
        // Nothing to observe: no trace exists. (The assertions above are
        // that none of this panics or records anywhere.)
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = Trace::new();
        {
            let _g = t.install();
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            count("x", 2);
            count("x", 3);
        }
        assert!(!enabled(), "install guard restored the empty state");
        let sink = t.sink();
        assert_eq!(sink.spans.len(), 2);
        // Completion order: inner first.
        assert_eq!(sink.spans[0].name, "inner");
        assert_eq!(sink.spans[0].depth, 1);
        assert_eq!(sink.spans[1].name, "outer");
        assert_eq!(sink.spans[1].depth, 0);
        assert!(sink.spans[1].start_ns <= sink.spans[0].start_ns);
        assert_eq!(sink.counters.get("x"), Some(&5));
    }

    #[test]
    fn installs_stack() {
        let outer = Trace::new();
        let inner = Trace::new();
        let _g1 = outer.install();
        {
            let _g2 = inner.install();
            count("who", 1);
        }
        count("who", 10);
        assert_eq!(inner.counters().get("who"), Some(&1));
        assert_eq!(outer.counters().get("who"), Some(&10));
    }

    #[test]
    fn counters_json_is_sorted_and_excludes_timers() {
        let t = Trace::new();
        {
            let _g = t.install();
            count("b.two", 2);
            count("a.one", 1);
            timer_ns("wall", 999);
        }
        assert_eq!(
            t.sink().counters_json(),
            "{\"schema\":\"om-obs-counters/v1\",\"counters\":{\"a.one\":1,\"b.two\":2}}"
        );
    }

    #[test]
    fn sink_merge_is_commutative_on_counters() {
        let mk = |pairs: &[(&str, u64)]| {
            let mut s = Sink::default();
            for &(k, v) in pairs {
                *s.counters.entry(k.to_string()).or_insert(0) += v;
            }
            s
        };
        let a = mk(&[("x", 1), ("y", 2)]);
        let b = mk(&[("y", 5), ("z", 1)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters_json(), ba.counters_json());
    }

    #[test]
    fn threads_share_one_trace() {
        let t = Trace::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let _g = t.install();
                    let _s = span("work");
                    count("done", 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sink = t.sink();
        assert_eq!(sink.counters.get("done"), Some(&4));
        assert_eq!(sink.spans.len(), 4);
        let mut tids: Vec<u32> = sink.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3]);
    }
}

//! The in-process link server: a shared [`OmCaches`] plus the library set
//! every request links against, with panic isolation per request.

use crate::wire::{EndpointStats, Pong, ServerStats};
use om_core::{
    archive_hash, optimize_and_link_keyed, ContentHash, OmCaches, OmError, OmLevel, OmOptions,
    OmOutput,
};
use om_obs::Histogram;
use om_objfile::{Archive, Module};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Request-level metrics for a serving `omd`: wire byte counters, the
/// cumulative request count, and one latency [`Histogram`] per endpoint.
/// All methods take `&self`; the socket front end records from many
/// connection threads at once, and histogram merging is order-independent,
/// so the totals are the same at any concurrency.
pub struct ServerMetrics {
    started: Instant,
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latencies: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Fresh metrics; uptime counts from this call.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            latencies: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts one incoming request, returning the new cumulative total (so
    /// a pong reports a count that includes the ping it answers).
    pub fn note_request(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Adds to the wire byte counters (request and reply, frames included).
    pub fn note_bytes(&self, inbound: u64, outbound: u64) {
        self.bytes_in.fetch_add(inbound, Ordering::Relaxed);
        self.bytes_out.fetch_add(outbound, Ordering::Relaxed);
    }

    /// Records one finished request's latency under its endpoint.
    pub fn note_latency(&self, endpoint: &'static str, micros: u64) {
        self.latencies.lock().unwrap().entry(endpoint).or_default().record(micros);
    }

    /// Cumulative requests served.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The `Pong` payload: version, uptime, request count.
    pub fn pong(&self) -> Pong {
        Pong {
            version: env!("CARGO_PKG_VERSION").to_string(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests: self.requests(),
        }
    }

    /// A point-in-time snapshot of every endpoint histogram plus the
    /// counters, with `caches` passed through from the cache layer.
    pub fn snapshot(&self, caches: String) -> ServerStats {
        let endpoints = self
            .latencies
            .lock()
            .unwrap()
            .iter()
            .map(|(&name, h)| EndpointStats { name: name.to_string(), latency_us: h.clone() })
            .collect();
        ServerStats {
            caches,
            version: env!("CARGO_PKG_VERSION").to_string(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests: self.requests(),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            endpoints,
        }
    }
}

/// A successful link response.
#[derive(Debug, Clone)]
pub struct LinkReply {
    /// The finished link, shared with the cache (and with every other
    /// request that produced the same key).
    pub output: Arc<OmOutput>,
    /// True when the whole link was served from the link cache (including
    /// coalescing onto another request's in-flight computation).
    pub cached: bool,
}

/// A link server: the fixed library set, its precomputed content hashes,
/// and the shared caches. Cheap to share behind an [`Arc`]; every method
/// takes `&self` and is safe to call from many threads at once.
pub struct LinkServer {
    libs: Vec<Archive>,
    lib_hashes: Vec<ContentHash>,
    caches: OmCaches,
    metrics: ServerMetrics,
}

impl LinkServer {
    /// A server linking against `libs`, with default cache capacities.
    /// Hashes each archive once, up front — requests never re-hash the
    /// library set.
    pub fn new(libs: Vec<Archive>) -> LinkServer {
        LinkServer::with_caches(libs, OmCaches::default())
    }

    /// A server with caller-tuned cache capacities (the scale figure sizes
    /// them to its program; tests use tiny caches to exercise eviction).
    pub fn with_caches(libs: Vec<Archive>, caches: OmCaches) -> LinkServer {
        let lib_hashes = libs.iter().map(archive_hash).collect();
        LinkServer { libs, lib_hashes, caches, metrics: ServerMetrics::new() }
    }

    /// The shared caches, for stats reporting.
    pub fn caches(&self) -> &OmCaches {
        &self.caches
    }

    /// The server's request metrics (recorded by the socket front end).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The full stats snapshot the `stats` wire reply carries.
    pub fn server_stats(&self) -> ServerStats {
        self.metrics.snapshot(self.stats_line())
    }

    /// The library set this server links against.
    pub fn libs(&self) -> &[Archive] {
        &self.libs
    }

    /// Links `objects` against the server's libraries, served from the
    /// shared cache when possible.
    ///
    /// A request that fails — a malformed module, a verification failure,
    /// even a panic somewhere in the pipeline — releases its cache
    /// reservation instead of wedging it: concurrent requests for the same
    /// key all see the error, and a later retry recomputes from scratch.
    /// Panics are converted to [`OmError::Internal`] so one bad request
    /// cannot take down the server.
    pub fn link(
        &self,
        objects: &[Module],
        level: OmLevel,
        options: &OmOptions,
    ) -> Result<LinkReply, OmError> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            optimize_and_link_keyed(
                objects,
                &self.libs,
                &self.lib_hashes,
                level,
                options,
                &self.caches,
            )
        }));
        match run {
            Ok(Ok((output, cached))) => Ok(LinkReply { output, cached }),
            Ok(Err(e)) => Err(e),
            Err(panic) => Err(OmError::Internal {
                context: "omd link request".to_string(),
                what: panic_message(&panic),
            }),
        }
    }

    /// A one-line, human-readable stats summary (also the `stats` wire
    /// reply): hit/miss/eviction/abort counters for both caches.
    pub fn stats_line(&self) -> String {
        let m = self.caches.modules.stats();
        let l = self.caches.links.stats();
        format!(
            "modules: {} entries, {} hits, {} misses, {} evictions, {} aborts; \
             links: {} entries, {} hits, {} misses, {} evictions, {} aborts",
            self.caches.modules.len(),
            m.hits,
            m.misses,
            m.evictions,
            m.aborts,
            self.caches.links.len(),
            l.hits,
            l.misses,
            l.evictions,
            l.aborts,
        )
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

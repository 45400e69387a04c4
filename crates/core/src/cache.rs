//! The shared relink cache: a keyed LRU with in-flight coalescing.
//!
//! A bounded, shared, content-addressed store: the heart of `omd`'s
//! incremental relinking, and what the fleet and scale harnesses relink
//! through. Two properties matter beyond plain memoization:
//!
//! * **Coalescing**: when N requests need the same missing key
//!   concurrently, exactly one computes it; the rest block on a condvar and
//!   observe the finished value as hits. This makes hit/miss accounting
//!   deterministic at any thread width — a property the counter tests pin.
//! * **Poison safety**: a computation that fails (typed error) or panics
//!   must not wedge the slot. An RAII guard removes the in-flight
//!   reservation and wakes all waiters, who then retry the compute
//!   themselves; the failed entry is counted in `aborts` and never served.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// Cache observability counters (a snapshot; see [`Lru::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry — including waiters that blocked
    /// on an in-flight computation and received its value.
    pub hits: u64,
    /// Lookups that had to compute the value themselves.
    pub misses: u64,
    /// Ready entries discarded to respect the capacity bound.
    pub evictions: u64,
    /// Computations that ended in an error or panic; their reservation was
    /// released instead of becoming an entry.
    pub aborts: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

enum Slot<V> {
    /// A computed value and its last-touch stamp (for LRU eviction).
    Ready(Arc<V>, u64),
    /// Some thread is computing this key; waiters block on the condvar.
    InFlight,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Monotonic touch counter; the ready entry with the smallest stamp is
    /// the least recently used.
    tick: u64,
    stats: CacheStats,
}

/// A bounded, thread-safe, coalescing LRU keyed store.
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    cond: Condvar,
    cap: usize,
    /// Observability name: [`Lru::named`] caches report each hit / miss /
    /// coalesced wait / eviction / abort as a `cache.<name>.<event>`
    /// counter on the caller's installed [`om_obs::Trace`]. Coalescing
    /// makes these counts deterministic at any thread width.
    name: Option<&'static str>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `cap` ready entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            cond: Condvar::new(),
            cap: cap.max(1),
            name: None,
        }
    }

    /// [`Lru::new`], reporting cache events as `cache.<name>.*` counters on
    /// the installed trace.
    pub fn named(cap: usize, name: &'static str) -> Lru<K, V> {
        Lru { name: Some(name), ..Lru::new(cap) }
    }

    /// Records one cache event on the installed trace (inert when the cache
    /// is unnamed or no trace is installed on this thread).
    fn note(&self, event: &str) {
        if let Some(name) = self.name {
            if om_obs::enabled() {
                om_obs::count(&format!("cache.{name}.{event}"), 1);
            }
        }
    }

    /// Number of ready entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.map.values().filter(|s| matches!(s, Slot::Ready(..))).count()
    }

    /// True when no entry is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Looks up `key`, computing it with `f` on a miss. Concurrent lookups
    /// of the same missing key coalesce: one computes, the rest wait and
    /// count as hits. Returns the value and whether this lookup was a hit.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error to the computing caller. Waiters retry the
    /// computation themselves (each failure is independent), so an error
    /// never poisons the slot for future lookups.
    pub fn get_or_try<E>(
        &self,
        key: K,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let mut waited = false;
        let mut inner = self.inner.lock().unwrap();
        loop {
            // Monotonic touch stamp, taken before borrowing the slot (the
            // occasional bump on a wait round is harmless).
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                Some(Slot::Ready(v, stamp)) => {
                    let v = Arc::clone(v);
                    *stamp = tick;
                    inner.stats.hits += 1;
                    drop(inner);
                    self.note("hit");
                    if waited {
                        self.note("coalesced");
                    }
                    return Ok((v, true));
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    inner = self.cond.wait(inner).unwrap();
                    // Loop: the slot is now ready (hit), gone (the computer
                    // failed — retry the compute ourselves), or in flight
                    // again under another thread.
                }
                None => break,
            }
        }
        inner.map.insert(key.clone(), Slot::InFlight);
        inner.stats.misses += 1;
        drop(inner);
        self.note("miss");

        // Compute without the lock. The guard un-reserves the slot if `f`
        // errors or panics — waiters wake and retry instead of hanging.
        struct ClearOnDrop<'a, K: Eq + Hash + Clone, V> {
            cache: &'a Lru<K, V>,
            key: &'a K,
            disarm: bool,
        }
        impl<K: Eq + Hash + Clone, V> Drop for ClearOnDrop<'_, K, V> {
            fn drop(&mut self) {
                if self.disarm {
                    return;
                }
                let mut inner = self.cache.inner.lock().unwrap();
                if matches!(inner.map.get(self.key), Some(Slot::InFlight)) {
                    inner.map.remove(self.key);
                    inner.stats.aborts += 1;
                    drop(inner);
                    self.cache.note("abort");
                }
                self.cache.cond.notify_all();
            }
        }
        let mut guard = ClearOnDrop { cache: self, key: &key, disarm: false };
        let value = f()?;
        guard.disarm = true;
        drop(guard);

        let v = Arc::new(value);
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, Slot::Ready(Arc::clone(&v), tick));
        // Respect the bound: evict least-recently-used ready entries.
        // In-flight reservations are never evicted (their computer will
        // insert shortly); the bound applies to ready entries only.
        let mut evicted = 0u64;
        while inner.map.values().filter(|s| matches!(s, Slot::Ready(..))).count() > self.cap {
            let oldest = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(_, stamp) => Some((*stamp, k.clone())),
                    Slot::InFlight => None,
                })
                .min_by_key(|(stamp, _)| *stamp)
                .map(|(_, k)| k);
            match oldest {
                Some(k) => {
                    inner.map.remove(&k);
                    inner.stats.evictions += 1;
                    evicted += 1;
                }
                None => break,
            }
        }
        drop(inner);
        for _ in 0..evicted {
            self.note("evict");
        }
        self.cond.notify_all();
        Ok((v, false))
    }
}

/// The caches an OM link server shares across requests: per-module
/// translation artifacts keyed by content hash, and whole-link outputs
/// keyed by [`link_key`](crate::hash::link_key).
pub struct OmCaches {
    /// `module_hash(m)` → [`SymModule`](crate::sym::SymModule).
    pub modules: Lru<crate::hash::ContentHash, crate::sym::SymModule>,
    /// `link_key(...)` → finished [`OmOutput`](crate::pipeline::OmOutput).
    pub links: Lru<crate::hash::ContentHash, crate::pipeline::OmOutput>,
}

impl OmCaches {
    /// Caches bounded at `module_cap` translation artifacts and `link_cap`
    /// finished links.
    pub fn new(module_cap: usize, link_cap: usize) -> OmCaches {
        OmCaches {
            modules: Lru::named(module_cap, "modules"),
            links: Lru::named(link_cap, "links"),
        }
    }
}

impl Default for OmCaches {
    /// Room for every module of a sizable CI fleet (19 workloads × dozens
    /// of modules) plus hundreds of distinct link configurations.
    fn default() -> OmCaches {
        OmCaches::new(4096, 512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let c: Lru<u32, u32> = Lru::new(8);
        let (v, hit) = c.get_or_try::<()>(1, || Ok(10)).unwrap();
        assert_eq!((*v, hit), (10, false));
        let (v, hit) = c.get_or_try::<()>(1, || unreachable!()).unwrap();
        assert_eq!((*v, hit), (10, true));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, ..Default::default() });
    }

    #[test]
    fn eviction_respects_lru_order() {
        let c: Lru<u32, u32> = Lru::new(2);
        for k in 0..3 {
            c.get_or_try::<()>(k, || Ok(k)).unwrap();
        }
        // 0 is the least recently used: evicted.
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        let (_, hit) = c.get_or_try::<()>(2, || unreachable!()).unwrap();
        assert!(hit);
        let (_, hit) = c.get_or_try::<()>(0, || Ok(0)).unwrap();
        assert!(!hit, "0 was evicted");
        // Touching 2 above made 1 the oldest; inserting 0 evicted it.
        let (_, hit) = c.get_or_try::<()>(1, || Ok(1)).unwrap();
        assert!(!hit, "1 was evicted after 2 was touched");
    }

    #[test]
    fn error_does_not_poison_the_slot() {
        let c: Lru<u32, u32> = Lru::new(8);
        let r = c.get_or_try(7, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(c.stats().aborts, 1);
        // The slot is free again: the next lookup computes successfully.
        let (v, hit) = c.get_or_try::<()>(7, || Ok(77)).unwrap();
        assert_eq!((*v, hit), (77, false));
    }

    #[test]
    fn panic_does_not_poison_the_slot() {
        let c: Arc<Lru<u32, u32>> = Arc::new(Lru::new(8));
        let c2 = Arc::clone(&c);
        let r = std::thread::spawn(move || {
            let _ = c2.get_or_try::<()>(3, || panic!("mid-compute"));
        })
        .join();
        assert!(r.is_err(), "the compute panicked");
        assert_eq!(c.stats().aborts, 1);
        let (v, hit) = c.get_or_try::<()>(3, || Ok(30)).unwrap();
        assert_eq!((*v, hit), (30, false));
    }

    #[test]
    fn concurrent_lookups_coalesce_to_one_miss() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let c: Arc<Lru<u32, u32>> = Arc::new(Lru::new(8));
        let computed = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                let computed = Arc::clone(&computed);
                std::thread::spawn(move || {
                    let (v, _) = c
                        .get_or_try::<()>(42, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Let waiters pile up on the condvar.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(420)
                        })
                        .unwrap();
                    *v
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 420);
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one compute");
        let s = c.stats();
        assert_eq!((s.misses, s.hits), (1, 7));
    }

    #[test]
    fn waiters_retry_after_a_poisoned_compute() {
        let c: Arc<Lru<u32, u32>> = Arc::new(Lru::new(8));
        let c2 = Arc::clone(&c);
        let first = std::thread::spawn(move || {
            let _ = c2.get_or_try(9, || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Err("first fails")
            });
        });
        // Give the first thread time to reserve the slot, then pile on a
        // waiter that must NOT hang when the first compute fails.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let c3 = Arc::clone(&c);
        let second = std::thread::spawn(move || {
            let (v, _) = c3.get_or_try::<()>(9, || Ok(90)).unwrap();
            *v
        });
        first.join().unwrap();
        assert_eq!(second.join().unwrap(), 90);
        assert_eq!(c.stats().aborts, 1);
    }
}

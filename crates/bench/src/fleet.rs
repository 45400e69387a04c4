//! The CI-fleet benchmark: a relink storm against the `omd` link server.
//!
//! Models a continuous-integration fleet where every commit edits one
//! module and relinks: for each benchmark we fabricate `edits` single-module
//! editions of the compile-each build, then fire `edits × repeats` relink
//! requests at a shared [`LinkServer`] from `jobs` client threads. The
//! cache makes the workload cheap — each edition translates exactly one new
//! module and reuses every other translation — and the row reports how
//! cheap in cache counters: per-module hit rate and link-cache hits. Relink
//! wall time is `omperf`'s `relink_edit_cal`, not a field here.
//!
//! Correctness is non-negotiable: every served image must be byte-identical
//! to a fresh one-shot [`optimize_and_link_with`] run on the same objects.
//! The row records the outcome; `omfleet --smoke` (and `scripts/ci.sh`)
//! fail if it is ever false, or if the hit rate drops below the 80% floor.

use crate::figures::Prepared;
use crate::par::parallel_map;
use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_objfile::Module;
use om_workloads::build::BuiltBenchmark;
use om_omd::LinkServer;

/// The `hit_rate` floor `omfleet --smoke` (and CI) enforce.
pub const HIT_RATE_FLOOR: f64 = 0.80;

/// Shape of the relink storm.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Distinct single-module editions to fabricate.
    pub edits: usize,
    /// Requests per edition (the first computes, the rest should hit).
    pub repeats: usize,
    /// Concurrent client threads.
    pub jobs: usize,
}

impl FleetConfig {
    /// The bounded smoke configuration (12 measured relinks per benchmark).
    pub fn quick() -> FleetConfig {
        FleetConfig { edits: 4, repeats: 3, jobs: 4 }
    }

    /// The full configuration reproduced by `omfleet` (50 measured relinks
    /// per benchmark).
    pub fn full() -> FleetConfig {
        FleetConfig { edits: 10, repeats: 5, jobs: 8 }
    }
}

/// One benchmark's fleet results, deterministic at any `jobs` width
/// (in-flight coalescing guarantees one miss per unique key).
#[derive(Debug, Clone, Copy)]
pub struct FleetRow {
    /// Measured relink requests (`edits × repeats`).
    pub requests: usize,
    /// Client threads the requests were issued from.
    pub threads: usize,
    /// Modules per link after selection (user objects + library members).
    pub modules: usize,
    /// Module-translation cache hits across the measured requests.
    pub module_hits: u64,
    /// Module-translation cache misses (exactly one per edition).
    pub module_misses: u64,
    /// Whole-link cache hits (repeat requests for an edition).
    pub link_hits: u64,
    /// Whole-link cache misses (exactly one per edition).
    pub link_misses: u64,
    /// Per-module hit rate: `1 − module_misses / (requests × modules)`.
    /// A link-cache hit touches no module at all, so it counts as all
    /// `modules` lookups avoided.
    pub hit_rate: f64,
    /// True iff every edition's served image matched a fresh one-shot
    /// pipeline run byte for byte.
    pub byte_identical: bool,
}

/// Edition `e`: the compile-each objects with a marker appended to one user
/// module's `.data`. The content hash changes (it is a different module),
/// the behavior does not (nothing references the appended bytes).
fn edition(objects: &[Module], e: usize) -> Vec<Module> {
    let mut objs = objects.to_vec();
    // objects[0] is crt0; rotate edits through the user modules.
    let idx = if objs.len() > 1 { 1 + e % (objs.len() - 1) } else { 0 };
    objs[idx].data.extend_from_slice(&[(e as u8).wrapping_add(1); 8]);
    objs
}

/// Runs the relink storm for one prepared benchmark.
///
/// # Panics
///
/// Panics if any relink fails — the editions are well-formed by
/// construction, so a failure is a pipeline or cache bug.
pub fn fleet(p: &Prepared, cfg: &FleetConfig) -> FleetRow {
    fleet_built(&p.each, cfg)
}

/// [`fleet`] on an arbitrary compile-each build — the entry point
/// `omfleet --scale` uses, since scale workloads have no [`Prepared`].
///
/// # Panics
///
/// See [`fleet`].
pub fn fleet_built(b: &BuiltBenchmark, cfg: &FleetConfig) -> FleetRow {
    let server = LinkServer::new(b.libs.to_vec());
    let level = OmLevel::FullSched;
    let options = OmOptions { verify: true, ..OmOptions::default() };
    let editions: Vec<Vec<Module>> = (0..cfg.edits).map(|e| edition(&b.objects, e)).collect();

    // Warm the server with the pristine program, exactly as a fleet's
    // steady state would be: its cold misses also measure the per-link
    // module count.
    server
        .link(&b.objects, level, &options)
        .unwrap_or_else(|e| panic!("{} fleet warmup: {e}", b.name));
    let modules = server.caches().modules.stats().misses as usize;
    let mod0 = server.caches().modules.stats();
    let link0 = server.caches().links.stats();

    // The storm: every edition, `repeats` times, interleaved so concurrent
    // clients race both fresh and repeated keys.
    let schedule: Vec<usize> =
        (0..cfg.repeats).flat_map(|_| 0..cfg.edits).collect();
    parallel_map(cfg.jobs, &schedule, |&e| {
        server
            .link(&editions[e], level, &options)
            .unwrap_or_else(|err| panic!("{} fleet edition {e}: {err}", b.name));
    });

    let mod1 = server.caches().modules.stats();
    let link1 = server.caches().links.stats();
    let requests = schedule.len();
    let module_misses = mod1.misses - mod0.misses;
    let module_hits = mod1.hits - mod0.hits;
    let hit_rate = 1.0 - module_misses as f64 / (requests * modules.max(1)) as f64;

    // Byte-identity: every edition's cached image vs a fresh, cache-free
    // pipeline run of the same objects.
    let byte_identical = editions.iter().all(|objs| {
        let served = server
            .link(objs, level, &options)
            .expect("fleet identity relink")
            .output
            .image
            .to_bytes();
        let fresh = optimize_and_link_with(objs, &b.libs, level, &options)
            .expect("fleet identity one-shot")
            .image
            .to_bytes();
        served == fresh
    });

    FleetRow {
        requests,
        threads: cfg.jobs,
        modules,
        module_hits,
        module_misses,
        link_hits: link1.hits - link0.hits,
        link_misses: link1.misses - link0.misses,
        hit_rate,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_workloads::spec;

    #[test]
    fn fleet_counters_are_deterministic_and_identical() {
        let s = spec::quick(&spec::all()[0]);
        let p = Prepared::new(&s);
        let cfg = FleetConfig { edits: 3, repeats: 3, jobs: 4 };
        let row = fleet(&p, &cfg);
        assert_eq!(row.requests, 9);
        assert_eq!(row.module_misses, 3, "one new translation per edition");
        assert_eq!(row.link_misses, 3, "one whole-link compute per edition");
        assert_eq!(row.link_hits, 6, "every repeat is a link-cache hit");
        assert!(row.hit_rate >= HIT_RATE_FLOOR, "hit rate {}", row.hit_rate);
        assert!(row.byte_identical);
    }
}

//! The OM driver: load → translate to symbolic form → transform → emit →
//! link. This is the "optimizing linker" of §4 — it replaces the standard
//! link step entirely.

use crate::analysis::Artifacts;
use crate::cache::OmCaches;
use crate::hash::{digest_modules, link_key, ContentHash};
use crate::stats::OmStats;
use crate::sym::{resolve_symbolic, translate_module, InstId, OmError, SymModule, SymProgram};
use om_linker::{
    build_symbol_table, gat_slots, link_selected, select_borrowed, Image, LayoutOpts, LinkStats,
};
use om_objfile::{Archive, Module};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-call-site bookkeeping: `(needs PV load, needs GP reset)`, keyed by
/// `(module, proc, jsr instruction id)`. [`crate::full::run_with`] and both
/// levels' `run_observed` fill it from their residue once, at the end, for
/// callers that rebuild the pipeline; the pipeline itself reads the two
/// Figure 4 counts off the residue and keeps no book.
pub type CallBook = HashMap<(usize, usize, InstId), (bool, bool)>;

/// The optimization level applied at link time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmLevel {
    /// Pass-through: translate to symbolic form and back, no transformation
    /// (the paper's "OM no opt" build-time row).
    None,
    /// No code motion, nullification to no-ops.
    Simple,
    /// Full transformation: deletion, reordering, GAT reduction.
    Full,
    /// OM-full plus final rescheduling with quadword alignment.
    FullSched,
}

impl OmLevel {
    /// Every level, in ascending optimization order. The single source of
    /// truth for iteration: figures that measure a subset slice this table
    /// (e.g. `&OmLevel::ALL[1..]` for the levels that transform code).
    pub const ALL: [OmLevel; 4] =
        [OmLevel::None, OmLevel::Simple, OmLevel::Full, OmLevel::FullSched];

    /// This level's position in [`OmLevel::ALL`] (dense, for result tables).
    pub fn index(self) -> usize {
        match self {
            OmLevel::None => 0,
            OmLevel::Simple => 1,
            OmLevel::Full => 2,
            OmLevel::FullSched => 3,
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            OmLevel::None => "no opt",
            OmLevel::Simple => "OM-simple",
            OmLevel::Full => "OM-full",
            OmLevel::FullSched => "OM-full w/sched",
        }
    }

    /// Parses a command-line `--level` value: `none`, `simple`, `full` or
    /// `full-sched`.
    pub fn from_flag(flag: &str) -> Option<OmLevel> {
        match flag {
            "none" => Some(OmLevel::None),
            "simple" => Some(OmLevel::Simple),
            "full" => Some(OmLevel::Full),
            "full-sched" => Some(OmLevel::FullSched),
            _ => None,
        }
    }
}

/// Ablation and policy knobs for the transformations (defaults reproduce the
/// paper's OM; the `ablations` figure of `reproduce` toggles them one at a
/// time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmOptions {
    /// Sort common symbols by size next to the GAT (an OM-simple layout
    /// improvement over the standard linker).
    pub sort_commons: bool,
    /// Quadword-align backward-branch targets during rescheduling.
    pub align_backward_targets: bool,
    /// GAT-reduction fixpoint budget (1 = a single pass, no re-layout).
    pub max_rounds: usize,
    /// Symbols that dynamic linking may preempt (the paper's §6 discussion:
    /// OM "does not currently support calls to shared libraries \[but\] there
    /// is no fundamental problem with doing so ... calls to dynamically
    /// linked library routines cannot be optimized as statically linked
    /// calls can"). Every reference to a listed name stays fully
    /// conservative: no JSR→BSR, no PV-load or GP-reset removal, no prologue
    /// deletion, no address-load conversion.
    pub preemptible: Vec<String>,
    /// Verify the transformed program and linked image against the
    /// structural invariants of [`crate::verify`]; any violation fails the
    /// link with [`OmError::Verify`]. The passing report is returned in
    /// [`OmOutput::verify`].
    pub verify: bool,
    /// An execution profile for profile-guided layout. Only
    /// [`OmLevel::FullSched`] consults it: rescheduling runs as usual, then
    /// [`crate::pgo`] reorders procedures by call frequency and aligns only
    /// hot backward-branch targets (replacing the blind alignment pass).
    pub profile: Option<crate::profile::Profile>,
    /// Deliberate miscompilation for mutation testing ([`crate::fault`],
    /// the `mutants` figure of `reproduce`). `None` — the only value real
    /// links ever use — costs a single branch per fault point.
    pub fault: Option<crate::fault::FaultPlan>,
}

impl Default for OmOptions {
    fn default() -> Self {
        OmOptions {
            sort_commons: true,
            align_backward_targets: true,
            max_rounds: 8,
            preemptible: Vec::new(),
            verify: false,
            profile: None,
            fault: None,
        }
    }
}

/// Result of an optimizing link.
#[derive(Debug, Clone)]
pub struct OmOutput {
    pub image: Image,
    pub stats: OmStats,
    pub link: LinkStats,
    /// The verification report, when [`OmOptions::verify`] was requested
    /// (always passing: violations abort the link instead).
    pub verify: Option<crate::verify::VerifyReport>,
}

/// Sets the pre-transformation statistics from the counts each module's
/// translation carries ([`crate::analysis::Census`]): no walk over the
/// program.
fn census(program: &SymProgram, stats: &mut OmStats) {
    let mut c = crate::analysis::Census::default();
    for m in &program.modules {
        c.merge(&m.census);
    }
    stats.insts_before = c.insts;
    stats.addr_loads_total = c.literal_loads;
    stats.calls_total = c.calls;
    stats.calls_indirect = c.calls_indirect;
    stats.calls_pv_before = c.calls_pv;
    stats.calls_gp_reset_before = c.calls_gp_reset;
}

/// Performs an optimizing link of `objects` (+ libraries) at `level`.
///
/// Borrows the input modules: one build can be optimized at every level
/// without cloning the module list per run.
///
/// # Errors
///
/// Returns [`OmError`] for malformed input or link failures.
pub fn optimize_and_link(
    objects: &[Module],
    libs: &[Archive],
    level: OmLevel,
) -> Result<OmOutput, OmError> {
    optimize_and_link_with(objects, libs, level, &OmOptions::default())
}

/// [`optimize_and_link`] with explicit ablation options.
///
/// # Errors
///
/// Returns [`OmError`] for malformed input or link failures.
pub fn optimize_and_link_with(
    objects: &[Module],
    libs: &[Archive],
    level: OmLevel,
    options: &OmOptions,
) -> Result<OmOutput, OmError> {
    optimize_and_link_artifacts(objects, libs, level, options).map(|(out, _)| out)
}

/// [`optimize_and_link_with`], additionally returning the final link's
/// [`Artifacts`]: the emitted modules plus the symbol table and layout the
/// image was patched against (for post-hoc image verification — the
/// mutation harness's image mutators are built on this).
///
/// # Errors
///
/// Returns [`OmError`] for malformed input or link failures.
pub fn optimize_and_link_artifacts(
    objects: &[Module],
    libs: &[Archive],
    level: OmLevel,
    options: &OmOptions,
) -> Result<(OmOutput, Artifacts), OmError> {
    run_pipeline(objects, libs, level, options, None)
}

/// [`optimize_and_link_with`] through a shared [`OmCaches`]: the whole link
/// is served from the link cache when its content key matches, and on a
/// link-cache miss each module's translation artifact is fetched from (or
/// inserted into) the per-module cache. `lib_hashes` are the libraries'
/// [`archive_hash`](crate::archive_hash)es, computed once by the caller (a
/// long-running server hashes its archives once, not per request). Returns
/// the output and whether the *link* was a cache hit.
///
/// Byte-identical to the uncached pipeline by construction: cached values
/// are exactly what the uncached computation produced for identical inputs.
///
/// # Errors
///
/// Returns [`OmError`] for malformed input or link failures. Errors are
/// never cached — a failed request releases its cache reservation.
pub fn optimize_and_link_keyed(
    objects: &[Module],
    libs: &[Archive],
    lib_hashes: &[ContentHash],
    level: OmLevel,
    options: &OmOptions,
    caches: &OmCaches,
) -> Result<(Arc<OmOutput>, bool), OmError> {
    let (module_hashes, key) = {
        let mut span = om_obs::span("hash");
        let hashes = hash_modules(objects, &mut span);
        let key = link_key(&hashes, lib_hashes, level, options);
        (hashes, key)
    };
    caches.links.get_or_try(key, || {
        run_pipeline(objects, libs, level, options, Some((caches, &module_hashes)))
            .map(|(out, _)| out)
    })
}

/// The batch digests of `modules`, recording on `span` how many modules
/// and serialized bytes they cover.
fn hash_modules<M: Borrow<Module>>(modules: &[M], span: &mut om_obs::Span) -> Vec<ContentHash> {
    let (hashes, bytes) = digest_modules(modules);
    span.arg("modules", hashes.len() as u64);
    span.arg("bytes", bytes);
    hashes
}

/// One link. With `cached`, each module's translation goes through the
/// per-module cache, keyed by `object_hashes` for the explicit objects
/// (which [`select_borrowed`] returns first, in order) and by the digests
/// of the archive members it selects, hashed in one more batch.
///
/// Each input is used in place (the selection borrows it) and tabled once:
/// the emitted modules keep their inputs' symbols, so the final link takes
/// the input's symbol table instead of building a second one.
fn run_pipeline(
    objects: &[Module],
    libs: &[Archive],
    level: OmLevel,
    options: &OmOptions,
    cached: Option<(&OmCaches, &[ContentHash])>,
) -> Result<(OmOutput, Artifacts), OmError> {
    let mut pipeline_span = om_obs::span("pipeline");
    om_obs::count("pipeline.runs", 1);
    let modules = {
        let _s = om_obs::span("select");
        select_borrowed(objects, libs)?
    };
    pipeline_span.arg("modules", modules.len() as u64);
    om_obs::count("pipeline.modules", modules.len() as u64);
    let cached = cached.map(|(c, object_hashes)| {
        let members = modules.get(object_hashes.len()..).unwrap_or_default();
        (c, [object_hashes, &hash_modules(members, &mut om_obs::span("hash"))].concat())
    });
    let symtab = {
        let _s = om_obs::span("symtab");
        build_symbol_table(&modules)?
    };
    // The untransformed program's GAT is the inputs' GAT: translation keeps
    // every `.lita` entry, and the slot count depends on nothing else. It is
    // merged while the table's walk has left the `.lita`s in cache.
    let gat_slots_before = {
        let _s = om_obs::span("gat.before");
        gat_slots(&modules, &symtab)?
    };
    let mut program = {
        let translate_span = om_obs::span("pass.translate");
        om_obs::count("pass.translate.modules", modules.len() as u64);
        let translated = modules
            .iter()
            .enumerate()
            .map(|(mi, m)| match &cached {
                None => translate_module(m).map(Arc::new),
                // Per-module translation through the shared cache: an edited
                // module re-translates; everything else is reused by content.
                Some((c, hashes)) => {
                    c.modules.get_or_try(hashes[mi], || translate_module(m)).map(|(v, _)| v)
                }
            })
            .collect::<Result<Vec<Arc<SymModule>>, OmError>>()?;
        drop(translate_span);
        let _s = om_obs::span("pass.resolve");
        resolve_symbolic(translated, &symtab)
    };

    let mut stats = OmStats { gat_slots_before, ..OmStats::default() };
    {
        let _s = om_obs::span("census");
        census(&program, &mut stats);
    }

    // Each call site's bookkeeping as the passes left it (Figure 4); the
    // residue goes before rescheduling, as it always has.
    let residue = match level {
        OmLevel::None => None,
        OmLevel::Simple => {
            Some(crate::simple::run(&mut program, &mut stats, options, &mut |_, _| {})?)
        }
        OmLevel::Full | OmLevel::FullSched => {
            Some(crate::full::run(&mut program, &mut stats, options, &mut |_, _| {})?)
        }
    };
    (stats.calls_pv_after, stats.calls_gp_reset_after) = match residue {
        Some(r) => r.call_counts(),
        None => (stats.calls_pv_before, stats.calls_gp_reset_before),
    };
    if level == OmLevel::FullSched {
        match &options.profile {
            None => {
                let m = crate::obs::PassMeter::begin("resched", &stats);
                crate::resched::run_with(
                    &mut program,
                    &mut stats,
                    options.align_backward_targets,
                    options.fault.as_ref(),
                );
                m.end(&stats);
            }
            Some(profile) => {
                // Schedule without the blind alignment pass; the PGO
                // layer reorders procedures and aligns hot targets only.
                let m = crate::obs::PassMeter::begin("resched", &stats);
                crate::resched::run_with(&mut program, &mut stats, false, options.fault.as_ref());
                m.end(&stats);
                let m = crate::obs::PassMeter::begin("pgo", &stats);
                crate::pgo::run_with(&mut program, &mut stats, profile, options);
                m.end(&stats);
            }
        }
    }

    if crate::fault::armed(options.fault.as_ref(), crate::fault::FaultKind::CountSkew) {
        stats.insts_deleted += 1;
    }

    // What the verifier reads of the symbolic program, before emit frees
    // it. No statistic it checks changes after this point, and its report
    // joins the linked image's after the link, so an emit or link error
    // still comes first.
    let sym_report = options.verify.then(|| {
        let _s = om_obs::span("verify");
        let mut report = crate::verify::verify_sym(&program);
        report.merge(crate::verify::verify_stats(&program, &stats));
        report
    });
    // Final link with OM's layout policy: the only layout of the emitted
    // program, reused for the GAT count, the verifier, and the artifacts.
    let final_modules = {
        let _s = om_obs::span("emit");
        crate::sym::emit_all_freeing(program)?
    };
    let link_opts = LayoutOpts { sort_commons: level != OmLevel::None && options.sort_commons };
    let linked = {
        let _s = om_obs::span("link");
        link_selected(&final_modules, &symtab, &link_opts)?
    };
    stats.gat_slots_after = linked.stats.gat_slots;

    let verify = if let Some(mut report) = sym_report {
        let _s = om_obs::span("verify");
        report.merge(crate::verify::verify_linked(
            &final_modules,
            &symtab,
            &linked.layout,
            &linked.image,
        ));
        if !report.is_ok() {
            return Err(OmError::Verify {
                checks: report.checks,
                violations: report.violations,
            });
        }
        Some(report)
    } else {
        None
    };

    // The process's peak so far: for a one-shot link, the link's peak.
    if om_obs::enabled() {
        if let Some(kb) = om_obs::peak_rss_kb() {
            pipeline_span.arg("peak_rss_kb", kb);
        }
    }
    let out = OmOutput { image: linked.image, stats, link: linked.stats, verify };
    Ok((out, Artifacts { modules: final_modules, symtab, layout: linked.layout }))
}

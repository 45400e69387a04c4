//! The `"fig":"scale"` figure: oracle-gated scaling curves over the
//! `--scale N` workload axis ([`om_workloads::scale`]).
//!
//! Every scale point is pushed through all three oracles before any number
//! is recorded — `om --verify`'s structural verifier (every mode × level
//! variant links with [`OmOptions::verify`] on), the checksum diff (every
//! variant's simulated result must equal the standard link's and the mini-C
//! interpreter's), and the interpreter differential itself.
//!
//! Each point records one row (`"fig":"scale"`, [`measure_scale`]): GAT
//! geometry, checksums, scenario-pack outcomes and cache-invalidation
//! counts, all bit-deterministic. `reproduce check` ([`crate::json::check`]) compares it
//! against `BENCH_baseline.json` like fig3–fig5 and checks its oracle
//! markers on every row. Link time at a scale point is measured by
//! `omperf` or `om --trace-summary`, not here.

use crate::figures::{field, Fields, Row, Run, SIM_LIMIT};
use om_core::{optimize_and_link_with, OmCaches, OmLevel, OmOptions, OmOutput};
use om_linker::{link_modules, LayoutOpts};
use om_objfile::Module;
use om_omd::LinkServer;
use om_sim::run_timed_fast;
use om_workloads::build::CompileMode;
use om_workloads::scale::{
    archive_pack, build_scale, interp_reference_scale, preemptible_entries, scale_spec,
    total_procs,
};

/// Interpreter step budget for a scale point's reference run.
pub const INTERP_STEPS: u64 = 4_000_000_000;

/// The scale points `reproduce` measures.
pub fn points(quick: bool) -> Vec<usize> {
    if quick {
        vec![16, 64]
    } else {
        vec![16, 64, 256, 1000]
    }
}

fn run_checksum(out: &OmOutput, what: &str) -> (i64, u64) {
    let (r, _) = run_timed_fast(&out.image, SIM_LIMIT).unwrap_or_else(|e| panic!("{what}: {e}"));
    (r.result, r.insts)
}

/// The scale figure: one entry per point of [`points`], each holding its
/// one `scale{N}` row.
pub fn measure(run: &Run) -> Vec<Vec<Row>> {
    let row = |n| {
        eprintln!("scale: measuring scale{n} ({n} modules, all oracles)...");
        vec![Row { bench: format!("scale{n}"), fields: measure_scale(n) }]
    };
    points(run.quick).into_iter().map(row).collect()
}

/// Measures one scale point, running every oracle along the way. Its
/// fields: user modules `n` and procedures; link inputs per mode (crt0 and
/// the user objects; compile-all is partitioned, so more than one merged
/// unit); the compile-each standard link's GAT entries and slots; GP groups
/// per mode (at least 2 at every point: the multi-GAT split); the GAT slots
/// and GP resets surviving OM-full on compile-each (resets stay while the
/// live pool still spans several groups); the checksum every oracle agreed
/// on; the instructions the compile-each OM-full-sched run retired; the
/// (mode × level) variants that linked with verification on and matched
/// the checksum (8 = 2 modes × 4 levels); the shared-library pack's kept GP
/// resets and whether its dynamic image computed the same checksum; the
/// archive pack's members pulled of those offered, its call-chain depth and
/// its checksum (verified against its interpreter run); and, for the relink
/// cache, the module translations recomputed after a single-module edit
/// (exactly 1) and the fraction of the edited relink served from cache.
///
/// # Panics
///
/// Panics if any oracle disagrees — a scale point that cannot be verified
/// must fail the harness, never record a row.
pub fn measure_scale(n: usize) -> Fields {
    let spec = scale_spec(n);
    let expected = interp_reference_scale(&spec, INTERP_STEPS)
        .unwrap_or_else(|e| panic!("scale{n} interpreter reference: {e}"));

    let each = build_scale(&spec, CompileMode::Each).expect("scale compile-each");
    let all = build_scale(&spec, CompileMode::All).expect("scale compile-all");

    // Standard link and the checksum diff against the interpreter.
    let (std_image, std_stats) =
        link_modules(&each.objects, &each.libs, &LayoutOpts::default())
            .unwrap_or_else(|e| panic!("scale{n} standard link: {e}"));
    let (std_run, _) = run_timed_fast(&std_image, SIM_LIMIT)
        .unwrap_or_else(|e| panic!("scale{n} standard run: {e}"));
    let std_result = std_run.result;
    assert_eq!(std_result, expected, "scale{n}: standard link vs interpreter");
    let all_gp_groups = link_modules(&all.objects, &all.libs, &LayoutOpts::default())
        .unwrap_or_else(|e| panic!("scale{n} compile-all standard link: {e}"))
        .1
        .gp_groups;

    // Every (mode × level) variant with om --verify's machinery on, each
    // checksum-diffed against the interpreter.
    let verify_opts = OmOptions { verify: true, ..OmOptions::default() };
    let mut verified_variants = 0usize;
    let mut full_each: Option<OmOutput> = None;
    let mut insts = 0;
    for (b, mode) in [(&each, CompileMode::Each), (&all, CompileMode::All)] {
        for level in OmLevel::ALL {
            let out = optimize_and_link_with(&b.objects, &b.libs, level, &verify_opts)
                .unwrap_or_else(|e| panic!("scale{n} {} {}: {e}", mode.name(), level.name()));
            assert!(out.verify.is_some(), "scale{n}: verification report missing");
            let (r, i) = run_checksum(&out, &format!("scale{n} {} {}", mode.name(), level.name()));
            assert_eq!(r, expected, "scale{n} {} {} checksum", mode.name(), level.name());
            verified_variants += 1;
            if mode == CompileMode::Each {
                match level {
                    OmLevel::Full => full_each = Some(out),
                    OmLevel::FullSched => insts = i,
                    _ => {}
                }
            }
        }
    }
    let full_each = full_each.expect("OmLevel::ALL covers Full");

    // Shared-library pack: the same program as a dynamic image, every
    // sixteenth entry preemptible. Conservative conventions must survive
    // for those entries and the checksum must not move.
    let shared = {
        let opts = OmOptions {
            preemptible: preemptible_entries(&spec),
            verify: true,
            ..OmOptions::default()
        };
        let out = optimize_and_link_with(&each.objects, &each.libs, OmLevel::Full, &opts)
            .unwrap_or_else(|e| panic!("scale{n} shared-library pack: {e}"));
        let (r, _) = run_checksum(&out, &format!("scale{n} shared-library pack"));
        assert_eq!(r, expected, "scale{n}: dynamic image checksum");
        assert!(
            out.stats.calls_gp_reset_after >= full_each.stats.calls_gp_reset_after,
            "scale{n}: preemptible entries must not lose conservative call code"
        );
        (out.stats.calls_gp_reset_after, r == expected)
    };

    // Archive pack: deep library-to-library chains, demand-driven selection.
    let archive = {
        let members_per = (n / 16).clamp(4, 14);
        let pack = archive_pack(4, members_per, 3).expect("archive pack build");
        let expected = pack
            .expected(INTERP_STEPS)
            .unwrap_or_else(|e| panic!("scale{n} archive-pack interpreter: {e}"));
        let out = optimize_and_link_with(&pack.objects, &pack.libs, OmLevel::Full, &verify_opts)
            .unwrap_or_else(|e| panic!("scale{n} archive pack: {e}"));
        let live = out.link.modules - pack.objects.len();
        assert_eq!(live, pack.live_members, "scale{n}: archive selection must be demand-driven");
        let (r, _) = run_checksum(&out, &format!("scale{n} archive pack"));
        assert_eq!(r, expected, "scale{n}: archive-pack checksum");
        (live, pack.total_members, pack.chain_depth, r)
    };

    // Relink cache at scale, through a link server: cold fill, then a
    // single-module edit. The caches are fresh and private so the counters
    // are deterministic.
    let server =
        LinkServer::with_caches(each.libs.to_vec(), OmCaches::new(2 * std_stats.modules + 64, 8));
    let relink = |objects: &[Module], what: &str| {
        server
            .link(objects, OmLevel::FullSched, &verify_opts)
            .unwrap_or_else(|e| panic!("scale{n} {what} relink: {e}"))
            .output
            .image
            .to_bytes()
    };
    let cold = relink(&each.objects, "cold");
    let m0 = server.caches().modules.stats();
    let mut edited = each.objects.clone();
    let idx = edited.len() / 2;
    edited[idx].data.extend_from_slice(&[7; 8]);
    let warm = relink(&edited, "edited");
    let m1 = server.caches().modules.stats();
    let edit_module_misses = m1.misses - m0.misses;
    let edit_hits = m1.hits - m0.hits;
    assert_eq!(edit_module_misses, 1, "scale{n}: one edit must recompute one module");
    let edit_hit_rate = edit_hits as f64 / (edit_hits + edit_module_misses).max(1) as f64;
    assert!(
        cold != warm,
        "scale{n}: the edited relink must serve the edited image, not the cached one"
    );
    let fresh = optimize_and_link_with(&edited, &each.libs, OmLevel::FullSched, &verify_opts)
        .unwrap_or_else(|e| panic!("scale{n} edited one-shot link: {e}"));
    assert!(
        warm == fresh.image.to_bytes(),
        "scale{n}: the edited relink must equal a one-shot link of the edited objects"
    );

    assert!(std_stats.gp_groups >= 2, "scale{n}: compile-each must split GAT groups");
    assert!(all_gp_groups >= 2, "scale{n}: compile-all must split GAT groups");
    vec![
        field("n", n),
        field("procs", total_procs(&spec)),
        field("objects_each", each.objects.len()),
        field("objects_all", all.objects.len()),
        field("gat_entries_input", std_stats.gat_entries_input),
        field("gat_slots", std_stats.gat_slots),
        field("gp_groups_each", std_stats.gp_groups),
        field("gp_groups_all", all_gp_groups),
        field("gat_slots_after_full", full_each.stats.gat_slots_after),
        field("gp_resets_after_full", full_each.stats.calls_gp_reset_after),
        field("checksum", expected),
        field("insts", insts),
        field("verified_variants", verified_variants),
        field("shared_gp_resets_kept", shared.0),
        field("shared_identical", shared.1),
        field("archive_members_live", archive.0),
        field("archive_members_total", archive.1),
        field("archive_chain_depth", archive.2),
        field("archive_checksum", archive.3),
        field("edit_module_misses", edit_module_misses),
        field("edit_hit_rate", edit_hit_rate),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points_are_bounded() {
        assert_eq!(points(true), vec![16, 64]);
        assert!(points(false).contains(&1000));
    }
}

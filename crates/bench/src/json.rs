//! Machine-readable output for `reproduce --json PATH` (hand-rolled; the
//! registry is offline, so no serde), and the drift gate that reads it back,
//! `reproduce check RUN [BASELINE]` ([`check`]).
//!
//! Every figure row is one object keyed by its `"fig"` and `"bench"`,
//! written one per line so a human diff stays readable. A `mutants` row's
//! `"bench"` is its mutant, `<class>/<seed>/<site>`. The gate reads the
//! report through [`om_obs::json`] and judges it by the schema declared
//! here, next to the writer: every figure of [`FIGURES`] but [`PRINT_ONLY`]
//! and the [`MARKERS`] oracles. Every row is bit-deterministic, so the
//! report depends only on the code: Figure 7's wall-clock table is printed
//! by `reproduce fig7` and never written here.

use crate::figures::{BenchRows, FIGURES};
use om_obs::json::{quote, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The report's schema tag.
pub const SCHEMA: &str = "om-reproduce/v1";

fn f(v: f64) -> String {
    // Shortest representation that round-trips; always valid JSON for the
    // finite values the figures produce.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// One figure row as a single JSON-object line.
fn push_row(out: &mut String, fig: &str, bench: &str, fields: &[(impl AsRef<str>, String)]) {
    let _ = write!(out, "    {{\"fig\":{},\"bench\":{}", quote(fig), quote(bench));
    for (k, v) in fields {
        let _ = write!(out, ",\"{}\":{v}", k.as_ref());
    }
    out.push_str("}");
}

fn rows_for(out: &mut String, r: &BenchRows) -> usize {
    let mut n = 0;
    let mut sep = |out: &mut String| {
        if n > 0 {
            out.push_str(",\n");
        }
        n += 1;
    };
    if let Some(x) = r.fig3 {
        sep(out);
        push_row(
            out,
            "fig3",
            &r.name,
            &[
                ("each_simple_cv", f(x.each_simple.0)),
                ("each_simple_nu", f(x.each_simple.1)),
                ("each_full_cv", f(x.each_full.0)),
                ("each_full_nu", f(x.each_full.1)),
                ("all_simple_cv", f(x.all_simple.0)),
                ("all_simple_nu", f(x.all_simple.1)),
                ("all_full_cv", f(x.all_full.0)),
                ("all_full_nu", f(x.all_full.1)),
            ],
        );
    }
    if let Some(x) = r.fig4 {
        sep(out);
        let mut fields = Vec::new();
        for (mi, m) in ["each", "all"].iter().enumerate() {
            for (li, l) in ["noom", "simple", "full"].iter().enumerate() {
                fields.push((format!("pv_{m}_{l}"), f(x.pv[mi][li])));
                fields.push((format!("gp_{m}_{l}"), f(x.gp_reset[mi][li])));
            }
        }
        push_row(out, "fig4", &r.name, &fields);
    }
    if let Some(x) = r.fig5 {
        sep(out);
        push_row(
            out,
            "fig5",
            &r.name,
            &[
                ("each_simple", f(x.each_simple)),
                ("each_full", f(x.each_full)),
                ("all_simple", f(x.all_simple)),
                ("all_full", f(x.all_full)),
            ],
        );
    }
    if let Some(x) = r.fig6 {
        sep(out);
        let mut fields = Vec::new();
        for (mi, m) in ["each", "all"].iter().enumerate() {
            for (li, l) in ["simple", "full", "sched"].iter().enumerate() {
                fields.push((format!("imp_{m}_{l}"), f(x.improvement[mi][li])));
            }
            fields.push((format!("base_cycles_{m}"), x.base_cycles[mi].to_string()));
        }
        push_row(out, "fig6", &r.name, &fields);
    }
    if let Some(x) = r.gat {
        sep(out);
        push_row(
            out,
            "gat",
            &r.name,
            &[
                ("each_before", x.each_before.to_string()),
                ("each_after", x.each_after.to_string()),
                ("all_before", x.all_before.to_string()),
                ("all_after", x.all_after.to_string()),
            ],
        );
    }
    if let Some(x) = r.pgo {
        sep(out);
        let mut fields = Vec::new();
        for (mi, m) in ["each", "all"].iter().enumerate() {
            fields.push((format!("sched_cycles_{m}"), x.sched_cycles[mi].to_string()));
            fields.push((format!("pgo_cycles_{m}"), x.pgo_cycles[mi].to_string()));
            fields.push((format!("imp_{m}"), f(x.improvement[mi])));
            fields.push((format!("procs_moved_{m}"), x.procs_moved[mi].to_string()));
            fields.push((format!("hot_{m}"), x.targets[mi].0.to_string()));
            fields.push((format!("cold_{m}"), x.targets[mi].1.to_string()));
        }
        push_row(out, "pgo", &r.name, &fields);
    }
    if let Some(x) = r.passes {
        sep(out);
        // Only nonzero deltas are emitted, so the key set itself is part of
        // the gated content.
        let mut fields = vec![("full_rounds".to_string(), x.full_rounds.to_string())];
        for (pi, pass) in crate::figures::PASS_NAMES.iter().enumerate() {
            for (fi, (field, _)) in om_core::obs::DELTA_FIELDS.iter().enumerate() {
                let d = x.deltas[pi][fi];
                if d != 0 {
                    fields.push((format!("{pass}_{field}"), d.to_string()));
                }
            }
        }
        fields.push(("reconciled".to_string(), x.reconciled.to_string()));
        push_row(out, "passes", &r.name, &fields);
    }
    if let Some(x) = r.fleet {
        sep(out);
        push_row(
            out,
            "fleet",
            &r.name,
            &[
                ("requests", x.requests.to_string()),
                ("threads", x.threads.to_string()),
                ("modules", x.modules.to_string()),
                ("module_hits", x.module_hits.to_string()),
                ("module_misses", x.module_misses.to_string()),
                ("link_hits", x.link_hits.to_string()),
                ("link_misses", x.link_misses.to_string()),
                ("hit_rate", f(x.hit_rate)),
                ("byte_identical", x.byte_identical.to_string()),
            ],
        );
    }
    if let Some(x) = r.scale {
        sep(out);
        push_row(
            out,
            "scale",
            &r.name,
            &[
                ("n", x.n.to_string()),
                ("procs", x.procs.to_string()),
                ("objects_each", x.objects_each.to_string()),
                ("objects_all", x.objects_all.to_string()),
                ("gat_entries_input", x.gat_entries_input.to_string()),
                ("gat_slots", x.gat_slots.to_string()),
                ("gp_groups_each", x.gp_groups_each.to_string()),
                ("gp_groups_all", x.gp_groups_all.to_string()),
                ("gat_slots_after_full", x.gat_slots_after_full.to_string()),
                ("gp_resets_after_full", x.gp_resets_after_full.to_string()),
                ("checksum", x.checksum.to_string()),
                ("insts", x.insts.to_string()),
                ("verified_variants", x.verified_variants.to_string()),
                ("shared_gp_resets_kept", x.shared_gp_resets_kept.to_string()),
                ("shared_identical", x.shared_identical.to_string()),
                ("archive_members_live", x.archive_members_live.to_string()),
                ("archive_members_total", x.archive_members_total.to_string()),
                ("archive_chain_depth", x.archive_chain_depth.to_string()),
                ("archive_checksum", x.archive_checksum.to_string()),
                ("edit_module_misses", x.edit_module_misses.to_string()),
                ("edit_hit_rate", f(x.edit_hit_rate)),
            ],
        );
    }
    if let Some(x) = r.ablations {
        sep(out);
        push_row(
            out,
            "ablations",
            &r.name,
            &[
                ("nullified_sorted", x.nullified_sorted.to_string()),
                ("nullified_unsorted", x.nullified_unsorted.to_string()),
                ("gat_fixpoint", x.gat_fixpoint.to_string()),
                ("gat_one_round", x.gat_one_round.to_string()),
                ("cycles_aligned", x.cycles_aligned.to_string()),
                ("cycles_unaligned", x.cycles_unaligned.to_string()),
            ],
        );
    }
    for m in r.mutants.iter().flat_map(|card| &card.rows) {
        sep(out);
        push_row(
            out,
            "mutants",
            &format!("{}/{}/{}", m.class, m.seed, m.site),
            &[
                ("verify", m.verify.to_string()),
                ("checksum", m.checksum.to_string()),
                ("interp", m.interp.to_string()),
                ("killed", m.killed().to_string()),
                ("detail", quote(&m.detail)),
            ],
        );
    }
    n
}

/// Renders the whole report. It is a function of `rows` and `quick` alone,
/// so it is byte-identical at any `--jobs` width and on any machine.
pub fn report(rows: &[BenchRows], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote(SCHEMA));
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"benchmarks\": {},", rows.len());
    out.push_str("  \"rows\": [\n");
    let mut first = true;
    for r in rows {
        let mut chunk = String::new();
        if rows_for(&mut chunk, r) > 0 {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&chunk);
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// The drift gate (`reproduce check`)
// ---------------------------------------------------------------------------

/// The figure `reproduce` prints but never writes: Figure 7's wall-clock
/// table. A `reproduce all --quick` run must produce at least one row of
/// every other figure of [`FIGURES`]; a silently skipped figure would
/// otherwise shrink the comparison instead of failing it.
pub const PRINT_ONLY: &str = "fig7";

/// Oracle markers, checked on every row of their figure: `(fig, field,
/// value as written)`, where `None` only requires the field. The harness
/// enforces most of these oracles itself; the gate re-checks what it
/// recorded so a harness regression cannot slip an unverified row into the
/// baseline. A mutant that escapes every oracle is recorded, and fails here.
pub const MARKERS: [(&str, &str, Option<&str>); 7] = [
    ("pgo", "pgo_cycles_each", None),
    ("fleet", "byte_identical", Some("true")),
    ("passes", "reconciled", Some("true")),
    ("scale", "verified_variants", Some("8")),
    ("scale", "shared_identical", Some("true")),
    ("scale", "edit_module_misses", Some("1")),
    ("mutants", "killed", Some("true")),
];

/// A report's figure rows by `(fig, bench)`.
type Rows<'a> = BTreeMap<(&'a str, &'a str), &'a BTreeMap<String, JsonValue>>;

/// Indexes `doc`'s rows, reporting (as `doc_name`) a wrong schema tag, a
/// row without string `fig` and `bench` keys, and a repeated `(fig, bench)`.
fn index<'a>(doc: &'a JsonValue, doc_name: &str, findings: &mut Vec<String>) -> Rows<'a> {
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        findings.push(format!("{doc_name}: not an {SCHEMA} report"));
    }
    let mut rows = Rows::new();
    let all = doc.get("rows").and_then(JsonValue::as_arr).unwrap_or_default();
    for (i, row) in all.iter().enumerate() {
        let key = |k| row.get(k).and_then(JsonValue::as_str);
        match (row, key("fig"), key("bench")) {
            (JsonValue::Obj(fields), Some(fig), Some(bench)) => {
                if rows.insert((fig, bench), fields).is_some() {
                    findings.push(format!("{doc_name}: {fig} {bench}: duplicate row"));
                }
            }
            _ => findings.push(format!("{doc_name}: row {i} has no string fig and bench")),
        }
    }
    rows
}

fn show(v: Option<&JsonValue>) -> String {
    v.map_or_else(|| "absent".to_string(), ToString::to_string)
}

/// Gates a `reproduce --json` report: every figure of [`FIGURES`] but
/// [`PRINT_ONLY`] has a row, and every row carries its figure's
/// [`MARKERS`]. Against a `baseline`, every row must also appear in both
/// reports under the same `(fig, bench)` with the same fields, each value
/// equal exactly as written. Row order and formatting do not matter.
///
/// Returns one finding per violation, naming the figure, benchmark and
/// field; empty means the report passes.
pub fn check(run: &JsonValue, baseline: Option<&JsonValue>) -> Vec<String> {
    let mut findings = Vec::new();
    let rows = index(run, "run", &mut findings);
    for fig in FIGURES.into_iter().filter(|f| *f != PRINT_ONLY) {
        if !rows.keys().any(|(f, _)| *f == fig) {
            findings.push(format!("{fig}: run has no rows"));
        }
    }
    for ((fig, bench), fields) in &rows {
        for (_, field, want) in MARKERS.iter().filter(|(f, ..)| f == fig) {
            let got = fields.get(*field);
            let ok = match (got, want) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(v), Some(w)) => v.to_string() == *w,
            };
            if !ok {
                let want = want.unwrap_or("present");
                findings.push(format!("{fig} {bench} {field}: {} (want {want})", show(got)));
            }
        }
    }
    let Some(baseline) = baseline else {
        return findings;
    };
    let base = index(baseline, "baseline", &mut findings);
    let keys: BTreeSet<_> = base.keys().chain(rows.keys()).collect();
    for key @ (fig, bench) in keys {
        match (base.get(key), rows.get(key)) {
            (Some(b), Some(r)) => {
                for field in b.keys().chain(r.keys()).collect::<BTreeSet<_>>() {
                    let (bv, rv) = (b.get(field), r.get(field));
                    if bv != rv {
                        findings.push(format!(
                            "{fig} {bench} {field}: baseline {}, run {}",
                            show(bv),
                            show(rv)
                        ));
                    }
                }
            }
            (Some(_), None) => findings.push(format!("{fig} {bench}: row missing from run")),
            (None, _) => findings.push(format!("{fig} {bench}: row not in baseline")),
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{
        AblationsRow, Fig3Row, Fig4Row, Fig5Row, Fig6Row, Fig7Row, GatRow, PassesRow, PgoRow,
        PASS_NAMES,
    };
    use crate::mutate::{scorecard, MutantRecord};
    use om_obs::json;

    /// One benchmark with a row in every figure, and one mutant.
    fn sample(name: &str) -> BenchRows {
        BenchRows {
            name: name.into(),
            fig3: Some(Fig3Row {
                each_simple: (0.25, 0.375),
                each_full: (0.25, 0.625),
                all_simple: (0.25, 0.5),
                all_full: (0.25, 0.75),
            }),
            fig4: Some(Fig4Row { pv: [[0.875, 0.75, 0.0]; 2], gp_reset: [[0.875, 0.0, 0.0]; 2] }),
            fig5: Some(Fig5Row {
                each_simple: 0.0625,
                each_full: 0.125,
                all_simple: 0.05,
                all_full: 0.1,
            }),
            fig6: Some(Fig6Row {
                improvement: [[0.5, 6.25, 6.5], [0.5, 6.0, 6.125]],
                base_cycles: [587631, 587000],
            }),
            fig7: Some(Fig7Row {
                standard_link: 0.0003,
                interproc_build: 0.0037,
                om_none: 0.0018,
                om_simple: 0.0022,
                om_full: 0.0031,
                om_full_sched: 0.0043,
            }),
            gat: Some(GatRow { each_before: 40, each_after: 5, all_before: 38, all_after: 4 }),
            pgo: Some(PgoRow {
                sched_cycles: [1000, 2000],
                pgo_cycles: [950, 1900],
                improvement: [5.26, 5.26],
                procs_moved: [2, 3],
                targets: [(4, 1), (5, 0)],
            }),
            fleet: Some(crate::fleet::FleetRow {
                requests: 12,
                threads: 4,
                modules: 5,
                module_hits: 16,
                module_misses: 4,
                link_hits: 8,
                link_misses: 4,
                hit_rate: 0.9333333333333333,
                byte_identical: true,
            }),
            passes: Some({
                let mut p = PassesRow {
                    deltas: [[0; om_core::obs::DELTA_FIELDS.len()]; PASS_NAMES.len()],
                    full_rounds: 2,
                    reconciled: true,
                };
                // convert deletes 4 address loads.
                let convert = PASS_NAMES.iter().position(|x| *x == "convert").unwrap();
                p.deltas[convert][1] = 4;
                p
            }),
            scale: Some(crate::scale::ScaleRow {
                n: 16,
                procs: 1600,
                objects_each: 17,
                objects_all: 2,
                gat_entries_input: 9000,
                gat_slots: 8600,
                gp_groups_each: 2,
                gp_groups_all: 2,
                gat_slots_after_full: 700,
                gp_resets_after_full: 3,
                checksum: -42,
                insts: 123456,
                verified_variants: 8,
                shared_gp_resets_kept: 5,
                shared_identical: true,
                archive_members_live: 16,
                archive_members_total: 24,
                archive_chain_depth: 16,
                archive_checksum: 77,
                edit_module_misses: 1,
                edit_hit_rate: 0.9375,
            }),
            ablations: Some(AblationsRow {
                nullified_sorted: 95,
                nullified_unsorted: 81,
                gat_fixpoint: 25,
                gat_one_round: 26,
                cycles_aligned: 4962700,
                cycles_unaligned: 4978545,
            }),
            mutants: Some(scorecard(vec![MutantRecord {
                class: "img-gat-trunc",
                seed: 3,
                site: 0,
                verify: true,
                checksum: true,
                interp: false,
                detail: "slot \"0x10\" truncated".into(),
            }])),
        }
    }

    #[test]
    fn rows_are_single_grepable_lines() {
        // fig7 stays set: its wall-clock row is never written.
        let rows = vec![BenchRows { fig3: None, fig4: None, fig6: None, ..sample("compress") }];
        let s = report(&rows, true);
        let header = r#"{
  "schema": "om-reproduce/v1",
  "quick": true,
  "benchmarks": 1,
  "rows": [
"#;
        assert!(s.starts_with(header), "{s}");
        let bench_lines: Vec<&str> = s.lines().filter(|l| l.contains("\"bench\"")).collect();
        assert_eq!(bench_lines.len(), 8, "{s}");
        assert!(bench_lines[0].contains("\"fig\":\"fig5\""), "{s}");
        assert!(bench_lines[1].contains("\"each_before\":40"), "{s}");
        assert!(bench_lines[2].contains("\"fig\":\"pgo\""), "{s}");
        assert!(bench_lines[2].contains("\"pgo_cycles_each\":950"), "{s}");
        assert!(bench_lines[3].contains("\"fig\":\"passes\""), "{s}");
        assert!(bench_lines[3].contains("\"convert_insts_deleted\":4"), "{s}");
        assert!(!bench_lines[3].contains("convert_insts_nullified"), "{s}");
        assert!(bench_lines[3].contains("\"full_rounds\":2"), "{s}");
        assert!(bench_lines[3].contains("\"reconciled\":true"), "{s}");
        assert!(bench_lines[4].contains("\"fig\":\"fleet\""), "{s}");
        assert!(bench_lines[4].contains("\"byte_identical\":true"), "{s}");
        assert!(bench_lines[5].contains("\"fig\":\"scale\""), "{s}");
        assert!(bench_lines[5].contains("\"verified_variants\":8"), "{s}");
        assert!(bench_lines[5].contains("\"edit_module_misses\":1"), "{s}");
        assert!(!bench_lines[5].contains("sampled"), "{s}");
        assert!(bench_lines[6].contains("\"fig\":\"ablations\""), "{s}");
        assert!(bench_lines[6].contains("\"gat_one_round\":26"), "{s}");
        assert!(
            bench_lines[7].ends_with(
                r#"{"fig":"mutants","bench":"img-gat-trunc/3/0","verify":true,"checksum":true,"interp":false,"killed":true,"detail":"slot \"0x10\" truncated"}"#
            ),
            "{s}"
        );
        let doc = json::parse(&s).expect("the report is JSON");
        let rows = doc.get("rows").and_then(JsonValue::as_arr).unwrap_or_default();
        assert_eq!(rows.len(), 8);
        // `fig`, `bench` and the 21 `ScaleRow` fields, nothing else.
        assert!(matches!(&rows[5], JsonValue::Obj(m) if m.len() == 23), "{s}");
    }

    /// A two-benchmark report: every figure present, two `scale` rows, one
    /// mutant.
    fn two_bench_report() -> String {
        report(&[sample("alpha"), BenchRows { mutants: None, ..sample("beta") }], true)
    }

    /// `text` with `field` on the `(fig, bench)` row replaced by `value`.
    fn edit(text: &str, fig: &str, bench: &str, field: &str, value: &str) -> String {
        let row = format!("{{\"fig\":\"{fig}\",\"bench\":\"{bench}\",");
        let key = format!("\"{field}\":");
        let mut edited = 0;
        let out: Vec<String> = text
            .lines()
            .map(|line| match line.find(&key).filter(|_| line.contains(&row)) {
                Some(at) => {
                    edited += 1;
                    let at = at + key.len();
                    let end = at + line[at..].find([',', '}']).expect("value end");
                    format!("{}{value}{}", &line[..at], &line[end..])
                }
                None => line.to_string(),
            })
            .collect();
        assert_eq!(edited, 1, "{fig} {bench} {field}");
        out.join("\n")
    }

    fn check_text(run: &str, baseline: Option<&str>) -> Vec<String> {
        let base = baseline.map(|b| json::parse(b).expect("baseline parses"));
        check(&json::parse(run).expect("run parses"), base.as_ref())
    }

    #[test]
    fn check_flags_a_bad_marker_on_either_scale_row() {
        let good = two_bench_report();
        assert_eq!(check_text(&good, Some(&good)), Vec::<String>::new());
        for (field, value) in [("edit_module_misses", "12"), ("verified_variants", "80")] {
            for bench in ["alpha", "beta"] {
                let bad = edit(&good, "scale", bench, field, value);
                let want = format!("scale {bench} {field}: {value} (want ");
                let findings = check_text(&bad, None);
                assert!(findings.iter().any(|f| f.starts_with(&want)), "{findings:?}");
            }
        }
        for (fig, bench, field) in [
            ("fleet", "beta", "byte_identical"),
            ("passes", "beta", "reconciled"),
            ("mutants", "img-gat-trunc/3/0", "killed"),
        ] {
            let findings = check_text(&edit(&good, fig, bench, field, "false"), None);
            assert_eq!(findings, [format!("{fig} {bench} {field}: false (want true)")]);
        }
    }

    #[test]
    fn check_names_the_drifted_field_exactly() {
        let base = two_bench_report();
        let run = edit(&base, "gat", "beta", "each_after", "6");
        assert_eq!(check_text(&run, Some(&base)), ["gat beta each_after: baseline 5, run 6"]);
        // Past 2^53 an f64 cannot tell these apart; the gate compares text.
        let base = edit(&base, "scale", "alpha", "checksum", "9007199254740993");
        let run = edit(&base, "scale", "alpha", "checksum", "9007199254740992");
        assert_eq!(
            check_text(&run, Some(&base)),
            ["scale alpha checksum: baseline 9007199254740993, run 9007199254740992"]
        );
        // A field or row present on one side only is drift too.
        let run = base.replace(",\"all_after\":4}", "}");
        assert_eq!(
            check_text(&run, Some(&base)),
            [
                "gat alpha all_after: baseline 4, run absent",
                "gat beta all_after: baseline 4, run absent"
            ]
        );
    }

    #[test]
    fn check_gates_fleet_counters() {
        let base = two_bench_report();
        let run = edit(&base, "fleet", "beta", "module_misses", "5");
        assert_eq!(check_text(&run, Some(&base)), ["fleet beta module_misses: baseline 4, run 5"]);
    }

    #[test]
    fn check_rejects_duplicate_rows_and_missing_figures() {
        let good = two_bench_report();
        let gat = good.lines().find(|l| l.contains("\"fig\":\"gat\"")).unwrap();
        let dup = good.replacen(gat, &format!("{gat}\n{gat}"), 1);
        assert_eq!(check_text(&dup, None), ["run: gat alpha: duplicate row"]);
        let no_fig6 = report(&[BenchRows { fig6: None, ..sample("alpha") }], true);
        assert_eq!(check_text(&no_fig6, None), ["fig6: run has no rows"]);
        let with_fig6 = report(&[sample("alpha")], true);
        assert_eq!(
            check_text(&no_fig6, Some(&with_fig6)),
            ["fig6: run has no rows", "fig6 alpha: row missing from run"]
        );
    }

    #[test]
    fn check_ignores_order_and_formatting() {
        let base = two_bench_report();
        // Every row reversed.
        let (head, rest) = base.split_once("\"rows\": [\n").unwrap();
        let (body, tail) = rest.split_once("\n  ]").unwrap();
        let mut rows: Vec<&str> = body.split(",\n").collect();
        rows.reverse();
        let reversed = format!("{head}\"rows\": [\n{}\n  ]{tail}", rows.join(",\n"));
        // The same report on one line, and re-indented with tabs and CRLF.
        let one_line: String = base.lines().map(str::trim).collect();
        let tabbed: String = base.lines().map(|l| format!("\t{}\r\n", l.trim())).collect();
        for run in [reversed, one_line, tabbed] {
            assert_eq!(check_text(&run, Some(&base)), Vec::<String>::new(), "{run}");
        }
    }

    fn committed_baseline() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        std::fs::read_to_string(path).expect("BENCH_baseline.json")
    }

    #[test]
    fn committed_baseline_passes_against_itself_only() {
        let base = committed_baseline();
        assert_eq!(check_text(&base, Some(&base)), Vec::<String>::new());
        let run = edit(&base, "gat", "compress", "each_after", "6");
        assert_eq!(check_text(&run, Some(&base)), ["gat compress each_after: baseline 5, run 6"]);
    }

    #[test]
    fn check_sees_an_oracle_column_move() {
        // A verifier that stops checking GAT slot contents leaves this
        // mutant killed by the runtime oracles: only its verify column moves.
        let base = committed_baseline();
        let run = edit(&base, "mutants", "img-gat-trunc/3/0", "verify", "false");
        assert_eq!(
            check_text(&run, Some(&base)),
            ["mutants img-gat-trunc/3/0 verify: baseline true, run false"]
        );
    }
}

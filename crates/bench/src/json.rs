//! Machine-readable output for `reproduce --json PATH` (hand-rolled; the
//! registry is offline, so no serde), and the drift gate that reads it back,
//! `reproduce check RUN [BASELINE]` ([`check`]).
//!
//! Every figure row is one object keyed by its `"fig"` and `"bench"`, then
//! its fields in the order its measure function gives them, written one per
//! line so a human diff stays readable. A `mutants` row's `"bench"` is its
//! mutant, `<class>/<seed>/<site>`. The schema is [`FIGURES`]: the writer
//! writes the figures it marks for the report, and the gate reads the
//! report back through [`om_obs::json`] and requires those figures and each
//! one's oracle markers. Every row is bit-deterministic, so the report
//! depends only on the code: Figure 7's wall-clock table is printed by
//! `reproduce fig7` and never written here.

use crate::figures::{figure, Entry, FIGURES};
use om_obs::json::{quote, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The report's schema tag.
pub const SCHEMA: &str = "om-reproduce/v1";

/// Renders the whole report: each entry's rows, figure by figure in
/// [`FIGURES`] order, behind a header whose `"benchmarks"` counts the
/// entries (the paper benchmarks and each unit of the own-program figures:
/// `scale16`, `scale64` and `mutants` in a quick run). It is a function of
/// `entries` and `quick` alone, so it is byte-identical at any `--jobs`
/// width and on any machine.
pub fn report(entries: &[Entry], quick: bool) -> String {
    let mut lines = Vec::new();
    for e in entries {
        for (fig, rows) in FIGURES.iter().zip(&e.rows).filter(|(f, _)| f.json) {
            for r in rows {
                let (fig, bench) = (quote(fig.name), quote(&r.bench));
                let mut line = format!("    {{\"fig\":{fig},\"bench\":{bench}");
                for (k, v) in &r.fields {
                    let _ = write!(line, ",\"{k}\":{v}");
                }
                lines.push(line + "}");
            }
        }
    }
    let (schema, n, rows) = (quote(SCHEMA), entries.len(), lines.join(",\n"));
    format!("{{\n  \"schema\": {schema},\n  \"quick\": {quick},\n  \"benchmarks\": {n},\n")
        + &format!("  \"rows\": [\n{rows}\n  ]\n}}\n")
}

// ---------------------------------------------------------------------------
// The drift gate (`reproduce check`)
// ---------------------------------------------------------------------------

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

/// Gates a `reproduce --json` report: every figure of [`FIGURES`] the
/// report carries has a row, and every row carries its figure's markers.
/// Against a `baseline`, every row must also appear in both reports under
/// the same `(fig, bench)` with the same fields, each value equal exactly as
/// written. Row order and formatting do not matter.
///
/// Returns one finding per violation, naming the figure, benchmark and
/// field; empty means the report passes.
pub fn check(run: &JsonValue, baseline: Option<&JsonValue>) -> Vec<String> {
    let mut findings = Vec::new();
    let rows = index(run, "run", &mut findings);
    for fig in FIGURES.iter().filter(|f| f.json) {
        if !rows.keys().any(|(f, _)| *f == fig.name) {
            findings.push(format!("{}: run has no rows", fig.name));
        }
    }
    for ((fig, bench), fields) in &rows {
        for (field, want) in figure(fig).map_or(&[][..], |f| f.markers) {
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
    use crate::figures::{field, Row, Value};
    use om_obs::json;

    fn at(fig: &str) -> usize {
        FIGURES.iter().position(|f| f.name == fig).expect("a figure")
    }

    /// An entry with one row of every figure, keyed `bench`: a count `n` of
    /// 5, a fraction `x` of 0.25, then each of the figure's markers as it
    /// must read (950 where any value will do).
    fn sample(bench: &str) -> Entry {
        let marker = |want: Option<&str>| match want {
            Some("true") => Value::Bool(true),
            Some(n) => Value::Int(n.parse().expect("a count")),
            None => Value::Int(950),
        };
        let rows = FIGURES.iter().map(|f| {
            let mut fields = vec![field("n", 5usize), field("x", 0.25)];
            fields.extend(f.markers.iter().map(|(k, want)| field(*k, marker(*want))));
            vec![Row { bench: bench.into(), fields }]
        });
        Entry { rows: rows.collect() }
    }

    #[test]
    fn rows_are_single_grepable_lines() {
        // Three figures unmeasured; fig7's row is never written. The second
        // entry has no rows but counts in the header.
        let mut entry = sample("compress");
        for fig in ["fig3", "fig4", "fig6"] {
            entry.rows[at(fig)].clear();
        }
        entry.rows[at("mutants")][0] = Row {
            bench: "img-gat-trunc/3/0".into(),
            fields: vec![
                field("verify", true),
                field("checksum", -42i64),
                field("detail", "slot \"0x10\" truncated".to_string()),
                field("rate", 0.9333333333333333),
                field("x", 2.0),
            ],
        };
        let s = report(&[entry, Entry::of("fig3", Vec::new())], true);
        let header = r#"{
  "schema": "om-reproduce/v1",
  "quick": true,
  "benchmarks": 2,
  "rows": [
"#;
        assert!(s.starts_with(header), "{s}");
        let written = ["fig5", "gat", "pgo", "passes", "fleet", "scale", "ablations", "mutants"];
        let bench_lines: Vec<&str> = s.lines().filter(|l| l.contains("\"bench\"")).collect();
        assert_eq!(bench_lines.len(), written.len(), "{s}");
        for (line, fig) in bench_lines.iter().zip(written) {
            assert!(line.starts_with(&format!("    {{\"fig\":\"{fig}\",\"bench\":")), "{s}");
        }
        assert_eq!(bench_lines[1], r#"    {"fig":"gat","bench":"compress","n":5,"x":0.25},"#);
        assert!(bench_lines[2].ends_with(r#""n":5,"x":0.25,"pgo_cycles_each":950},"#), "{s}");
        assert!(
            bench_lines[7].ends_with(
                r#"{"fig":"mutants","bench":"img-gat-trunc/3/0","verify":true,"checksum":-42,"detail":"slot \"0x10\" truncated","rate":0.9333333333333333,"x":2.0}"#
            ),
            "{s}"
        );
        assert!(s.ends_with("}\n  ]\n}\n"), "{s}");
        let doc = json::parse(&s).expect("the report is JSON");
        let rows = doc.get("rows").and_then(JsonValue::as_arr).unwrap_or_default();
        assert_eq!(rows.len(), written.len());
        // `fig`, `bench`, `n`, `x` and the three scale markers.
        assert!(matches!(&rows[5], JsonValue::Obj(m) if m.len() == 7), "{s}");
    }

    /// A two-benchmark report: every figure present, two `scale` rows.
    fn two_bench_report() -> String {
        report(&[sample("alpha"), sample("beta")], true)
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
            ("mutants", "alpha", "killed"),
        ] {
            let findings = check_text(&edit(&good, fig, bench, field, "false"), None);
            assert_eq!(findings, [format!("{fig} {bench} {field}: false (want true)")]);
        }
        let no_cycles = good.replacen(",\"pgo_cycles_each\":950", "", 1);
        assert_eq!(
            check_text(&no_cycles, None),
            ["pgo alpha pgo_cycles_each: absent (want present)"]
        );
    }

    #[test]
    fn check_names_the_drifted_field_exactly() {
        let base = two_bench_report();
        for fig in FIGURES.iter().filter(|f| f.json).map(|f| f.name) {
            let run = edit(&base, fig, "beta", "n", "6");
            assert_eq!(check_text(&run, Some(&base)), [format!("{fig} beta n: baseline 5, run 6")]);
        }
        // Past 2^53 an f64 cannot tell these apart; the gate compares text.
        let base = edit(&base, "scale", "alpha", "n", "9007199254740993");
        let run = edit(&base, "scale", "alpha", "n", "9007199254740992");
        assert_eq!(
            check_text(&run, Some(&base)),
            ["scale alpha n: baseline 9007199254740993, run 9007199254740992"]
        );
        // A field present on one side only is drift too.
        let gat = "{\"fig\":\"gat\",\"bench\":\"beta\",";
        let run = base.replace(&format!("{gat}\"n\":5,"), gat);
        assert_eq!(check_text(&run, Some(&base)), ["gat beta n: baseline 5, run absent"]);
    }

    #[test]
    fn check_rejects_duplicate_rows_and_missing_figures() {
        let good = two_bench_report();
        let gat = good.lines().find(|l| l.contains("\"fig\":\"gat\"")).unwrap();
        let dup = good.replacen(gat, &format!("{gat}\n{gat}"), 1);
        assert_eq!(check_text(&dup, None), ["run: gat alpha: duplicate row"]);
        let mut entry = sample("alpha");
        entry.rows[at("fig6")].clear();
        let no_fig6 = report(&[entry], true);
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

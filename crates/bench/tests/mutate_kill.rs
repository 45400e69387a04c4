//! Tier-1 mutation-kill smoke: a bounded, fixed slice of the `mutants`
//! corpus runs on every `cargo test`, pinning that (a) the harness stays
//! deterministic at any worker count and (b) no mutant in the slice escapes
//! every oracle. The committed `mutants` rows of `BENCH_baseline.json` are
//! additionally checked against the acceptance floor (>= 60 mutants, >= 10
//! classes, zero escapes), so a stale or hand-edited baseline fails here
//! rather than silently weakening the drift gate.

use om_bench::figures::Row;
use om_bench::mutate::{run_campaign, scorecard, MutantRecord, Scorecard};
use om_obs::json::JsonValue;
use std::collections::BTreeSet;

/// One corpus seed, one site per class: every mutant class is exercised
/// (seed 3 has a live site-0 candidate for all of them — asserted below).
fn slice_rows(jobs: usize) -> Vec<Row> {
    let records = run_campaign(&[3], 1, jobs).expect("clean build of corpus seed 3");
    records.iter().map(MutantRecord::row).collect()
}

fn slice(jobs: usize) -> Scorecard {
    scorecard(&slice_rows(jobs))
}

#[test]
fn bounded_slice_kills_every_mutant() {
    let card = slice(2);
    assert!(card.mutants >= 10, "slice produced only {} mutants", card.mutants);
    assert_eq!(card.escaped, 0, "escapes in the tier-1 slice: {:?}", card.escapes);
    // Both injection layers are present in the slice.
    assert!(card.classes.iter().any(|c| c.class.starts_with("img-")));
    assert!(card.classes.iter().any(|c| c.class.starts_with("fault-")));
    // The attribution story holds: at least one class is verify-blind
    // (runtime oracles only) and at least one is runtime-blind (verify
    // only) — the nets genuinely overlap rather than duplicating.
    assert!(
        card.classes.iter().any(|c| c.verify == 0 && c.checksum == c.total),
        "no verify-blind class in the slice"
    );
    assert!(
        card.classes.iter().any(|c| c.verify == c.total && c.checksum == 0),
        "no runtime-blind class in the slice"
    );
}

#[test]
fn scorecard_is_deterministic_across_worker_counts() {
    assert_eq!(slice_rows(1), slice_rows(2));
}

#[test]
fn committed_baseline_meets_the_acceptance_floor() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_baseline.json");
    let doc = om_obs::json::parse(&text).expect("baseline parses");
    let rows = doc.get("rows").and_then(JsonValue::as_arr).unwrap_or_default();
    let mut mutants = 0;
    let mut classes = BTreeSet::new();
    for row in rows.iter().filter(|r| r.get("fig").and_then(JsonValue::as_str) == Some("mutants")) {
        let key = row.get("bench").and_then(JsonValue::as_str).expect("a mutant key");
        classes.insert(key.split('/').next().expect("a class").to_string());
        let killed = |k| row.get(k) == Some(&JsonValue::Bool(true));
        assert!(killed("killed"), "{key} escapes in the baseline");
        assert!(["verify", "checksum", "interp"].into_iter().any(killed), "{key}: no oracle");
        mutants += 1;
    }
    assert!(mutants >= 60, "baseline has only {mutants} mutants");
    assert!(classes.len() >= 10, "baseline has only {} classes", classes.len());
}

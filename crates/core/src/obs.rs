//! Pass-level observability: spans and deterministic counter deltas.
//!
//! Each transformation pass runs between two snapshots of the (Copy)
//! [`OmStats`] record; the difference is emitted as `pass.<name>.<field>`
//! counters on the installed [`om_obs::Trace`] and as span arguments. No
//! pass decrements a field — the pass that decides a removal also counts
//! it — so the per-pass counters of a field sum to its `OmStats` total.
//! [`reconcile`] performs exactly that check; the trace tests and the bench
//! `passes` figure both use it.
//!
//! Everything here is inert (no allocation, no lock) when no trace is
//! installed on the current thread.

use crate::stats::OmStats;
use std::collections::BTreeMap;

type Get = fn(&OmStats) -> usize;

/// The [`OmStats`] fields transformation passes mutate, with accessors.
/// Fields set before the passes run (`*_before`, `*_total`) or derived
/// afterwards (`*_after`) are deliberately absent: per-pass deltas over this
/// table sum exactly to the final stats because these fields start at zero
/// and change only inside metered passes.
pub const DELTA_FIELDS: &[(&str, Get)] = &[
    ("insts_nullified", |s| s.insts_nullified),
    ("insts_deleted", |s| s.insts_deleted),
    ("unops_inserted", |s| s.unops_inserted),
    ("addr_loads_converted", |s| s.addr_loads_converted),
    ("addr_loads_nullified", |s| s.addr_loads_nullified),
    ("calls_jsr_to_bsr", |s| s.calls_jsr_to_bsr),
    ("pgo_procs_moved", |s| s.pgo_procs_moved),
    ("pgo_targets_hot", |s| s.pgo_targets_hot),
    ("pgo_targets_cold", |s| s.pgo_targets_cold),
];

/// Meters one pass: a `pass.<name>` span plus counter deltas over
/// [`DELTA_FIELDS`]. Create with [`PassMeter::begin`] before the pass and
/// call [`PassMeter::end`] with the stats after it.
pub struct PassMeter {
    span: om_obs::Span,
    name: &'static str,
    before: OmStats,
}

impl PassMeter {
    /// Opens the pass span and snapshots the stats. Inert when no trace is
    /// installed.
    pub fn begin(name: &'static str, stats: &OmStats) -> PassMeter {
        let span = if om_obs::enabled() {
            om_obs::span(&format!("pass.{name}"))
        } else {
            om_obs::span("")
        };
        PassMeter { span, name, before: *stats }
    }

    /// Annotates the pass span with a deterministic count, such as how many
    /// items the pass visited. Recorded nowhere else.
    pub fn arg(&mut self, key: &str, value: usize) {
        self.span.arg(key, value as u64);
    }

    /// Closes the span, recording each field's growth as a span argument
    /// and a `pass.<name>.<field>` counter. A field that shrank records
    /// nothing, so [`reconcile`] reports it.
    pub fn end(mut self, after: &OmStats) {
        if !om_obs::enabled() {
            return;
        }
        for (field, get) in DELTA_FIELDS {
            let delta = get(after).saturating_sub(get(&self.before)) as u64;
            if delta > 0 {
                om_obs::count(&format!("pass.{}.{field}", self.name), delta);
                self.span.arg(field, delta);
            }
        }
    }
}

/// Checks that the per-pass counter deltas in `counters` sum to the totals
/// in `stats`, field by field. Returns the per-field sums on success.
///
/// # Errors
///
/// Describes the first field whose pass deltas do not reconcile.
pub fn reconcile(
    counters: &BTreeMap<String, u64>,
    stats: &OmStats,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut sums = BTreeMap::new();
    for (field, get) in DELTA_FIELDS {
        let suffix = format!(".{field}");
        let sum: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("pass.") && k.ends_with(&suffix))
            .map(|(_, &v)| v)
            .sum();
        let total = get(stats) as u64;
        if sum != total {
            return Err(format!(
                "field `{field}`: pass deltas sum to {sum}, OmStats total is {total}"
            ));
        }
        sums.insert(*field, sum);
    }
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_obs::Trace;

    #[test]
    fn meter_emits_deltas_that_reconcile() {
        let t = Trace::new();
        let mut stats = OmStats::default();
        {
            let _g = t.install();
            let m = PassMeter::begin("calls", &stats);
            stats.insts_deleted += 4;
            stats.calls_jsr_to_bsr += 2;
            m.end(&stats);
            let m = PassMeter::begin("convert", &stats);
            stats.insts_deleted += 3;
            stats.addr_loads_converted += 2;
            m.end(&stats);
        }
        let counters = t.counters();
        assert_eq!(counters.get("pass.calls.insts_deleted"), Some(&4));
        assert_eq!(counters.get("pass.convert.insts_deleted"), Some(&3));
        assert_eq!(counters.get("pass.convert.addr_loads_converted"), Some(&2));
        assert!(!counters.contains_key("pass.convert.insts_nullified"));
        let sums = reconcile(&counters, &stats).unwrap();
        assert_eq!(sums.get("insts_deleted"), Some(&7));
        assert_eq!(sums.get("insts_nullified"), Some(&0));
    }

    #[test]
    fn a_decrement_records_nothing_and_does_not_reconcile() {
        let t = Trace::new();
        let mut stats = OmStats::default();
        {
            let _g = t.install();
            let m = PassMeter::begin("convert", &stats);
            stats.insts_nullified += 3;
            m.end(&stats);
            let m = PassMeter::begin("calls", &stats);
            stats.insts_nullified -= 1;
            m.end(&stats);
        }
        let counters = t.counters();
        assert_eq!(counters.keys().collect::<Vec<_>>(), ["pass.convert.insts_nullified"]);
        let err = reconcile(&counters, &stats).unwrap_err();
        assert!(err.contains("insts_nullified"), "{err}");
    }

    #[test]
    fn reconcile_flags_a_skewed_total() {
        let t = Trace::new();
        let mut stats = OmStats::default();
        {
            let _g = t.install();
            let m = PassMeter::begin("convert", &stats);
            stats.insts_deleted += 1;
            m.end(&stats);
        }
        stats.insts_deleted += 1; // mutated outside any metered pass
        let err = reconcile(&t.counters(), &stats).unwrap_err();
        assert!(err.contains("insts_deleted"), "{err}");
    }

    #[test]
    fn meter_is_inert_without_a_trace() {
        let mut stats = OmStats::default();
        let m = PassMeter::begin("convert", &stats);
        stats.insts_deleted += 7;
        m.end(&stats); // must not panic or record anywhere
    }
}

//! Text rendering of the reproduced figures, in the layout of the paper's
//! plots (per-benchmark rows plus the unweighted arithmetic mean the paper's
//! figure keys show).

use crate::figures::{Fig3Row, Fig4Row, Fig5Row, Fig6Row, Fig7Row, GatRow, PgoRow};

fn pct(v: f64) -> String {
    format!("{:5.1}", v * 100.0)
}

/// Renders Figure 3.
pub fn fig3(rows: &[(String, Fig3Row)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 3: static fraction of address loads removed (%)\n");
    out.push_str("  (cv = converted to load-address, nu = nullified/deleted)\n\n");
    out.push_str(&format!(
        "{:10} | {:^11} | {:^11} | {:^11} | {:^11}\n",
        "", "each/simple", "each/full", "all/simple", "all/full"
    ));
    out.push_str(&format!(
        "{:10} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}\n",
        "benchmark", "cv", "nu", "cv", "nu", "cv", "nu", "cv", "nu"
    ));
    out.push_str(&"-".repeat(66));
    out.push('\n');
    let mut sums = [0.0f64; 8];
    for (name, r) in rows {
        let v = [
            r.each_simple.0,
            r.each_simple.1,
            r.each_full.0,
            r.each_full.1,
            r.all_simple.0,
            r.all_simple.1,
            r.all_full.0,
            r.all_full.1,
        ];
        for (s, x) in sums.iter_mut().zip(v) {
            *s += x;
        }
        out.push_str(&format!(
            "{:10} | {} {} | {} {} | {} {} | {} {}\n",
            name,
            pct(v[0]),
            pct(v[1]),
            pct(v[2]),
            pct(v[3]),
            pct(v[4]),
            pct(v[5]),
            pct(v[6]),
            pct(v[7])
        ));
    }
    let n = rows.len() as f64;
    out.push_str(&"-".repeat(66));
    out.push('\n');
    out.push_str(&format!(
        "{:10} | {} {} | {} {} | {} {} | {} {}\n",
        "MEAN",
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
        pct(sums[4] / n),
        pct(sums[5] / n),
        pct(sums[6] / n),
        pct(sums[7] / n)
    ));
    out
}

/// Renders Figure 4.
pub fn fig4(rows: &[(String, Fig4Row)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: fraction of calls still requiring PV loads (top)\n");
    out.push_str("          and GP-reset code (bottom), %\n\n");
    for (title, pick) in [
        ("PV loads", 0usize),
        ("GP resets", 1usize),
    ] {
        out.push_str(&format!(
            "{title}:\n{:10} | {:^17} | {:^17}\n",
            "", "compile-each", "compile-all"
        ));
        out.push_str(&format!(
            "{:10} | {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5}\n",
            "benchmark", "noOM", "simp", "full", "noOM", "simp", "full"
        ));
        out.push_str(&"-".repeat(50));
        out.push('\n');
        let mut sums = [0.0f64; 6];
        for (name, r) in rows {
            let m = if pick == 0 { r.pv } else { r.gp_reset };
            let v = [m[0][0], m[0][1], m[0][2], m[1][0], m[1][1], m[1][2]];
            for (s, x) in sums.iter_mut().zip(v) {
                *s += x;
            }
            out.push_str(&format!(
                "{:10} | {} {} {} | {} {} {}\n",
                name,
                pct(v[0]),
                pct(v[1]),
                pct(v[2]),
                pct(v[3]),
                pct(v[4]),
                pct(v[5])
            ));
        }
        let n = rows.len() as f64;
        out.push_str(&"-".repeat(50));
        out.push('\n');
        out.push_str(&format!(
            "{:10} | {} {} {} | {} {} {}\n\n",
            "MEAN",
            pct(sums[0] / n),
            pct(sums[1] / n),
            pct(sums[2] / n),
            pct(sums[3] / n),
            pct(sums[4] / n),
            pct(sums[5] / n)
        ));
    }
    out
}

/// Renders Figure 5.
pub fn fig5(rows: &[(String, Fig5Row)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: static fraction of instructions nullified/deleted (%)\n\n");
    out.push_str(&format!(
        "{:10} | {:>11} {:>9} | {:>10} {:>8}\n",
        "benchmark", "each/simple", "each/full", "all/simple", "all/full"
    ));
    out.push_str(&"-".repeat(57));
    out.push('\n');
    let mut sums = [0.0f64; 4];
    for (name, r) in rows {
        let v = [r.each_simple, r.each_full, r.all_simple, r.all_full];
        for (s, x) in sums.iter_mut().zip(v) {
            *s += x;
        }
        out.push_str(&format!(
            "{:10} | {:>11} {:>9} | {:>10} {:>8}\n",
            name,
            pct(v[0]),
            pct(v[1]),
            pct(v[2]),
            pct(v[3])
        ));
    }
    let n = rows.len() as f64;
    out.push_str(&"-".repeat(57));
    out.push('\n');
    out.push_str(&format!(
        "{:10} | {:>11} {:>9} | {:>10} {:>8}\n",
        "MEAN",
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n)
    ));
    out
}

/// Renders Figure 6, including medians (the paper quotes both).
pub fn fig6(rows: &[(String, Fig6Row)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: dynamic improvement over no link-time optimization (%)\n\n");
    out.push_str(&format!(
        "{:10} | {:^20} | {:^20}\n",
        "", "compile-each", "compile-all"
    ));
    out.push_str(&format!(
        "{:10} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}\n",
        "benchmark", "simp", "full", "sched", "simp", "full", "sched"
    ));
    out.push_str(&"-".repeat(58));
    out.push('\n');
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for (name, r) in rows {
        let v = [
            r.improvement[0][0],
            r.improvement[0][1],
            r.improvement[0][2],
            r.improvement[1][0],
            r.improvement[1][1],
            r.improvement[1][2],
        ];
        for (c, x) in cols.iter_mut().zip(v) {
            c.push(x);
        }
        out.push_str(&format!(
            "{:10} | {:>6.2} {:>6.2} {:>6.2} | {:>6.2} {:>6.2} {:>6.2}\n",
            name, v[0], v[1], v[2], v[3], v[4], v[5]
        ));
    }
    out.push_str(&"-".repeat(58));
    out.push('\n');
    let mean = |c: &Vec<f64>| c.iter().sum::<f64>() / c.len() as f64;
    let median = |c: &Vec<f64>| {
        let mut s = c.clone();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    out.push_str(&format!(
        "{:10} | {:>6.2} {:>6.2} {:>6.2} | {:>6.2} {:>6.2} {:>6.2}\n",
        "MEAN",
        mean(&cols[0]),
        mean(&cols[1]),
        mean(&cols[2]),
        mean(&cols[3]),
        mean(&cols[4]),
        mean(&cols[5])
    ));
    out.push_str(&format!(
        "{:10} | {:>6.2} {:>6.2} {:>6.2} | {:>6.2} {:>6.2} {:>6.2}\n",
        "MEDIAN",
        median(&cols[0]),
        median(&cols[1]),
        median(&cols[2]),
        median(&cols[3]),
        median(&cols[4]),
        median(&cols[5])
    ));
    out
}

/// Renders Figure 7.
pub fn fig7(rows: &[(String, Fig7Row)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: build times in seconds\n\n");
    out.push_str(&format!(
        "{:10} | {:>8} {:>9} | {:>7} {:>7} {:>7} {:>8}\n",
        "benchmark", "std-link", "interproc", "OM-none", "OM-simp", "OM-full", "OM-sched"
    ));
    out.push_str(&"-".repeat(66));
    out.push('\n');
    for (name, r) in rows {
        out.push_str(&format!(
            "{:10} | {:>8.3} {:>9.3} | {:>7.3} {:>7.3} {:>7.3} {:>8.3}\n",
            name,
            r.standard_link,
            r.interproc_build,
            r.om_none,
            r.om_simple,
            r.om_full,
            r.om_full_sched
        ));
    }
    out
}

/// Renders the §5.1 GAT-reduction table.
pub fn gat(rows: &[(String, GatRow)]) -> String {
    let mut out = String::new();
    out.push_str("GAT reduction under OM-full (merged slots)\n\n");
    out.push_str(&format!(
        "{:10} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6}\n",
        "benchmark", "each:in", "out", "ratio", "all:in", "out", "ratio"
    ));
    out.push_str(&"-".repeat(60));
    out.push('\n');
    for (name, r) in rows {
        out.push_str(&format!(
            "{:10} | {:>7} {:>7} {:>5.1}% | {:>7} {:>7} {:>5.1}%\n",
            name,
            r.each_before,
            r.each_after,
            100.0 * r.each_after as f64 / r.each_before.max(1) as f64,
            r.all_before,
            r.all_after,
            100.0 * r.all_after as f64 / r.all_before.max(1) as f64
        ));
    }
    out
}

/// Renders the profile-guided-layout comparison table.
pub fn pgo(rows: &[(String, PgoRow)]) -> String {
    let mut out = String::new();
    out.push_str("Profile-guided layout vs OM-full w/sched (cycles; + = PGO faster)\n\n");
    out.push_str(&format!(
        "{:10} | {:^28} | {:^28}\n",
        "", "compile-each", "compile-all"
    ));
    out.push_str(&format!(
        "{:10} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}\n",
        "benchmark", "sched", "pgo", "imp%", "sched", "pgo", "imp%"
    ));
    out.push_str(&"-".repeat(73));
    out.push('\n');
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 2];
    let mut wins = [0usize; 2];
    let mut ties = [0usize; 2];
    for (name, r) in rows {
        for mi in 0..2 {
            cols[mi].push(r.improvement[mi]);
            if r.pgo_cycles[mi] < r.sched_cycles[mi] {
                wins[mi] += 1;
            } else if r.pgo_cycles[mi] == r.sched_cycles[mi] {
                ties[mi] += 1;
            }
        }
        out.push_str(&format!(
            "{:10} | {:>10} {:>10} {:>6.2} | {:>10} {:>10} {:>6.2}\n",
            name,
            r.sched_cycles[0],
            r.pgo_cycles[0],
            r.improvement[0],
            r.sched_cycles[1],
            r.pgo_cycles[1],
            r.improvement[1]
        ));
    }
    out.push_str(&"-".repeat(73));
    out.push('\n');
    let mean = |c: &Vec<f64>| c.iter().sum::<f64>() / c.len() as f64;
    let median = |c: &Vec<f64>| {
        let mut s = c.clone();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    out.push_str(&format!(
        "{:10} | {:>10} {:>10} {:>6.2} | {:>10} {:>10} {:>6.2}\n",
        "MEAN", "", "", mean(&cols[0]), "", "", mean(&cols[1])
    ));
    out.push_str(&format!(
        "{:10} | {:>10} {:>10} {:>6.2} | {:>10} {:>10} {:>6.2}\n",
        "MEDIAN", "", "", median(&cols[0]), "", "", median(&cols[1])
    ));
    let n = rows.len();
    out.push_str(&format!(
        "PGO no worse: each {}/{n} ({} faster, {} tied), all {}/{n} ({} faster, {} tied)\n",
        wins[0] + ties[0],
        wins[0],
        ties[0],
        wins[1] + ties[1],
        wins[1],
        ties[1]
    ));
    out
}

/// Renders the per-pass counter table (deltas from one traced
/// OM-full-scheduled run per benchmark).
pub fn passes(rows: &[(String, crate::figures::PassesRow)]) -> String {
    use crate::figures::PASS_NAMES;
    use om_core::obs::DELTA_FIELDS;
    let col = |pass: &str, field: &str| {
        let pi = PASS_NAMES.iter().position(|p| *p == pass).unwrap();
        let fi = DELTA_FIELDS.iter().position(|(f, _)| *f == field).unwrap();
        (pi, fi)
    };
    let cols = [
        ("jsr>bsr", col("calls", "calls_jsr_to_bsr")),
        ("conv", col("convert", "addr_loads_converted")),
        ("null", col("convert", "addr_loads_nullified")),
        ("del", col("convert", "insts_deleted")),
        ("unop", col("resched", "unops_inserted")),
    ];
    let mut out = String::new();
    out.push_str("Per-pass counter deltas (OM-full w/sched, compile-each; deterministic)\n\n");
    out.push_str(&format!("{:10} |", "benchmark"));
    for (h, _) in &cols {
        out.push_str(&format!(" {h:>7}"));
    }
    out.push_str(&format!(" | {:>6} {:>5}\n", "rounds", "recon"));
    out.push_str(&"-".repeat(12 + cols.len() * 8 + 16));
    out.push('\n');
    for (name, r) in rows {
        out.push_str(&format!("{name:10} |"));
        for &(_, (pi, fi)) in &cols {
            out.push_str(&format!(" {:>7}", r.deltas[pi][fi]));
        }
        out.push_str(&format!(
            " | {:>6} {:>5}\n",
            r.full_rounds,
            if r.reconciled { "ok" } else { "FAIL" }
        ));
    }
    out
}

/// Renders the CI-fleet relink table.
pub fn fleet(rows: &[(String, crate::fleet::FleetRow)]) -> String {
    let mut out = String::new();
    out.push_str("CI fleet: cached relinks after single-module edits (omd link server)\n\n");
    out.push_str(&format!(
        "{:10} | {:>4} {:>3} {:>4} | {:>6} {:>6} | {:>6} | {:>5}\n",
        "benchmark", "req", "thr", "mods", "l.hit", "l.miss", "hit%", "ident"
    ));
    out.push_str(&"-".repeat(59));
    out.push('\n');
    let mut rates = Vec::new();
    for (name, r) in rows {
        rates.push(r.hit_rate);
        out.push_str(&format!(
            "{:10} | {:>4} {:>3} {:>4} | {:>6} {:>6} | {:>6} | {:>5}\n",
            name,
            r.requests,
            r.threads,
            r.modules,
            r.link_hits,
            r.link_misses,
            pct(r.hit_rate),
            if r.byte_identical { "yes" } else { "NO" }
        ));
    }
    out.push_str(&"-".repeat(59));
    out.push('\n');
    if !rates.is_empty() {
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        out.push_str(&format!(
            "{:10} | {:>4} {:>3} {:>4} | {:>6} {:>6} | {:>6}\n",
            "MEAN", "", "", "", "", "", pct(mean)
        ));
    }
    out
}

/// Renders the scaling-curve table: geometry and oracle fields per point.
pub fn scale(rows: &[(String, crate::scale::ScaleRow)]) -> String {
    let mut out = String::new();
    out.push_str("Scaling curves: oracle-gated scale points (all variants verified)\n\n");
    out.push_str(&format!(
        "{:10} | {:>6} {:>7} | {:>8} {:>8} {:>5} {:>5} | {:>4} {:>6} | {:>5} | {:>5}\n",
        "point", "mods", "procs", "gat.in", "slots", "gp.e", "gp.a", "vars", "hit%", "arch", "ident"
    ));
    out.push_str(&"-".repeat(89));
    out.push('\n');
    for (name, r) in rows {
        out.push_str(&format!(
            "{:10} | {:>6} {:>7} | {:>8} {:>8} {:>5} {:>5} | {:>4} {:>6} | {:>2}/{:>2} | {:>5}\n",
            name,
            r.n,
            r.procs,
            r.gat_entries_input,
            r.gat_slots,
            r.gp_groups_each,
            r.gp_groups_all,
            r.verified_variants,
            pct(r.edit_hit_rate),
            r.archive_members_live,
            r.archive_members_total,
            if r.shared_identical { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_and_average() {
        let rows = vec![
            (
                "a".to_string(),
                Fig5Row { each_simple: 0.06, each_full: 0.11, all_simple: 0.05, all_full: 0.10 },
            ),
            (
                "b".to_string(),
                Fig5Row { each_simple: 0.08, each_full: 0.13, all_simple: 0.07, all_full: 0.12 },
            ),
        ];
        let t = fig5(&rows);
        assert!(t.contains("MEAN"));
        assert!(t.contains("7.0"), "{t}"); // mean of 6% and 8%
    }

    #[test]
    fn pgo_table_counts_wins() {
        let rows = vec![
            (
                "a".to_string(),
                PgoRow {
                    sched_cycles: [1000, 2000],
                    pgo_cycles: [900, 2000],
                    improvement: [11.11, 0.0],
                    procs_moved: [3, 0],
                    targets: [(2, 1), (4, 0)],
                },
            ),
            (
                "b".to_string(),
                PgoRow {
                    sched_cycles: [500, 600],
                    pgo_cycles: [510, 580],
                    improvement: [-1.96, 3.45],
                    procs_moved: [1, 2],
                    targets: [(1, 1), (1, 2)],
                },
            ),
        ];
        let t = pgo(&rows);
        assert!(t.contains("each 1/2 (1 faster, 0 tied)"), "{t}");
        assert!(t.contains("all 2/2 (1 faster, 1 tied)"), "{t}");
        assert!(t.contains("MEDIAN"), "{t}");
    }

    #[test]
    fn fig6_median_is_robust() {
        let mk = |v: f64| Fig6Row { improvement: [[v; 3]; 2], base_cycles: [1, 1] };
        let rows = vec![
            ("a".into(), mk(1.0)),
            ("b".into(), mk(2.0)),
            ("c".into(), mk(50.0)),
        ];
        let t = fig6(&rows);
        assert!(t.contains("MEDIAN"));
        assert!(t.lines().last().unwrap().contains("2.00"), "{t}");
    }
}

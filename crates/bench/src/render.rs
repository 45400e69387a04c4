//! The one table writer: every figure's [`Table`]s, declared in
//! [`crate::figures::FIGURES`], laid over its rows in the layout of the
//! paper's plots (per-benchmark rows plus the summary lines the paper's
//! figure keys show), and the mutation scorecard's printer.

use crate::figures::{Row, Value};
use crate::mutate::Scorecard;
use std::fmt::Write as _;

/// How `reproduce` prints a figure.
#[derive(Clone, Copy)]
pub enum Print {
    /// Column tables over the figure's rows, one after another.
    Tables(&'static [Table]),
    /// A printer of the figure's own.
    With(fn(&[Row]) -> String),
}

/// One text table over a figure's rows: one line per row, labeled with its
/// `bench`.
#[derive(Clone, Copy)]
pub struct Table {
    /// Printed first, as written.
    pub title: &'static str,
    /// The head of the label column.
    pub label: &'static str,
    /// The columns, in groups separated by `|`. Where any group is named,
    /// a line of group names heads them.
    pub groups: &'static [Group],
    /// Length of the rules under the heads and under the rows.
    pub rule: usize,
    /// Lines under the rows' rule, each a statistic of every fractional
    /// ([`Fmt::Pct`], [`Fmt::Dec`]) column; it leaves the other columns
    /// blank and ends after the last fractional one.
    pub stats: &'static [Stat],
    /// Printed last: a legend, or a line worked out from the rows.
    pub note: fn(&[Row]) -> String,
}

/// The defaults a [`Table`] declaration fills in the rest from.
pub const TABLE: Table = Table {
    title: "",
    label: "benchmark",
    groups: &[],
    rule: 0,
    stats: &[],
    note: |_| String::new(),
};

/// A group of columns and its name (`""` for none), centered over them.
#[derive(Clone, Copy)]
pub struct Group(pub &'static str, pub &'static [Col]);

/// A column: its head, its width (cells are right-aligned), the row field
/// it shows and how. A field a row leaves out reads 0 (the `passes` rows
/// write only nonzero deltas).
#[derive(Clone, Copy)]
pub struct Col(pub &'static str, pub usize, pub &'static str, pub Fmt);

/// How a [`Col`] shows its field.
#[derive(Clone, Copy)]
pub enum Fmt {
    /// A fraction as a percentage, one decimal.
    Pct,
    /// A number with this many decimals.
    Dec(usize),
    /// The value as the report writes it.
    Plain,
    /// A flag as one of two words, for true and for false.
    Flag(&'static str, &'static str),
    /// The field as a percentage of another (taken as at least 1), one
    /// decimal and a `%`.
    PctOf(&'static str),
    /// The field and another as `a/b`, each in half the width.
    Over(&'static str),
}

/// A summary line's statistic.
#[derive(Clone, Copy)]
pub enum Stat {
    Mean,
    /// The middle value; the mean of the two middle values of an even count.
    Median,
}

impl Stat {
    fn name(self) -> &'static str {
        match self {
            Stat::Mean => "MEAN",
            Stat::Median => "MEDIAN",
        }
    }

    fn of(self, mut v: Vec<f64>) -> f64 {
        let n = v.len();
        match self {
            Stat::Mean => v.iter().fold(0.0, |a, b| a + b) / n as f64,
            Stat::Median => {
                v.sort_by(f64::total_cmp);
                if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                }
            }
        }
    }
}

/// Prints a figure's `rows` as `print` says.
pub fn print(print: &Print, rows: &[Row]) -> String {
    match print {
        Print::Tables(tables) => tables.iter().map(|t| table(t, rows)).collect(),
        Print::With(printer) => printer(rows),
    }
}

fn table(t: &Table, rows: &[Row]) -> String {
    let mut out = t.title.to_string();
    if t.groups.iter().any(|g| !g.0.is_empty()) {
        let _ = write!(out, "{:10}", "");
        for Group(name, cols) in t.groups {
            let w = cols.iter().map(|c| c.1 + 1).sum::<usize>() - 1;
            let _ = write!(out, " | {name:^w$}");
        }
        out.push('\n');
    }
    out += &line(t.label, t.groups, |c| Some(c.0.to_string()));
    let rule = format!("{}\n", "-".repeat(t.rule));
    out += &rule;
    for r in rows {
        out += &line(&r.bench, t.groups, |c| Some(cell(c, r)));
    }
    if !t.stats.is_empty() && !rows.is_empty() {
        out += &rule;
        for stat in t.stats {
            out += &line(stat.name(), t.groups, |c| {
                let column = rows.iter().map(|r| r.get(c.2).map_or(0.0, Value::num));
                frac(c.3, stat.of(column.collect()))
            });
        }
    }
    out + &(t.note)(rows)
}

/// `label`, then each group's cells after a `|`, up to the last column
/// `cell` fills; a column it leaves empty is blank.
fn line(label: &str, groups: &[Group], cell: impl Fn(&Col) -> Option<String>) -> String {
    let mut out = format!("{label:10}");
    let mut end = out.len();
    for Group(_, cols) in groups {
        out.push_str(" |");
        for c in *cols {
            let text = cell(c);
            let _ = write!(out, " {:>w$}", text.as_deref().unwrap_or(""), w = c.1);
            if text.is_some() {
                end = out.len();
            }
        }
    }
    out.truncate(end);
    out + "\n"
}

fn cell(&Col(_, w, field, fmt): &Col, r: &Row) -> String {
    let zero = Value::Int(0);
    let get = |f| r.get(f).unwrap_or(&zero);
    let v = get(field);
    match fmt {
        Fmt::Pct | Fmt::Dec(_) => frac(fmt, v.num()).unwrap_or_default(),
        Fmt::Plain => v.to_string(),
        Fmt::Flag(yes, no) => (if *v == Value::Bool(true) { yes } else { no }).to_string(),
        Fmt::PctOf(base) => format!("{:.1}%", 100.0 * v.num() / get(base).num().max(1.0)),
        Fmt::Over(total) => {
            format!("{:>h$}/{:>h$}", v.to_string(), get(total).to_string(), h = (w - 1) / 2)
        }
    }
}

/// A fractional column's text for `x`; `None` for the other formats.
fn frac(fmt: Fmt, x: f64) -> Option<String> {
    match fmt {
        Fmt::Pct => Some(format!("{:.1}", x * 100.0)),
        Fmt::Dec(places) => Some(format!("{x:.places$}")),
        _ => None,
    }
}

/// Renders the mutation-kill scorecard: kills per class and oracle, then
/// one line per mutant that escaped every oracle.
pub fn mutants(card: &Scorecard) -> String {
    let mut out = format!(
        "Mutation kill scorecard: {} classes, {} of {} mutants killed\n\n",
        card.classes.len(),
        card.killed,
        card.mutants
    );
    out.push_str(&format!(
        "{:<20} {:>5} {:>6} {:>8} {:>6} {:>7}\n",
        "class", "total", "verify", "checksum", "interp", "escaped"
    ));
    out.push_str(&"-".repeat(57));
    out.push('\n');
    for c in &card.classes {
        out.push_str(&format!(
            "{:<20} {:>5} {:>6} {:>8} {:>6} {:>7}\n",
            c.class, c.total, c.verify, c.checksum, c.interp, c.escaped
        ));
    }
    for escape in &card.escapes {
        out.push_str(&format!("ESCAPED {escape}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{field, figure, Fields};

    fn rows(pairs: Vec<(&str, Fields)>) -> Vec<Row> {
        pairs.into_iter().map(|(bench, fields)| Row { bench: bench.into(), fields }).collect()
    }

    fn print_fig(fig: &str, rows: &[Row]) -> String {
        print(&figure(fig).expect("a figure").print, rows)
    }

    #[test]
    fn tables_render_and_average() {
        let fig5 = |v: [f64; 4]| {
            let names = ["each_simple", "each_full", "all_simple", "all_full"];
            names.into_iter().zip(v).map(|(k, x)| field(k, x)).collect()
        };
        let (a, b) = (fig5([0.06, 0.11, 0.05, 0.10]), fig5([0.08, 0.13, 0.07, 0.12]));
        let t = print_fig("fig5", &rows(vec![("a", a), ("b", b)]));
        assert!(t.contains("MEAN"));
        assert!(t.contains("7.0"), "{t}"); // mean of 6% and 8%
    }

    fn pgo_row(sched: [u64; 2], pgo: [u64; 2], imp: [f64; 2]) -> Fields {
        let mut out = Fields::new();
        for (mi, m) in ["each", "all"].into_iter().enumerate() {
            out.push(field(format!("sched_cycles_{m}"), sched[mi]));
            out.push(field(format!("pgo_cycles_{m}"), pgo[mi]));
            out.push(field(format!("imp_{m}"), imp[mi]));
        }
        out
    }

    #[test]
    fn pgo_table_counts_wins() {
        let t = print_fig(
            "pgo",
            &rows(vec![
                ("a", pgo_row([1000, 2000], [900, 2000], [11.11, 0.0])),
                ("b", pgo_row([500, 600], [510, 580], [-1.96, 3.45])),
            ]),
        );
        assert!(t.contains("each 1/2 (1 faster, 0 tied)"), "{t}");
        assert!(t.contains("all 2/2 (1 faster, 1 tied)"), "{t}");
        assert!(t.contains("MEDIAN"), "{t}");
    }

    #[test]
    fn mutants_table_lists_escapes() {
        use crate::mutate::{scorecard, MutantRecord};
        let record = |class, site, checksum| MutantRecord {
            class,
            seed: 3,
            site,
            verify: false,
            checksum,
            interp: checksum,
            detail: format!("site {site}"),
        };
        let rows: Vec<Row> =
            [record("img-a", 0, true), record("img-b", 0, true), record("img-b", 1, false)]
                .iter()
                .map(MutantRecord::row)
                .collect();
        let t = mutants(&scorecard(&rows));
        assert_eq!(t, print_fig("mutants", &rows));
        assert!(t.starts_with("Mutation kill scorecard: 2 classes, 2 of 3 mutants killed"), "{t}");
        assert!(t.contains("\nimg-b                    2      0        1      1       1\n"), "{t}");
        assert!(t.ends_with("\nESCAPED img-b seed 3 site 1: site 1\n"), "{t}");
    }

    fn fig6_row(v: f64) -> Fields {
        let keys = ["imp_each_simple", "imp_each_full", "imp_each_sched"];
        let all = ["imp_all_simple", "imp_all_full", "imp_all_sched"];
        keys.into_iter().chain(all).map(|k| field(k, v)).collect()
    }

    #[test]
    fn fig6_median_is_robust() {
        let t = print_fig(
            "fig6",
            &rows(vec![("a", fig6_row(1.0)), ("b", fig6_row(2.0)), ("c", fig6_row(50.0))]),
        );
        assert!(t.contains("MEDIAN"));
        assert!(t.lines().last().unwrap().contains("2.00"), "{t}");
    }

    #[test]
    fn the_median_of_an_even_count_is_the_mean_of_its_middle_values() {
        let t = print_fig("fig6", &rows(vec![("a", fig6_row(0.75)), ("b", fig6_row(0.35))]));
        let mean = t.lines().find(|l| l.starts_with("MEAN ")).unwrap();
        let median = t.lines().find(|l| l.starts_with("MEDIAN")).unwrap();
        assert_eq!(mean[10..], median[10..], "{t}");
        assert!(median.ends_with("|   0.55   0.55   0.55 |   0.55   0.55   0.55"), "{t}");
        let pgo = print_fig(
            "pgo",
            &rows(vec![
                ("a", pgo_row([1, 1], [1, 1], [1.0, 4.0])),
                ("b", pgo_row([1, 1], [1, 1], [2.0, 8.0])),
                ("c", pgo_row([1, 1], [1, 1], [9.0, 5.0])),
                ("d", pgo_row([1, 1], [1, 1], [3.0, 1.0])),
            ]),
        );
        let median = pgo.lines().find(|l| l.starts_with("MEDIAN")).unwrap();
        assert!(median.ends_with("2.50 |                         4.50"), "{pgo}");
    }

    #[test]
    fn a_summary_line_stops_after_its_last_fractional_column() {
        let row = vec![
            field("requests", 12usize),
            field("threads", 4usize),
            field("modules", 9usize),
            field("link_hits", 8u64),
            field("link_misses", 4u64),
            field("hit_rate", 0.9375),
            field("byte_identical", false),
        ];
        let t = print_fig("fleet", &rows(vec![("li", row)]));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[2], "benchmark  |  req thr mods |  l.hit l.miss |   hit% | ident");
        assert_eq!(lines[4], "li         |   12   4    9 |      8      4 |   93.8 |    NO");
        assert_eq!(lines[6], "MEAN       |               |               |   93.8");
        assert_eq!(lines.len(), 7, "{t}");
    }

    #[test]
    fn ratio_and_pair_columns() {
        let gat = vec![
            field("each_before", 40usize),
            field("each_after", 5usize),
            field("all_before", 0usize),
            field("all_after", 0usize),
        ];
        let t = print_fig("gat", &rows(vec![("li", gat)]));
        let row = "li         |      40       5  12.5% |       0       0   0.0%";
        assert!(t.ends_with(&format!("\n{row}\n")), "{t}");
        let live = field("archive_members_live", 16usize);
        let scale = vec![live, field("archive_members_total", 24u64)];
        let t = print_fig("scale", &rows(vec![("scale16", scale)]));
        let row = t.lines().last().unwrap();
        assert!(row.starts_with("scale16    |      0       0 |"), "{t}");
        assert!(row.ends_with("| 16/24 |    NO"), "{t}");
    }
}

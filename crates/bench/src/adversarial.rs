//! Adversarial scenario pack: a structured corpus of inputs built to sit on
//! the pipeline's limits, run by `omfuzz --adversarial` and `scripts/ci.sh`.
//!
//! Two families:
//!
//! * **Source cases** are hand-shaped mini-C programs (huge displacement
//!   spans that overflow GP-relative reach, pathological common-symbol
//!   declaration orders, section sizes straddling the addressing window).
//!   They run `omfuzz`'s differential oracle, [`check_sources`]: every
//!   `(compile mode × OM level)` variant plus a profile-guided relink per
//!   mode links with verification on and must reproduce the mini-C
//!   interpreter's checksum on both simulator engines. A skipped reference
//!   (step limit) fails the case.
//! * **Object cases** are raw modules past (or exactly on) a hard limit —
//!   near-`i32::MAX` sections, `u64`-wrapping size sums, single-module GAT
//!   overflow, an address load beyond the LDAH/LDA pair's reach, an addend
//!   at the end of `i64`. The oracle is agreement with the standard linker:
//!   where it must return [`LinkError::Range`], OM at every level with the
//!   verifier on fails with the same error, and where it links, so does
//!   OM; nothing panics — a long-running `omd` cannot afford to abort on
//!   one bad request.
//!
//! Unlike the random stream in [`crate::fuzz`], every case here is
//! deterministic by construction, so a regression names the scenario that
//! broke rather than a seed to re-derive.

use crate::fuzz::{check_sources, Outcome};
use om_alpha::{Inst, Reg};
use om_core::{optimize_and_link_with, OmError, OmLevel, OmOptions};
use om_linker::{link_modules, LayoutOpts, LinkError, GAT_GROUP_CAPACITY};
use om_objfile::{Module, ModuleBuilder, RelocKind, SecId, Symbol, Visibility};
use om_workloads::pad_gat;
use std::fmt::Write as _;

/// What a case feeds the pipeline and what it expects back.
pub enum CaseKind {
    /// Mini-C sources through [`check_sources`].
    Source(Vec<(String, String)>),
    /// Raw modules the standard linker and OM must reject with
    /// [`LinkError::Range`].
    RangeObjects(Vec<Module>),
    /// Raw modules on or past a limit that both must still link.
    BoundaryObjects(Vec<Module>),
}

/// One corpus entry.
pub struct Case {
    pub name: &'static str,
    /// What limit the case leans on, for the report line.
    pub detail: &'static str,
    pub kind: CaseKind,
}

/// The structural skeleton the object cases corrupt: `__start`, which
/// loads the address of the global `{name}_g` plus `addend` from the GAT,
/// reads through it and returns (well-formed code, so OM translates it).
fn seed_module(name: &str, addend: i64) -> Module {
    let mut b = ModuleBuilder::new(name);
    let off = b.append_data(SecId::Data, &[0; 16]);
    let g = b.add_symbol(Symbol::data(format!("{name}_g"), SecId::Data, off, 8));
    let lita = b.lita_slot(g, addend);
    let start = b.here();
    let load = b.emit_reloc(Inst::ldq(Reg::T0, 0, Reg::GP), RelocKind::Literal { lita });
    b.emit_reloc(Inst::ldq(Reg::V0, 0, Reg::T0), RelocKind::LituseBase { load_offset: load });
    b.emit(Inst::ret());
    b.define_proc("__start", start, 0, Visibility::Exported);
    b.finish().expect("the seed module is well-formed")
}

/// Source case 1: globals whose combined span dwarfs GP-relative reach.
/// Two 1 MiB arrays push the scalars declared around them far past a
/// 16-bit displacement, so every access pattern (short GP window, literal
/// slot, re-derived base) must agree with the interpreter.
fn huge_span_sources() -> Vec<(String, String)> {
    let module = "\
int span_lo;
int span_big0[262144];
int span_big1[262144];
int span_hi;

int adv_span_entry(int i, int t) {
  span_lo = span_lo + i * 3 + 1;
  span_big0[(i * 7) & 262143] = t ^ span_lo;
  span_big1[(t + i) & 262143] = span_big0[(i * 7) & 262143] + i;
  span_hi = span_hi ^ span_big1[(t + i) & 262143];
  return span_lo + span_hi;
}
";
    vec![
        ("adv_span".to_string(), module.to_string()),
        ("adv_span_main".to_string(), driver(&["adv_span_entry"], 6)),
    ]
}

/// Source case 2: common symbols declared in the worst order for the
/// sorter — sizes alternating 4 KiB / 8 B and equal-size runs in reverse
/// name order, mirrored across two modules. Both the sorted and unsorted
/// layouts must produce the same checksum.
fn common_order_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut entries = Vec::new();
    for (mi, tag) in ["a", "b"].iter().enumerate() {
        let mut src = String::new();
        for k in (0..12usize).rev() {
            // Reverse declaration order; big commons interleaved with
            // single-word ones so naive first-seen placement scatters the
            // small data the sorter is supposed to pack.
            if (k + mi) % 2 == 0 {
                let _ = writeln!(src, "int cm{tag}_big{k}[1024];");
                let _ = writeln!(src, "int cm{tag}_tiny{k};");
            } else {
                let _ = writeln!(src, "int cm{tag}_tiny{k};");
                let _ = writeln!(src, "int cm{tag}_big{k}[1024];");
            }
        }
        let entry = format!("adv_cm_{tag}");
        let _ = writeln!(src, "\nint {entry}(int i, int t) {{");
        for k in 0..12usize {
            let _ = writeln!(src, "  cm{tag}_big{k}[(i + {k}) & 1023] = t + {k};");
            let _ = writeln!(src, "  cm{tag}_tiny{k} = cm{tag}_tiny{k} + cm{tag}_big{k}[(i + {k}) & 1023];");
            let _ = writeln!(src, "  t = t ^ cm{tag}_tiny{k};");
        }
        src.push_str("  return t;\n}\n");
        out.push((format!("adv_cm_{tag}_mod"), src));
        entries.push(entry);
    }
    let refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
    out.push(("adv_cm_main".to_string(), driver(&refs, 5)));
    out
}

/// Source case 3: a block of small data sized right at the 16-bit GP
/// window, so some scalars land just inside short reach and the rest just
/// outside — the boundary the displacement re-writer has to get exact.
fn near_window_sources() -> Vec<(String, String)> {
    let mut src = String::new();
    src.push_str("int win_front;\n");
    // 8192 ints = 64 KiB: alone it exceeds the ±32 KiB short window.
    src.push_str("int win_pad[8192];\n");
    for g in 0..8 {
        let _ = writeln!(src, "int win_back{g};");
    }
    src.push_str("\nint adv_win_entry(int i, int t) {\n");
    src.push_str("  win_front = win_front + i + 1;\n");
    src.push_str("  win_pad[(t * 5 + i) & 8191] = win_front ^ t;\n");
    for g in 0..8 {
        let _ = writeln!(src, "  win_back{g} = win_back{g} + win_pad[(i + {g}) & 8191] + {g};");
        let _ = writeln!(src, "  t = t ^ win_back{g};");
    }
    src.push_str("  return t + win_front;\n}\n");
    vec![
        ("adv_win".to_string(), src),
        ("adv_win_main".to_string(), driver(&["adv_win_entry"], 6)),
    ]
}

/// A checksumming `main` that drives each entry `iters` times.
fn driver(entries: &[&str], iters: u64) -> String {
    let mut src = String::new();
    src.push_str("extern int cksum_reset();\nextern int cksum_add(int);\nextern int cksum_get();\n");
    for e in entries {
        let _ = writeln!(src, "extern int {e}(int, int);");
    }
    src.push_str("\nint main() {\n  cksum_reset();\n  int t = 1;\n  int i = 0;\n");
    let _ = writeln!(src, "  for (i = 0; i < {iters}; i = i + 1) {{");
    for (k, e) in entries.iter().enumerate() {
        let _ = writeln!(src, "    t = t + {e}(i + {k}, t & 0xFFFF);");
    }
    src.push_str("    cksum_add(t);\n  }\n  return cksum_get() ^ (t & 0xFFFF);\n}\n");
    src
}

/// The full corpus, in a stable order.
pub fn corpus() -> Vec<Case> {
    let mut cases = vec![
        Case {
            name: "huge-displacement-span",
            detail: "two 1 MiB arrays push scalars past GP-relative reach",
            kind: CaseKind::Source(huge_span_sources()),
        },
        Case {
            name: "pathological-common-order",
            detail: "alternating 4 KiB/8 B commons declared in reverse name order",
            kind: CaseKind::Source(common_order_sources()),
        },
        Case {
            name: "near-window-small-data",
            detail: "64 KiB block straddles the 16-bit GP displacement window",
            kind: CaseKind::Source(near_window_sources()),
        },
    ];

    let mut near_max = seed_module("advo_nearmax", 0);
    near_max.bss_size = i32::MAX as u64;
    cases.push(Case {
        name: "near-i32-max-section",
        detail: "a .bss alone filling the 31-bit data span must be a typed Range error",
        kind: CaseKind::RangeObjects(vec![near_max]),
    });

    let mut wrap_a = seed_module("advo_wrap_a", 0);
    wrap_a.bss_size = u64::MAX - 64;
    let wrap_b = Module { data: vec![0; 16], bss_size: 128, ..Module::new("advo_wrap_b") };
    cases.push(Case {
        name: "u64-wrapping-sections",
        detail: "section sizes whose sum wraps u64 must not lay out overlapping",
        kind: CaseKind::RangeObjects(vec![wrap_a, wrap_b]),
    });

    let mut gat_over = seed_module("advo_gatover", 0);
    pad_gat(&mut gat_over, GAT_GROUP_CAPACITY + 1, "advo");
    cases.push(Case {
        name: "single-module-gat-overflow",
        detail: "one module with more unique slots than a GP group can never split",
        kind: CaseKind::RangeObjects(vec![gat_over]),
    });

    let mut gat_edge = seed_module("advo_gatedge", 0);
    // The seed module already owns one slot; this fills the group exactly.
    pad_gat(&mut gat_edge, GAT_GROUP_CAPACITY - 1, "adve");
    cases.push(Case {
        name: "exact-gat-capacity-boundary",
        detail: "exactly GAT_GROUP_CAPACITY unique slots still fills one legal group",
        kind: CaseKind::BoundaryObjects(vec![gat_edge]),
    });

    let wide = [
        ("base-use-beyond-pair-reach", "a base use of `g + 2^33`, past the pair", 1 << 33),
        ("i64-max-literal-addend", "a GAT slot holding `g + i64::MAX` wraps", i64::MAX),
    ];
    for (name, detail, addend) in wide {
        let objects = vec![seed_module(&format!("advo_{addend}"), addend)];
        cases.push(Case { name, detail, kind: CaseKind::BoundaryObjects(objects) });
    }

    cases
}

/// The outcome of `link` when it failed with [`LinkError::Range`] if
/// `range`, and linked otherwise; `Err` names any other.
fn expect_outcome(who: &str, link: Result<(), OmError>, range: bool) -> Result<String, String> {
    match link {
        Err(OmError::Link(e @ LinkError::Range { .. })) if range => Ok(e.to_string()),
        Ok(()) if !range => Ok("a clean link".to_string()),
        Ok(()) => Err(format!("{who} linked cleanly where a Range error was required")),
        Err(e) => Err(format!("{who}: {e}")),
    }
}

/// Runs one case against its oracle. `Ok` carries a one-line summary of
/// what was checked; `Err` carries the first divergence.
pub fn run_case(case: &Case) -> Result<String, String> {
    match &case.kind {
        CaseKind::Source(sources) => match check_sources(sources) {
            Outcome::Pass => Ok("every build variant matches the interpreter".to_string()),
            Outcome::Skip(why) => Err(format!("no interpreter reference: {why}")),
            Outcome::Fail { mismatches, .. } => Err(mismatches
                .iter()
                .map(|m| format!("{}: {}", m.variant, m.detail))
                .collect::<Vec<_>>()
                .join("; ")),
        },
        CaseKind::RangeObjects(objects) | CaseKind::BoundaryObjects(objects) => {
            let range = matches!(case.kind, CaseKind::RangeObjects(_));
            let mld = link_modules(objects, &[], &LayoutOpts::default());
            let outcome = expect_outcome("mld", mld.map(drop).map_err(OmError::Link), range)?;
            let options = OmOptions { verify: true, ..OmOptions::default() };
            for level in OmLevel::ALL {
                let om = optimize_and_link_with(objects, &[], level, &options).map(drop);
                expect_outcome(&format!("om {}", level.name()), om, range)?;
            }
            Ok(format!("{outcome}, from mld and from om at every level"))
        }
    }
}

/// Runs the whole corpus, reporting each case through `report`. A panic in
/// a case counts as a failure (the oracle is "typed error, never panic").
/// Returns the failure count.
pub fn run_all(mut report: impl FnMut(&str, &str, &Result<String, String>)) -> usize {
    let mut failures = 0;
    for case in corpus() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(&case)))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(format!("PANICKED: {msg}"))
            });
        if outcome.is_err() {
            failures += 1;
        }
        report(case.name, case.detail, &outcome);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_stable_and_named() {
        let c = corpus();
        assert!(c.len() >= 7, "corpus shrank to {}", c.len());
        let names: Vec<&str> = c.iter().map(|k| k.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate case names");
    }

    #[test]
    fn every_case_passes_its_oracle() {
        for case in corpus() {
            run_case(&case).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        }
    }
}

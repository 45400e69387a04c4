//! Differential fuzzing of the whole OM pipeline.
//!
//! Each seed generates a random mini-C program as a *shrinkable structure*
//! (modules → procedures → statements), renders it to sources, and checks
//! that all `(compile mode × OM level)` build variants — each linked with
//! [`OmOptions::verify`] — reproduce the mini-C interpreter's checksum
//! bit-for-bit. Each mode additionally checks a ninth, profile-guided
//! variant: the scheduled image is profiled, relinked with the profile
//! (verification still on), and re-diffed. The interpreter never touches
//! the object-code pipeline, so any disagreement pins a bug in codegen, the
//! linker, an OM transformation, profile collection, or the simulator.
//!
//! Every simulated variant additionally runs through *both* simulator
//! engines — the per-instruction reference interpreter with the full timing
//! model and the block-cache engine with fused timing — and diffs their
//! results, retired-instruction counts, program output, cycle-exact timing
//! statistics, and (on the profile-guided variant) profile JSON. An engine
//! divergence is a shrinkable failure like any other mismatch.
//!
//! On failure [`shrink`] greedily drops trailing modules, then unreferenced
//! procedures, then individual statements, re-running the oracle at each
//! step, and [`write_repro`] saves a minimized reproduction file.
//!
//! The oracle, [`check_sources`], takes rendered sources, so the
//! adversarial corpus's hand-written source cases ([`crate::adversarial`])
//! run through it as well. It builds through
//! [`om_workloads::build::build_sources`] and takes its reference from
//! [`om_workloads::build::interp_sources`].
//!
//! [`OmOptions::verify`]: om_core::pipeline::OmOptions

use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_linker::Image;
use om_prng::StdRng;
use om_sim::{run_profiled, run_profiled_fast, run_timed, run_timed_fast, RunResult};
use om_workloads::build::{build_sources, interp_sources};
use om_workloads::{BuiltBenchmark, CompileMode};
use std::fmt::Write as _;

/// Interpreter step budget per check (generated programs are tiny).
pub const INTERP_STEPS: u64 = 40_000_000;
/// Simulator instruction budget per variant.
pub const SIM_STEPS: u64 = 60_000_000;

/// Library routines the generator may call: `(name, arity)` (all int).
const LIB_FNS: &[(&str, usize)] = &[
    ("mix64", 1),
    ("hash2", 2),
    ("abs_i", 1),
    ("min_i", 2),
    ("max_i", 2),
    ("gcd_i", 2),
    ("isqrt", 1),
    ("ipow", 2),
    ("cksum_add", 1),
];

/// One generated statement plus the user procedures it calls (so the
/// shrinker knows which procedures are still referenced).
#[derive(Debug, Clone)]
pub struct FuzzStmt {
    pub text: String,
    pub calls: Vec<String>,
}

/// A generated procedure. The last procedure of each module is its exported
/// entry, called from `main`; entries are never dropped while their module
/// survives.
#[derive(Debug, Clone)]
pub struct FuzzProc {
    pub name: String,
    pub is_static: bool,
    pub is_float: bool,
    pub stmts: Vec<FuzzStmt>,
}

/// A generated module: globals plus procedures.
#[derive(Debug, Clone)]
pub struct FuzzModule {
    /// Module index in the original program (stable across shrinking, so
    /// names never change).
    pub index: usize,
    pub scalars: usize,
    /// Array length exponents: array `a` has `1 << arrays[a]` elements.
    pub arrays: Vec<u32>,
    pub procs: Vec<FuzzProc>,
}

/// A whole generated program in shrinkable form.
#[derive(Debug, Clone)]
pub struct FuzzProgram {
    pub seed: u64,
    pub modules: Vec<FuzzModule>,
    pub iters: u64,
    /// Dispatch through a procedure variable in `main` (exercises
    /// address-taken procedures, RefQuad data relocs, and indirect calls).
    pub use_fnptr: bool,
}

/// A program's size bounds: at most this many modules, procedures per
/// module and statements per procedure.
const MAX_MODULES: usize = 4;
const MAX_PROCS: usize = 4;
const MAX_STMTS: usize = 8;

struct ProcInfo {
    name: String,
    module: usize,
    is_static: bool,
    is_float: bool,
}

/// Generates the program for `seed`.
pub fn generate(seed: u64) -> FuzzProgram {
    // Salted so fuzz streams are distinct from the workload generator's.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF022_5A17);
    let n_modules = rng.gen_range(1..MAX_MODULES + 1);
    let mut roster: Vec<ProcInfo> = Vec::new();
    let mut modules = Vec::new();
    for mi in 0..n_modules {
        let n_procs = rng.gen_range(2..MAX_PROCS + 1);
        let scalars = rng.gen_range(1..4);
        let arrays: Vec<u32> = (0..rng.gen_range(1..3)).map(|_| rng.gen_range(3..7)).collect();
        let mut procs = Vec::new();
        for pj in 0..n_procs {
            let entry = pj + 1 == n_procs;
            let is_float = !entry && rng.gen_bool(0.2);
            let is_static = !entry && !is_float && rng.gen_bool(0.3);
            let name = format!("fz{mi}_p{pj}");
            let n_stmts = rng.gen_range(1..MAX_STMTS + 1);
            let mut stmts = Vec::new();
            for s in 0..n_stmts {
                stmts.push(gen_stmt(&mut rng, mi, s, is_float, scalars, &arrays, &roster));
            }
            roster.push(ProcInfo {
                name: name.clone(),
                module: mi,
                is_static,
                is_float,
            });
            procs.push(FuzzProc { name, is_static, is_float, stmts });
        }
        modules.push(FuzzModule { index: mi, scalars, arrays, procs });
    }
    FuzzProgram {
        seed,
        modules,
        iters: rng.gen_range(2..7),
        use_fnptr: rng.gen_bool(0.5),
    }
}

fn int_term(rng: &mut StdRng) -> String {
    let k = rng.gen_range(1..100);
    match rng.gen_range(0..6) {
        0 => format!("(a + {k})"),
        1 => format!("(b ^ {k})"),
        2 => format!("(acc >> {})", rng.gen_range(1..8)),
        3 => "(acc & 0xFFFF)".to_string(),
        4 => format!("(a * {k})"),
        _ => "(b + acc)".to_string(),
    }
}

fn gen_stmt(
    rng: &mut StdRng,
    m: usize,
    s: usize,
    is_float: bool,
    scalars: usize,
    arrays: &[u32],
    roster: &[ProcInfo],
) -> FuzzStmt {
    if is_float && rng.gen_bool(0.4) {
        let c = rng.gen_range(1..64) as f64 / 16.0;
        return FuzzStmt {
            text: format!("  facc = facc * 0.5 + float(acc & 255) * {c:.4};\n"),
            calls: Vec::new(),
        };
    }
    let choice = rng.gen_range(0..12);
    match choice {
        0 => {
            let g = rng.gen_range(0..scalars);
            let t = int_term(rng);
            FuzzStmt {
                text: format!("  fz{m}_g{g} = fz{m}_g{g} + {t};\n  acc = acc ^ fz{m}_g{g};\n"),
                calls: Vec::new(),
            }
        }
        1 | 2 => {
            let a = rng.gen_range(0..arrays.len());
            let mask = (1u64 << arrays[a]) - 1;
            let idx = int_term(rng);
            let t = int_term(rng);
            FuzzStmt {
                text: format!("  fz{m}_arr{a}[{idx} & {mask}] = acc + {t};\n  acc = acc + fz{m}_arr{a}[(acc >> 1) & {mask}];\n"),
                calls: Vec::new(),
            }
        }
        3 => {
            let (name, arity) = LIB_FNS[rng.gen_range(0..LIB_FNS.len())];
            let args: Vec<String> = (0..arity).map(|_| int_term(rng)).collect();
            FuzzStmt {
                text: format!("  acc = acc + {name}({});\n", args.join(", ")),
                calls: Vec::new(), // library names resolve via the archive
            }
        }
        4 => {
            let k = rng.gen_range(3..17);
            let t = int_term(rng);
            let op = if rng.gen_bool(0.5) { "/" } else { "%" };
            FuzzStmt {
                text: format!("  acc = acc + ({t} {op} {k});\n"),
                calls: Vec::new(),
            }
        }
        5 => {
            let k = rng.gen_range(0..4096);
            let t1 = int_term(rng);
            let t2 = int_term(rng);
            FuzzStmt {
                text: format!(
                    "  if ((acc & 4095) > {k}) {{ acc = acc + {t1}; }} else {{ acc = acc ^ {t2}; }}\n"
                ),
                calls: Vec::new(),
            }
        }
        6 => {
            let a = rng.gen_range(0..arrays.len());
            let mask = (1u64 << arrays[a]) - 1;
            let n = rng.gen_range(2..5);
            FuzzStmt {
                text: format!(
                    "  int lt{s} = 0;\n  for (lt{s} = 0; lt{s} < {n}; lt{s} = lt{s} + 1) {{ acc = acc + fz{m}_arr{a}[(lt{s} + acc) & {mask}] * (lt{s} + 3); }}\n"
                ),
                calls: Vec::new(),
            }
        }
        7 | 8 => {
            // Call an earlier user procedure (same module, or an exported
            // one from an earlier module).
            let candidates: Vec<&ProcInfo> = roster
                .iter()
                .filter(|p| p.module == m || (!p.is_static && p.module < m))
                .collect();
            if candidates.is_empty() {
                let k = rng.gen_range(3..50);
                return FuzzStmt {
                    text: format!("  acc = acc * {k} + (a ^ b);\n"),
                    calls: Vec::new(),
                };
            }
            let p = candidates[rng.gen_range(0..candidates.len())];
            let x = int_term(rng);
            let y = int_term(rng);
            let text = if p.is_float {
                format!("  acc = acc ^ int({}(float({x}) * 0.125, {y}));\n", p.name)
            } else {
                format!("  acc = acc ^ {}({x}, {y});\n", p.name)
            };
            FuzzStmt { text, calls: vec![p.name.clone()] }
        }
        _ => {
            let k1 = rng.gen_range(3..50);
            let sh = rng.gen_range(1..12);
            FuzzStmt {
                text: format!("  acc = (acc * {k1} + a) ^ (b >> {sh}) ^ (acc << 1);\n"),
                calls: Vec::new(),
            }
        }
    }
}

/// Renders the program to `(module name, source)` pairs, `main` last.
pub fn render(prog: &FuzzProgram) -> Vec<(String, String)> {
    // Signature map over every surviving procedure.
    let sig = |p: &FuzzProc| -> String {
        if p.is_float {
            format!("extern float {}(float, int);", p.name)
        } else {
            format!("extern int {}(int, int);", p.name)
        }
    };
    let mut homes: std::collections::HashMap<&str, (usize, String)> = Default::default();
    for md in &prog.modules {
        for p in &md.procs {
            homes.insert(&p.name, (md.index, sig(p)));
        }
    }

    let mut out = Vec::new();
    for md in &prog.modules {
        let mut externs = std::collections::BTreeSet::new();
        let mut body = String::new();
        for g in 0..md.scalars {
            let _ = writeln!(body, "int fz{}_g{g} = {};", md.index, (g * 11 + md.index) % 50);
        }
        for (a, pow) in md.arrays.iter().enumerate() {
            let _ = writeln!(body, "int fz{}_arr{a}[{}];", md.index, 1u64 << pow);
        }
        body.push('\n');
        for p in &md.procs {
            let header = match (p.is_float, p.is_static) {
                (false, false) => format!("int {}(int a, int b) {{\n", p.name),
                (false, true) => format!("static int {}(int a, int b) {{\n", p.name),
                (true, false) => format!("float {}(float fa, int b) {{\n", p.name),
                (true, true) => format!("static float {}(float fa, int b) {{\n", p.name),
            };
            body.push_str(&header);
            if p.is_float {
                body.push_str("  float facc = fa + float(b) * 0.25;\n  int acc = b + 1;\n  int a = b * 7;\n");
            } else {
                body.push_str("  int acc = a * 3 + b;\n");
            }
            for st in &p.stmts {
                body.push_str(&st.text);
                for callee in &st.calls {
                    let (home, decl) = &homes[callee.as_str()];
                    if *home != md.index {
                        externs.insert(decl.clone());
                    }
                }
            }
            if p.is_float {
                body.push_str("  return facc + float(acc & 65535) * 0.001;\n}\n\n");
            } else {
                body.push_str("  return acc;\n}\n\n");
            }
            // Library calls need extern declarations in this module.
            for st in &p.stmts {
                for (name, arity) in LIB_FNS {
                    if st.text.contains(&format!("{name}(")) {
                        let params = vec!["int"; *arity].join(", ");
                        externs.insert(format!("extern int {name}({params});"));
                    }
                }
            }
        }
        let mut head = String::new();
        for d in &externs {
            let _ = writeln!(head, "{d}");
        }
        out.push((format!("fz_{:02}", md.index), format!("{head}\n{body}")));
    }

    // `main`: drive every module's entry procedure, optionally through a
    // procedure variable, and checksum the accumulator each iteration.
    let mut decls = std::collections::BTreeSet::new();
    decls.insert("extern int cksum_reset();".to_string());
    decls.insert("extern int cksum_add(int);".to_string());
    decls.insert("extern int cksum_get();".to_string());
    let mut main = String::new();
    let entries: Vec<&FuzzProc> =
        prog.modules.iter().map(|m| m.procs.last().expect("entry proc")).collect();
    for e in &entries {
        decls.insert(sig(e));
    }
    let mut fnptr_head = String::new();
    if prog.use_fnptr {
        let t = entries[0].name.clone();
        let _ = writeln!(fnptr_head, "fnptr fzhp = &{t};");
    }
    main.push_str("int main() {\n  cksum_reset();\n  int t = 1;\n  int i = 0;\n");
    let _ = writeln!(main, "  for (i = 0; i < {}; i = i + 1) {{", prog.iters);
    for (k, e) in entries.iter().enumerate() {
        let _ = writeln!(main, "    t = t + {}(i + {k}, t & 0xFFFF);", e.name);
    }
    if prog.use_fnptr {
        let a = entries[entries.len() / 2].name.clone();
        let b = entries[0].name.clone();
        let _ = writeln!(
            main,
            "    if ((i & 1) == 0) {{ fzhp = &{a}; }} else {{ fzhp = &{b}; }}"
        );
        main.push_str("    t = t ^ fzhp(i, t & 255);\n");
    }
    main.push_str("    cksum_add(t);\n  }\n  return cksum_get() ^ (t & 0xFFFF);\n}\n");
    let mut head = String::new();
    for d in &decls {
        let _ = writeln!(head, "{d}");
    }
    out.push(("fz_main".to_string(), format!("{head}\n{fnptr_head}\n{main}")));
    out
}

/// One variant's disagreement with the reference.
#[derive(Debug, Clone)]
pub struct Mismatch {
    pub variant: String,
    pub detail: String,
}

/// Outcome of checking one program against all 9 variants.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// All variants linked, verified, and reproduced the reference checksum.
    Pass,
    /// The reference interpreter could not produce an oracle (e.g. step
    /// limit); nothing was compared.
    Skip(String),
    /// At least one variant disagreed (checksum, verifier, link, or crash).
    Fail { reference: Option<i64>, mismatches: Vec<Mismatch> },
}

impl Outcome {
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail { .. })
    }
}

/// Simulates `image` on both engines and diffs everything observable.
/// Returns the agreed run result, or `None` after recording a mismatch.
fn sim_both(
    image: &Image,
    variant: &str,
    mismatches: &mut Vec<Mismatch>,
) -> Option<RunResult> {
    let reference = run_timed(image, SIM_STEPS);
    let fast = run_timed_fast(image, SIM_STEPS);
    match (reference, fast) {
        (Ok((rr, rt)), Ok((fr, ft))) => {
            if rr != fr || rt != ft {
                mismatches.push(Mismatch {
                    variant: format!("{variant} (engines)"),
                    detail: format!(
                        "block engine diverges from reference: \
                         result {} vs {}, insts {} vs {}, cycles {} vs {}, \
                         output match {}, timing match {}",
                        rr.result,
                        fr.result,
                        rr.insts,
                        fr.insts,
                        rt.cycles,
                        ft.cycles,
                        rr.output == fr.output,
                        rt == ft,
                    ),
                });
                return None;
            }
            Some(rr)
        }
        (Err(re), Err(fe)) => {
            let (re, fe) = (re.to_string(), fe.to_string());
            if re != fe {
                mismatches.push(Mismatch {
                    variant: format!("{variant} (engines)"),
                    detail: format!("fault divergence: reference '{re}' vs block '{fe}'"),
                });
            } else {
                mismatches.push(Mismatch {
                    variant: variant.to_string(),
                    detail: format!("simulator: {re}"),
                });
            }
            None
        }
        (Ok(_), Err(e)) => {
            mismatches.push(Mismatch {
                variant: format!("{variant} (engines)"),
                detail: format!("block engine faulted where reference succeeded: {e}"),
            });
            None
        }
        (Err(e), Ok(_)) => {
            mismatches.push(Mismatch {
                variant: format!("{variant} (engines)"),
                detail: format!("reference faulted where block engine succeeded: {e}"),
            });
            None
        }
    }
}

/// Runs the full differential oracle on `prog`.
pub fn check(prog: &FuzzProgram) -> Outcome {
    check_sources(&render(prog))
}

/// The differential oracle over mini-C user sources: the interpreter's
/// checksum (stdlib included) is the reference, and every `(compile mode ×
/// OM level)` build plus a profile-guided relink per mode must link with
/// verification on and reproduce it on both simulator engines.
pub fn check_sources(sources: &[(String, String)]) -> Outcome {
    let reference = match interp_sources(sources, INTERP_STEPS) {
        Ok(v) => v,
        Err(e) if e.contains("step limit") => return Outcome::Skip(e),
        Err(e) => {
            // The interpreter rejects the program outright: a generator (or
            // front-end) bug, reported as a failure of every variant.
            return Outcome::Fail {
                reference: None,
                mismatches: vec![Mismatch { variant: "interp".into(), detail: e }],
            };
        }
    };

    let opts = OmOptions { verify: true, ..OmOptions::default() };
    let mut mismatches = Vec::new();
    for mode in CompileMode::ALL {
        let built = match build_sources("fz", sources, mode) {
            Ok(b) => b,
            Err(e) => {
                mismatches.push(Mismatch {
                    variant: mode.name().to_string(),
                    detail: format!("build error: {e}"),
                });
                continue;
            }
        };
        let variant = |what: &str| format!("{} × {what}", mode.name());
        let mut sched_image = None;
        for level in OmLevel::ALL {
            let v = variant(level.name());
            let image = check_variant(&built, level, &opts, v, reference, &mut mismatches);
            if level == OmLevel::FullSched {
                sched_image = image;
            }
        }
        // Ninth variant: profile the correct scheduled image, relink with
        // the profile, and re-diff the checksum.
        let Some(image) = sched_image else { continue };
        // Both engines collect the profile; their JSON must agree
        // byte-for-byte before the reference one drives the relink.
        match (run_profiled(&image, SIM_STEPS), run_profiled_fast(&image, SIM_STEPS)) {
            (Ok((_, rp)), Ok((_, fp))) => {
                if rp.to_json() != fp.to_json() {
                    mismatches.push(Mismatch {
                        variant: variant("pgo (engines)"),
                        detail: "block engine profile JSON diverges from reference".into(),
                    });
                } else {
                    let popts = OmOptions { profile: Some(rp), ..opts.clone() };
                    let v = variant("pgo");
                    check_variant(&built, OmLevel::FullSched, &popts, v, reference, &mut mismatches);
                }
            }
            (Err(e), _) | (_, Err(e)) => mismatches.push(Mismatch {
                variant: variant("pgo"),
                detail: format!("profiling run: {e}"),
            }),
        }
    }
    if mismatches.is_empty() {
        Outcome::Pass
    } else {
        Outcome::Fail { reference: Some(reference), mismatches }
    }
}

/// Links one variant of `built` under `opts` (verification on), runs it on
/// both engines and diffs its checksum against `reference`. Returns the
/// image when the variant agrees; otherwise records why it does not.
fn check_variant(
    built: &BuiltBenchmark,
    level: OmLevel,
    opts: &OmOptions,
    variant: String,
    reference: i64,
    mismatches: &mut Vec<Mismatch>,
) -> Option<Image> {
    let out = match optimize_and_link_with(&built.objects, &built.libs, level, opts) {
        Ok(out) if out.verify.is_some() => out,
        Ok(_) => {
            mismatches.push(Mismatch { variant, detail: "verification did not run".into() });
            return None;
        }
        Err(e) => {
            mismatches.push(Mismatch { variant, detail: format!("link/verify: {e}") });
            return None;
        }
    };
    let r = sim_both(&out.image, &variant, mismatches)?;
    if r.result != reference {
        mismatches.push(Mismatch {
            variant,
            detail: format!("checksum {} != reference {reference}", r.result),
        });
        return None;
    }
    Some(out.image)
}

/// True if `name` is called from any surviving statement or is an fnptr
/// target or module entry.
fn referenced(prog: &FuzzProgram, name: &str) -> bool {
    for md in &prog.modules {
        if md.procs.last().is_some_and(|p| p.name == name) {
            return true; // module entry, called from main
        }
        for p in &md.procs {
            for st in &p.stmts {
                if st.calls.iter().any(|c| c == name) {
                    return true;
                }
            }
        }
    }
    false
}

/// Greedily shrinks a failing program: drop trailing modules, then
/// unreferenced non-entry procedures, then statements — keeping every
/// change under which [`check`] still fails. `budget` bounds oracle runs.
pub fn shrink(prog: FuzzProgram, budget: usize) -> FuzzProgram {
    shrink_with(prog, budget, |p| check(p).is_fail())
}

/// [`shrink`] with an explicit failure oracle (unit-testable without
/// running the full pipeline).
pub fn shrink_with(
    mut prog: FuzzProgram,
    budget: usize,
    mut fails: impl FnMut(&FuzzProgram) -> bool,
) -> FuzzProgram {
    let mut runs = 0;
    let mut try_keep = |cand: &FuzzProgram, runs: &mut usize| -> bool {
        if *runs >= budget {
            return false;
        }
        *runs += 1;
        fails(cand)
    };

    let mut progress = true;
    while progress && runs < budget {
        progress = false;
        // 1. Whole modules, last first. A module may go only if no other
        // module's statements call into it (otherwise the candidate fails
        // with an unrelated undefined-symbol error, masking the real bug).
        'modules: loop {
            for mi in (0..prog.modules.len()).rev() {
                if prog.modules.len() == 1 || runs >= budget {
                    break 'modules;
                }
                let externally_called = prog.modules[mi].procs.iter().any(|p| {
                    prog.modules
                        .iter()
                        .enumerate()
                        .filter(|(mj, _)| *mj != mi)
                        .flat_map(|(_, m)| &m.procs)
                        .flat_map(|pr| &pr.stmts)
                        .any(|s| s.calls.contains(&p.name))
                });
                if externally_called {
                    continue;
                }
                let mut cand = prog.clone();
                cand.modules.remove(mi);
                if try_keep(&cand, &mut runs) {
                    prog = cand;
                    progress = true;
                    continue 'modules;
                }
            }
            break;
        }
        // 2. Unreferenced non-entry procedures, last first.
        'procs: loop {
            for mi in 0..prog.modules.len() {
                let n = prog.modules[mi].procs.len();
                for pj in (0..n.saturating_sub(1)).rev() {
                    let name = prog.modules[mi].procs[pj].name.clone();
                    let mut cand = prog.clone();
                    cand.modules[mi].procs.remove(pj);
                    if !referenced(&cand, &name) && try_keep(&cand, &mut runs) {
                        prog = cand;
                        progress = true;
                        continue 'procs;
                    }
                    if runs >= budget {
                        break 'procs;
                    }
                }
            }
            break;
        }
        // 3. Individual statements, last first.
        'stmts: loop {
            for mi in 0..prog.modules.len() {
                for pj in 0..prog.modules[mi].procs.len() {
                    let n = prog.modules[mi].procs[pj].stmts.len();
                    for si in (0..n).rev() {
                        let mut cand = prog.clone();
                        cand.modules[mi].procs[pj].stmts.remove(si);
                        if try_keep(&cand, &mut runs) {
                            prog = cand;
                            progress = true;
                            continue 'stmts;
                        }
                        if runs >= budget {
                            break 'stmts;
                        }
                    }
                }
            }
            break;
        }
    }
    prog
}

/// Renders a repro file: header comments describing the failure, then every
/// module source.
pub fn write_repro(prog: &FuzzProgram, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// omfuzz repro: seed {}", prog.seed);
    if let Outcome::Fail { reference, mismatches } = outcome {
        match reference {
            Some(v) => {
                let _ = writeln!(out, "// reference checksum: {v}");
            }
            None => {
                let _ = writeln!(out, "// reference checksum: unavailable");
            }
        }
        for m in mismatches {
            let _ = writeln!(out, "// {}: {}", m.variant, m.detail.replace('\n', "\n// "));
        }
    }
    for (name, src) in render(prog) {
        let _ = writeln!(out, "\n// ==== module {name} ====");
        out.push_str(&src);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = render(&generate(42));
        let b = render(&generate(42));
        assert_eq!(a, b);
        assert_ne!(a, render(&generate(43)));
    }

    #[test]
    fn every_program_has_entries() {
        for seed in 0..20 {
            let prog = generate(seed);
            assert!(!prog.modules.is_empty(), "seed {seed}");
            for md in &prog.modules {
                let entry = md.procs.last().expect("entry proc");
                assert!(!entry.is_static && !entry.is_float, "seed {seed}: entry must be plain int");
            }
        }
    }

    #[test]
    fn shrinker_minimizes_against_synthetic_oracle() {
        // "Fails" whenever any surviving statement calls mix64: the shrinker
        // should strip everything else down to one module with that one call.
        let mut found = false;
        for seed in 0..50 {
            let prog = generate(seed);
            let trigger = |p: &FuzzProgram| {
                p.modules
                    .iter()
                    .flat_map(|m| &m.procs)
                    .flat_map(|pr| &pr.stmts)
                    .any(|s| s.text.contains("mix64("))
            };
            if prog.modules.len() < 2 || !trigger(&prog) {
                continue;
            }
            found = true;
            let small = shrink_with(prog, 10_000, |p| trigger(p));
            assert!(trigger(&small), "seed {seed}: shrink lost the failure");
            assert_eq!(small.modules.len(), 1, "seed {seed}: trailing modules kept");
            let stmts: usize =
                small.modules.iter().flat_map(|m| &m.procs).map(|p| p.stmts.len()).sum();
            assert!(stmts <= 2, "seed {seed}: {stmts} statements survived");
            break;
        }
        assert!(found, "no multi-module seed with a mix64 call in 0..50");
    }

    #[test]
    fn repro_header_lists_mismatches() {
        let prog = generate(7);
        let outcome = Outcome::Fail {
            reference: Some(123),
            mismatches: vec![Mismatch {
                variant: "compile-each × OM-full".into(),
                detail: "checksum 9 != reference 123".into(),
            }],
        };
        let text = write_repro(&prog, &outcome);
        assert!(text.contains("// reference checksum: 123"));
        assert!(text.contains("checksum 9 != reference 123"));
        assert!(text.contains("int main()"));
    }
}

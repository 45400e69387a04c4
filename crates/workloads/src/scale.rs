//! The `--scale N` workload axis: deterministic 1000+-module,
//! 100k+-procedure programs whose literal pools overflow single-GAT reach,
//! plus the scenario packs that ride on it (shared-library images and
//! archive-heavy links with deep library-to-library call chains).
//!
//! The paper's figures stop at SPEC92-shaped programs; the subsystems built
//! since (multi-GAT layout, the coalescing relink cache, the block-cache
//! simulator) only show their worth on programs big and hostile enough to
//! stress them. The generator here is arithmetic-deterministic — no RNG at
//! all — so every scale point is bit-reproducible across machines and the
//! bench rows it produces can be drift-gated.
//!
//! # Shape
//!
//! A scale-N program is `N` user modules plus a driver:
//!
//! * every module defines [`ScaleSpec::globals_per_module`] scalars — sized
//!   via [`overflow_slots_per_module`] so the *sum* of the per-module
//!   literal pools always exceeds [`GAT_GROUP_CAPACITY`], forcing a GP
//!   group split at any `N`;
//! * every module defines [`ScaleSpec::procs_per_module`] procedures: one
//!   exported accessor, a within-module call chain that touches every
//!   global, and one exported entry that calls the chain, the previous
//!   module's accessor (cross-module traffic), and a library routine;
//! * `main` calls every module's entry and folds the results through the
//!   stdlib checksum, so a single misrelocated slot anywhere in the image
//!   changes the exit value.
//!
//! Call chains nest only *within* a module (the interpreter oracle is a
//! tree-walker, so cross-module entry chains would grow its stack with
//! `N`).
//!
//! # Compile-all at scale
//!
//! A monolithic compile-all merge of a scale program would put more than
//! one group's worth of literals into a *single* module, which the layout
//! rules cannot split (groups break only at module boundaries) — exactly
//! the wall real LTO deployments hit on Mozilla-sized links. [`build_scale`]
//! therefore partitions compile-all into slot-budgeted chunks
//! ([`CHUNK_SLOT_BUDGET`]), keeping interprocedural optimization within
//! each partition while every partition still fits a GAT group.

use crate::build::{
    build_sources, interp_sources, stdlib_libs, BuildError, BuiltBenchmark, CompileMode,
};
use om_codegen::{compile_all_sources, compile_source, crt0, CompileOpts};
use om_linker::GAT_GROUP_CAPACITY;
use om_objfile::{Archive, LitaEntry, Module, SymId, Symbol};

/// Default procedures per module (entry + accessor + chain). 1000 modules
/// at the default hit the 100k-procedure mark of ROADMAP item 5.
pub const PROCS_PER_MODULE: usize = 100;

/// Literal-slot budget per compile-all partition: comfortably under
/// [`GAT_GROUP_CAPACITY`] so a merged chunk module never needs a split the
/// layout rules cannot perform.
pub const CHUNK_SLOT_BUDGET: usize = 6000;

/// Loop iterations of the driver: two is enough for read-after-write
/// effects on every module's globals to reach the checksum.
pub const SCALE_ITERS: u64 = 2;

/// The smallest per-module literal-pool size that guarantees `modules`
/// modules *together* overflow one GAT group (`modules * result >`
/// [`GAT_GROUP_CAPACITY`]), forcing a GP group split at link time.
///
/// Shared by the scale generator and `tests/multigat.rs`, so the test and
/// the generator cannot drift on the 8191-slot boundary.
pub fn overflow_slots_per_module(modules: usize) -> usize {
    GAT_GROUP_CAPACITY / modules.max(1) + 1
}

/// Pads a module's GAT with `n` never-referenced slots (each naming its own
/// fresh common symbol, so none of them merge across modules).
///
/// # Panics
///
/// Panics if the padded module fails validation (test-helper semantics).
pub fn pad_gat(m: &mut Module, n: usize, tag: &str) {
    for i in 0..n {
        let id = SymId(m.symbols.len() as u32);
        m.symbols.push(Symbol::common(format!("pad_{tag}_{i}"), 8, 8));
        m.lita.push(LitaEntry { sym: id, addend: 0 });
    }
    m.validate().unwrap();
}

/// Shape of one scale point. Fields are public so tests can shrink the
/// per-module work (debug builds) while keeping the overflow guarantee.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Workload name (`scale{N}` from [`scale_spec`]).
    pub name: String,
    /// User modules (excluding crt0 and the driver).
    pub modules: usize,
    /// Procedures per module; at least 3 (accessor, chain, entry).
    pub procs_per_module: usize,
    /// Scalar globals per module; [`scale_spec`] derives this from
    /// [`overflow_slots_per_module`] so the program always splits.
    pub globals_per_module: usize,
    /// Driver loop iterations.
    pub iters: u64,
}

/// The canonical scale point for `N` user modules: default procedure count,
/// overflow-guaranteeing globals, two driver iterations.
///
/// # Panics
///
/// Panics if `n < 2` (a single module cannot split) or `n > 4000` (the
/// driver's own literal pool must stay within one GAT group).
pub fn scale_spec(n: usize) -> ScaleSpec {
    assert!((2..=4000).contains(&n), "scale N must be in 2..=4000, got {n}");
    ScaleSpec {
        name: format!("scale{n}"),
        modules: n,
        procs_per_module: PROCS_PER_MODULE,
        globals_per_module: overflow_slots_per_module(n),
        iters: SCALE_ITERS,
    }
}

/// Total procedures across the user modules (the driver adds one more).
pub fn total_procs(spec: &ScaleSpec) -> usize {
    spec.modules * spec.procs_per_module
}

fn module_source(spec: &ScaleSpec, m: usize) -> String {
    let g_count = spec.globals_per_module;
    let p = spec.procs_per_module.max(3);
    let chain = p - 2; // procs 1..=chain; 0 is the accessor, p-1 the entry
    let mut s = String::with_capacity(64 * (g_count + p));

    s.push_str("extern int mix64(int);\n");
    if m > 0 {
        s.push_str(&format!("extern int a{}(int, int);\n", m - 1));
    }

    // Globals: every fifth is an initialized strong definition (lands in
    // the data section), the rest are commons — both kinds occupy GAT
    // slots, and the mix exercises common-merge ordering at scale.
    for g in 0..g_count {
        if g % 5 == 4 {
            s.push_str(&format!("int g{m}_{g} = {};\n", (m * 31 + g * 7) % 97));
        } else {
            s.push_str(&format!("int g{m}_{g};\n"));
        }
    }

    // Exported accessor: the cross-module target of module m+1's entry.
    s.push_str(&format!(
        "int a{m}(int x, int y) {{ return x * {} + (y ^ {}); }}\n",
        (m % 7) + 3,
        (m * 131 + 77) & 1023
    ));

    // Within-module call chain; proc j reads the globals assigned to it and
    // writes one, so every global is live (GAT reduction cannot drop it).
    for j in 1..=chain {
        let linkage = if j % 7 == 3 { "static int" } else { "int" };
        s.push_str(&format!("{linkage} p{m}_{j}(int x, int y) {{\n"));
        s.push_str(&format!("  int t = x * 3 + y + {j};\n"));
        let mut g = j - 1;
        while g < g_count {
            s.push_str(&format!("  t = t + g{m}_{g};\n"));
            g += chain;
        }
        if g_count > 0 {
            let gw = (j - 1) % g_count;
            s.push_str(&format!("  g{m}_{gw} = g{m}_{gw} + (t & 8191);\n"));
        }
        let callee = if j == 1 {
            format!("a{m}")
        } else {
            format!("p{m}_{}", j - 1)
        };
        s.push_str(&format!(
            "  t = t ^ {callee}(t & 1023, y + {});\n  return t;\n}}\n",
            j % 7
        ));
    }

    // Exported entry: chain + library call + previous module's accessor.
    let prev = if m > 0 { m - 1 } else { m };
    s.push_str(&format!(
        "int e{m}(int x, int y) {{\n  int t = x ^ (y * 5 + {});\n",
        m % 251
    ));
    s.push_str(&format!("  t = t + p{m}_{chain}(x & 4095, y & 2047);\n"));
    s.push_str("  t = t ^ mix64(t & 65535);\n");
    s.push_str(&format!("  t = t + a{prev}(t & 511, y);\n  return t;\n}}\n"));
    s
}

fn main_source(spec: &ScaleSpec) -> String {
    let mut s = String::with_capacity(48 * spec.modules);
    s.push_str("extern int cksum_reset(); extern int cksum_add(int); extern int cksum_get();\n");
    for m in 0..spec.modules {
        s.push_str(&format!("extern int e{m}(int, int);\n"));
    }
    s.push_str("int main() {\n  int t = 1;\n  int i = 0;\n  cksum_reset();\n");
    s.push_str(&format!("  for (i = 0; i < {}; i = i + 1) {{\n", spec.iters));
    for m in 0..spec.modules {
        s.push_str(&format!("    t = t + e{m}(i + {m}, t & 65535);\n"));
    }
    s.push_str("    cksum_add(t);\n  }\n  return cksum_get() ^ (t & 65535);\n}\n");
    s
}

/// Generates the scale program's user sources: `N` modules followed by the
/// driver (`scale_main`). Purely arithmetic — same spec, same bytes.
pub fn sources(spec: &ScaleSpec) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(spec.modules + 1);
    for m in 0..spec.modules {
        out.push((format!("s{m:04}"), module_source(spec, m)));
    }
    out.push(("scale_main".to_string(), main_source(spec)));
    out
}

/// How many user modules one compile-all partition may merge before its
/// literal pool risks outgrowing a single GAT group.
pub fn chunk_modules(spec: &ScaleSpec) -> usize {
    // Per-module slot estimate: one per global, one per procedure (PV
    // slots dominate at scale), plus a few for externs and GP bookkeeping.
    let est = spec.globals_per_module + spec.procs_per_module + 4;
    (CHUNK_SLOT_BUDGET / est.max(1)).max(1)
}

/// Compiles a scale point. Compile-each is [`build_sources`]; compile-all
/// is *partitioned* (see the module docs) with the driver kept as its own
/// unit, the way a real system LTO-partitions an application against its
/// libraries.
///
/// # Errors
///
/// Propagates generator-output compile errors (a generator bug if ever hit).
pub fn build_scale(spec: &ScaleSpec, mode: CompileMode) -> Result<BuiltBenchmark, BuildError> {
    let srcs = sources(spec);
    if mode == CompileMode::Each {
        return build_sources(&spec.name, &srcs, mode);
    }
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module()?];
    let (driver, user) = srcs.split_last().expect("sources are never empty");
    for (ci, chunk) in user.chunks(chunk_modules(spec)).enumerate() {
        let refs: Vec<(&str, &str)> =
            chunk.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        objects.push(compile_all_sources(&format!("{}_all{ci}", spec.name), &refs, &opts)?);
    }
    objects.push(compile_source(&driver.0, &driver.1, &opts)?);
    Ok(BuiltBenchmark {
        name: spec.name.clone(),
        mode,
        objects,
        libs: stdlib_libs()?,
    })
}

/// Reference checksum from the mini-C interpreter (the behavioral oracle,
/// independent of the whole object-code pipeline).
///
/// # Errors
///
/// Returns a message on compile or runtime errors.
pub fn interp_reference_scale(spec: &ScaleSpec, steps: u64) -> Result<i64, String> {
    interp_sources(&sources(spec), steps)
}

/// The shared-library scenario pack: the subset of entries a dynamic image
/// must treat as preemptible (every sixteenth module's entry, and always at
/// least one), promoting `examples/shared_library.rs` into a measured
/// variant of the scale workload.
pub fn preemptible_entries(spec: &ScaleSpec) -> Vec<String> {
    let mut out: Vec<String> = (0..spec.modules)
        .filter(|m| m % 16 == 7)
        .map(|m| format!("e{m}"))
        .collect();
    if out.is_empty() {
        out.push("e0".to_string());
    }
    out
}

/// The archive-heavy scenario pack: `archives` archives of `members_per`
/// live members each, chained caller-to-callee straight through every
/// archive (member `l` of archive `k` calls member `l+1`, the last member
/// calls the first member of archive `k+1`), plus two never-referenced
/// decoy members per archive that demand-driven selection must skip.
///
/// Chains point *forward* only: the resolver makes a single pass over the
/// archive list, so a backward reference would be a genuine user error, not
/// a stress case.
#[derive(Debug, Clone)]
pub struct ArchivePack {
    /// crt0 + the application object.
    pub objects: Vec<Module>,
    /// The archive chain, in link order.
    pub libs: Vec<Archive>,
    /// Application + member sources, for the interpreter oracle.
    pub sources: Vec<(String, String)>,
    /// Depth of the library-to-library call chain.
    pub chain_depth: usize,
    /// Members actually reachable from the application.
    pub live_members: usize,
    /// All members, decoys included.
    pub total_members: usize,
}

impl ArchivePack {
    /// Reference result from the mini-C interpreter.
    ///
    /// # Errors
    ///
    /// Returns a message on compile or runtime errors.
    pub fn expected(&self, steps: u64) -> Result<i64, String> {
        let refs: Vec<(&str, &str)> =
            self.sources.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        om_minic::interp::run_sources(&refs, steps)
    }
}

/// Decoy members per archive (defined but never called).
pub const ARCHIVE_DECOYS: usize = 2;

fn member_source(k: usize, l: usize, archives: usize, members_per: usize) -> String {
    let a = (k * 13 + l * 5 + 3) & 255;
    let b = (k * 7 + l * 11 + 1) & 1023;
    let sh = (l % 5) + 1;
    let terminal = k + 1 == archives && l + 1 == members_per;
    let mut s = String::new();
    if !terminal {
        let (nk, nl) = if l + 1 < members_per { (k, l + 1) } else { (k + 1, 0) };
        s.push_str(&format!("extern int lib{nk}_{nl}(int);\n"));
        s.push_str(&format!(
            "int lib{k}_{l}(int x) {{\n  int v = x * {a} + {b};\n  v = v ^ (v >> {sh});\n  \
             return lib{nk}_{nl}(v & 1048575) + {};\n}}\n",
            (k + l) & 127
        ));
    } else {
        s.push_str(&format!(
            "int lib{k}_{l}(int x) {{\n  int v = x * {a} + {b};\n  return v ^ (v >> {sh});\n}}\n"
        ));
    }
    s
}

/// Builds the archive pack. `archives * members_per` is the chain depth and
/// must stay at or under 64 (the interpreter oracle is a tree-walker; the
/// whole chain nests on its stack).
///
/// # Errors
///
/// Propagates generator-output compile errors.
///
/// # Panics
///
/// Panics if the requested chain depth exceeds 64.
pub fn archive_pack(
    archives: usize,
    members_per: usize,
    iters: u64,
) -> Result<ArchivePack, BuildError> {
    assert!(archives >= 1 && members_per >= 1);
    let depth = archives * members_per;
    assert!(depth <= 64, "chain depth {depth} would stress the interpreter stack");
    let opts = CompileOpts::o2();
    let mut sources = Vec::new();

    let app = format!(
        "extern int lib0_0(int);\nint main() {{\n  int t = 5;\n  int i = 0;\n  \
         for (i = 0; i < {iters}; i = i + 1) {{ t = t + lib0_0(i + (t & 255)); }}\n  \
         return t & 16777215;\n}}\n"
    );
    sources.push(("app".to_string(), app.clone()));

    let mut libs = Vec::with_capacity(archives);
    for k in 0..archives {
        let mut ar = Archive::new(format!("libchain{k}"));
        for l in 0..members_per {
            let src = member_source(k, l, archives, members_per);
            ar.add(compile_source(&format!("lib{k}_{l}"), &src, &opts)?)?;
            sources.push((format!("lib{k}_{l}"), src));
        }
        for d in 0..ARCHIVE_DECOYS {
            let src = format!("int dead{k}_{d}(int x) {{ return x * {} + {k}; }}\n", d + 3);
            ar.add(compile_source(&format!("dead{k}_{d}"), &src, &opts)?)?;
            sources.push((format!("dead{k}_{d}"), src));
        }
        libs.push(ar);
    }

    let objects = vec![crt0::module()?, compile_source("app", &app, &opts)?];
    Ok(ArchivePack {
        objects,
        libs,
        sources,
        chain_depth: depth,
        live_members: archives * members_per,
        total_members: archives * (members_per + ARCHIVE_DECOYS),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_helper_always_overflows() {
        for n in [1, 2, 3, 16, 100, 1000, 4000] {
            let per = overflow_slots_per_module(n);
            assert!(n * per > GAT_GROUP_CAPACITY, "n={n} per={per}");
        }
    }

    #[test]
    fn scale_spec_counts() {
        let s = scale_spec(1000);
        assert!(total_procs(&s) >= 100_000);
        assert_eq!(s.modules, 1000);
        assert!(s.modules * s.globals_per_module > GAT_GROUP_CAPACITY);
    }

    #[test]
    fn small_scale_point_builds_and_agrees_with_interp() {
        // Tiny point (debug-friendly) with the structural invariants of the
        // real thing: overflow globals, both compile modes, chunked merge.
        let spec = ScaleSpec {
            name: "scale_t".to_string(),
            modules: 4,
            procs_per_module: 6,
            globals_per_module: 24,
            iters: 2,
        };
        let each = build_scale(&spec, CompileMode::Each).unwrap();
        assert_eq!(each.objects.len(), spec.modules + 2); // crt0 + N + driver
        let all = build_scale(&spec, CompileMode::All).unwrap();
        assert!(all.objects.len() < each.objects.len());
        assert!(interp_reference_scale(&spec, 10_000_000).is_ok());
    }

    #[test]
    fn archive_pack_shape() {
        let p = archive_pack(3, 4, 2).unwrap();
        assert_eq!(p.chain_depth, 12);
        assert_eq!(p.libs.len(), 3);
        assert_eq!(p.total_members, 3 * (4 + ARCHIVE_DECOYS));
        assert!(p.expected(10_000_000).is_ok());
    }
}

//! Mutation testing of the repo's safety nets (the `mutants` figure of
//! `reproduce`).
//!
//! The harness builds a deterministic corpus of *mutants* — faulty versions
//! of otherwise-correct linked programs — and measures which oracle kills
//! each one:
//!
//! * **verify** — `om_core::verify` (structural invariants, statistics
//!   accounting, and the linked-image relocation re-check), plus the
//!   pipeline's own hard errors;
//! * **checksum** — simulating the mutant image (on the block-cache engine,
//!   the same one the benchmark harness uses) and comparing against the
//!   *clean* build's simulated checksum (the golden-diff net);
//! * **interp** — comparing against the mini-C interpreter's reference,
//!   which never touches the object-code pipeline (the differential net).
//!
//! Mutants come in two layers. **Image mutants** corrupt a correctly linked
//! image post-hoc (classes prefixed `img-`): the artifacts of the clean link
//! (an [`Artifacts`]) are kept so the verifier can re-check the corrupt image
//! against the unchanged modules and layout. **Pass-fault mutants**
//! (classes prefixed `fault-`) re-run the pipeline with a
//! [`FaultPlan`] armed, making the optimizer itself emit wrong code
//! mid-pass — all downstream bookkeeping is consistent with the lie, which
//! is exactly what makes this layer harder to catch.
//!
//! Everything is deterministic: programs come from fixed `omfuzz` seeds,
//! candidate sites are enumerated in module/offset order, and the scorecard
//! is byte-identical at any `--jobs` width. Each executed mutant is one
//! `"fig":"mutants"` row of the `reproduce` report, so `reproduce check`
//! compares every oracle column against `BENCH_baseline.json` and requires
//! every mutant killed.

use crate::fuzz::{self, FuzzConfig, INTERP_STEPS};
use om_alpha::{decode, encode, Inst, MemOp, Reg};
use om_core::analysis::Artifacts;
use om_core::{
    optimize_and_link_artifacts, FaultKind, FaultPlan, OmError, OmLevel, OmOptions, OmOutput,
    Profile,
};
use om_objfile::{Archive, Module, RelocKind, SecId};
use om_sim::{run_covered_fast, run_fast, run_profiled_fast, Divergence, RunResult};
use om_workloads::build::{build_sources, interp_sources};
use om_workloads::{BuiltBenchmark, CompileMode};
use std::collections::HashSet;
use std::fmt::Write as _;

/// The corpus programs: `omfuzz` seeds curated (empirically, over seeds
/// 0..30) so that every class has live candidate sites somewhere in the
/// corpus *and* every candidate site is hot — a fault planted in cold code
/// is an equivalent mutant no oracle can kill, and belongs out of the
/// corpus, not in the escape column.
pub const DEFAULT_SEEDS: &[u64] = &[3, 24, 25, 29];

/// Candidate sites tried per (program, class).
pub const SITES_PER_CLASS: usize = 2;

/// Post-hoc corruption classes applied to a clean linked image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageClass {
    /// +1 word on the displacement of a branch carrying a `BrAddr` reloc
    /// (a cross-procedure BSR): the patched bits no longer agree with the
    /// relocation.
    BranchExt,
    /// +1 word on an *executed* local branch (no relocation): structurally
    /// invisible, caught only by execution.
    BranchLocal,
    /// Swap the contents of two adjacent GAT slots holding different
    /// addresses.
    GatSwap,
    /// Truncate a GAT slot's 64-bit address to its low 16 bits.
    GatTrunc,
    /// +8 on the `lda` half of a GPDISP pair: GP is established 8 bytes off.
    GpdispSkew,
    /// Replace a no-op (alignment UNOP or nullification residue) with
    /// `lda sp, 8(sp)`: decodable, relocation-free, but skews the stack.
    NopClobber,
    /// Write a nonzero word into inter-module alignment padding: never
    /// executed, so only the verifier's padding sweep can object.
    PadDirty,
    /// Move the image entry point 4 bytes forward, skipping `__start`'s
    /// first instruction. Still in `.text` and aligned, so structurally
    /// clean.
    EntrySkip,
    /// +16 on a `RefQuad` data quad (a stored procedure address): indirect
    /// calls through it land mid-procedure.
    DataQuad,
}

impl ImageClass {
    pub const ALL: [ImageClass; 9] = [
        ImageClass::BranchExt,
        ImageClass::BranchLocal,
        ImageClass::GatSwap,
        ImageClass::GatTrunc,
        ImageClass::GpdispSkew,
        ImageClass::NopClobber,
        ImageClass::PadDirty,
        ImageClass::EntrySkip,
        ImageClass::DataQuad,
    ];

    /// Stable scorecard name.
    pub fn name(self) -> &'static str {
        match self {
            ImageClass::BranchExt => "img-branch-ext",
            ImageClass::BranchLocal => "img-branch-local",
            ImageClass::GatSwap => "img-gat-swap",
            ImageClass::GatTrunc => "img-gat-trunc",
            ImageClass::GpdispSkew => "img-gpdisp-skew",
            ImageClass::NopClobber => "img-nop-clobber",
            ImageClass::PadDirty => "img-pad-dirty",
            ImageClass::EntrySkip => "img-entry-skip",
            ImageClass::DataQuad => "img-data-quad",
        }
    }
}

/// One mutant class: an image corruption or an armed pass fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantClass {
    Image(ImageClass),
    Fault(FaultKind),
}

impl MutantClass {
    /// Every class, image layer first, in stable scorecard order.
    pub fn all() -> Vec<MutantClass> {
        let mut v: Vec<MutantClass> = ImageClass::ALL.iter().map(|&c| MutantClass::Image(c)).collect();
        v.extend(FaultKind::ALL.iter().map(|&k| MutantClass::Fault(k)));
        v
    }

    pub fn name(self) -> &'static str {
        match self {
            MutantClass::Image(c) => c.name(),
            MutantClass::Fault(k) => k.name(),
        }
    }
}

/// One planned mutant: a class applied at its `site`-th candidate in the
/// program generated by `seed`.
#[derive(Debug, Clone, Copy)]
pub struct MutantSpec {
    pub seed: u64,
    pub class: MutantClass,
    pub site: usize,
}

/// The deterministic corpus, site-major and round-robin across classes:
/// every class's first site comes before any class's second.
pub fn corpus(seeds: &[u64], sites: usize) -> Vec<MutantSpec> {
    let mut v = Vec::new();
    for site in 0..sites {
        for class in MutantClass::all() {
            for &seed in seeds {
                v.push(MutantSpec { seed, class, site });
            }
        }
    }
    v
}

/// A corpus program built cleanly once; every mutant of it reuses these
/// artifacts.
pub struct CleanBuild {
    pub seed: u64,
    pub objects: Vec<Module>,
    pub libs: std::sync::Arc<[Archive]>,
    /// The mini-C interpreter's checksum (never touches the pipeline).
    pub reference: i64,
    pub output: OmOutput,
    pub emitted: Artifacts,
    /// The clean image's simulated run (checksum equals `reference`).
    pub clean: RunResult,
    /// Execution profile of the clean image, for the PGO-layer fault class.
    pub profile: Profile,
    /// Text addresses the clean run actually executed. Image classes whose
    /// corruption is structurally invisible (`img-branch-local`,
    /// `img-nop-clobber`) restrict their candidates to executed words, so
    /// a mutant is never planted in provably-cold code.
    pub executed: HashSet<u64>,
}

impl CleanBuild {
    /// Mutant simulation budget: generous headroom over the clean run, so
    /// a runaway mutant is classified as a hang instead of spinning.
    pub fn sim_budget(&self) -> u64 {
        self.clean.insts * 4 + 1_000_000
    }
}

/// Builds the clean pipeline artifacts for one corpus seed.
///
/// # Errors
///
/// Any failure here means the seed is unusable as a corpus program (the
/// clean build must link, verify, and reproduce the interpreter's checksum).
pub fn build_clean(seed: u64) -> Result<CleanBuild, String> {
    let sources = fuzz::render(&fuzz::generate(seed, &FuzzConfig::default()));
    let reference = interp_sources(&sources, INTERP_STEPS)
        .map_err(|e| format!("seed {seed}: interpreter: {e}"))?;
    let BuiltBenchmark { objects, libs, .. } = build_sources("fz", &sources, CompileMode::Each)
        .map_err(|e| format!("seed {seed}: build: {e}"))?;

    let opts = OmOptions { verify: true, ..OmOptions::default() };
    let (output, emitted) =
        optimize_and_link_artifacts(&objects, &libs, OmLevel::FullSched, &opts)
            .map_err(|e| format!("seed {seed}: clean link: {e}"))?;
    let clean = run_fast(&output.image, fuzz::SIM_STEPS)
        .map_err(|e| format!("seed {seed}: clean run: {e}"))?;
    if clean.result != reference {
        return Err(format!(
            "seed {seed}: clean image checksum {} != interpreter {reference} — not a usable corpus program",
            clean.result
        ));
    }
    let (_, profile) = run_profiled_fast(&output.image, fuzz::SIM_STEPS)
        .map_err(|e| format!("seed {seed}: profiling run: {e}"))?;
    let (_, executed) = run_covered_fast(&output.image, fuzz::SIM_STEPS)
        .map_err(|e| format!("seed {seed}: coverage run: {e}"))?;
    Ok(CleanBuild { seed, objects, libs, reference, output, emitted, clean, profile, executed })
}

/// One executed mutant and the oracles that killed it.
#[derive(Debug, Clone)]
pub struct MutantRecord {
    pub class: &'static str,
    pub seed: u64,
    pub site: usize,
    /// Killed by `om_core::verify` (or a hard pipeline error).
    pub verify: bool,
    /// Killed by diffing the simulated run against the clean image's run.
    pub checksum: bool,
    /// Killed by diffing against the mini-C interpreter's reference.
    pub interp: bool,
    pub detail: String,
}

impl MutantRecord {
    pub fn killed(&self) -> bool {
        self.verify || self.checksum || self.interp
    }
}

// ---------------------------------------------------------------------------
// Image mutators
// ---------------------------------------------------------------------------

fn read_word(image: &om_linker::Image, addr: u64) -> Option<u32> {
    let s = image.segments.iter().find(|s| s.contains(addr))?;
    let off = (addr - s.base) as usize;
    Some(u32::from_le_bytes(s.bytes[off..off + 4].try_into().ok()?))
}

fn write_word(image: &mut om_linker::Image, addr: u64, word: u32) {
    let s = image.segments.iter_mut().find(|s| s.contains(addr)).expect("mutating unmapped word");
    let off = (addr - s.base) as usize;
    s.bytes[off..off + 4].copy_from_slice(&word.to_le_bytes());
}

fn read_quad(image: &om_linker::Image, addr: u64) -> Option<u64> {
    let s = image.segments.iter().find(|s| s.contains(addr))?;
    let off = (addr - s.base) as usize;
    Some(u64::from_le_bytes(s.bytes[off..off + 8].try_into().ok()?))
}

fn write_quad(image: &mut om_linker::Image, addr: u64, quad: u64) {
    let s = image.segments.iter_mut().find(|s| s.contains(addr)).expect("mutating unmapped quad");
    let off = (addr - s.base) as usize;
    s.bytes[off..off + 8].copy_from_slice(&quad.to_le_bytes());
}

/// Applies image class `class` at its `site`-th candidate. `None` when the
/// program has fewer candidates than `site` (the spec is skipped, keeping
/// site numbering deterministic).
pub fn mutate_image(
    build: &CleanBuild,
    class: ImageClass,
    site: usize,
) -> Option<(om_linker::Image, String)> {
    let em = &build.emitted;
    let layout = &em.layout;
    let mut image = build.output.image.clone();
    match class {
        ImageClass::BranchExt => {
            let mut n = 0;
            for (mi, m) in em.modules.iter().enumerate() {
                for rel in &m.relocs {
                    if rel.sec == SecId::Text && matches!(rel.kind, RelocKind::BrAddr { .. }) {
                        if n == site {
                            let addr = layout.bases[mi].text + rel.offset;
                            let w = read_word(&image, addr)?;
                            write_word(&mut image, addr, (w & 0xFFE0_0000) | (w.wrapping_add(1) & 0x1F_FFFF));
                            return Some((image, format!("branch at {addr:#x}: disp +1 word")));
                        }
                        n += 1;
                    }
                }
            }
            None
        }
        ImageClass::BranchLocal => {
            let mut n = 0;
            for (mi, m) in em.modules.iter().enumerate() {
                let reloc_offs: HashSet<u64> = m
                    .relocs
                    .iter()
                    .filter(|r| r.sec == SecId::Text)
                    .map(|r| r.offset)
                    .collect();
                for off in (0..m.text.len() as u64).step_by(4) {
                    if reloc_offs.contains(&off) {
                        continue;
                    }
                    let addr = layout.bases[mi].text + off;
                    if !build.executed.contains(&addr) {
                        continue;
                    }
                    let w = read_word(&image, addr)?;
                    if matches!(decode(w), Ok(Inst::Br { .. })) {
                        if n == site {
                            write_word(&mut image, addr, (w & 0xFFE0_0000) | (w.wrapping_add(1) & 0x1F_FFFF));
                            return Some((image, format!("local branch at {addr:#x}: disp +1 word")));
                        }
                        n += 1;
                    }
                }
            }
            None
        }
        ImageClass::GatSwap => {
            let mut n = 0;
            for w in layout.slots.windows(2) {
                let (a, b) = (w[0].0, w[1].0);
                let (qa, qb) = (read_quad(&image, a)?, read_quad(&image, b)?);
                if qa != qb {
                    if n == site {
                        write_quad(&mut image, a, qb);
                        write_quad(&mut image, b, qa);
                        return Some((image, format!("GAT slots {a:#x}/{b:#x} swapped")));
                    }
                    n += 1;
                }
            }
            None
        }
        ImageClass::GatTrunc => {
            let mut n = 0;
            for &(addr, _, _) in &layout.slots {
                let q = read_quad(&image, addr)?;
                if q > 0xFFFF {
                    if n == site {
                        write_quad(&mut image, addr, q & 0xFFFF);
                        return Some((image, format!("GAT slot {addr:#x} truncated to 16 bits")));
                    }
                    n += 1;
                }
            }
            None
        }
        ImageClass::GpdispSkew => {
            let mut n = 0;
            for (mi, m) in em.modules.iter().enumerate() {
                for rel in &m.relocs {
                    if rel.sec == SecId::Text {
                        if let RelocKind::Gpdisp { pair_offset, .. } = rel.kind {
                            if n == site {
                                let lo = rel.offset as i64 + pair_offset;
                                let addr = layout.bases[mi].text + lo as u64;
                                let w = read_word(&image, addr)?;
                                let d = (w & 0xFFFF) as u16 as i16;
                                let skewed = d.wrapping_add(8) as u16 as u32;
                                write_word(&mut image, addr, (w & 0xFFFF_0000) | skewed);
                                return Some((image, format!("GPDISP lda at {addr:#x}: disp +8")));
                            }
                            n += 1;
                        }
                    }
                }
            }
            None
        }
        ImageClass::NopClobber => {
            // Restricted to *executed* no-ops so the clobber is on a live
            // path, not in a cold library member.
            let mut n = 0;
            for (mi, m) in em.modules.iter().enumerate() {
                for off in (0..m.text.len() as u64).step_by(4) {
                    let addr = layout.bases[mi].text + off;
                    if !build.executed.contains(&addr) {
                        continue;
                    }
                    let w = read_word(&image, addr)?;
                    if decode(w).is_ok_and(|i| i.is_nop()) {
                        if n == site {
                            let skew = encode(Inst::Mem { op: MemOp::Lda, ra: Reg::SP, rb: Reg::SP, disp: 8 });
                            write_word(&mut image, addr, skew);
                            return Some((image, format!("no-op at {addr:#x} -> lda sp, 8(sp)")));
                        }
                        n += 1;
                    }
                }
            }
            None
        }
        ImageClass::PadDirty => {
            let t = layout.info.text;
            let mut covered = vec![false; (t.size / 4) as usize];
            for (mi, m) in em.modules.iter().enumerate() {
                let start = (layout.bases[mi].text - t.base) / 4;
                for w in start..start + (m.text.len() as u64 / 4) {
                    if let Some(c) = covered.get_mut(w as usize) {
                        *c = true;
                    }
                }
            }
            let mut n = 0;
            for (k, c) in covered.iter().enumerate() {
                if !c {
                    if n == site {
                        let addr = t.base + 4 * k as u64;
                        write_word(&mut image, addr, 0x0000_0013);
                        return Some((image, format!("padding word at {addr:#x} dirtied")));
                    }
                    n += 1;
                }
            }
            None
        }
        ImageClass::EntrySkip => {
            if site > 0 {
                return None;
            }
            image.entry += 4;
            let what = format!("entry moved to {:#x} (+4)", image.entry);
            Some((image, what))
        }
        ImageClass::DataQuad => {
            let mut n = 0;
            for (mi, m) in em.modules.iter().enumerate() {
                for rel in &m.relocs {
                    if let (sec @ (SecId::Data | SecId::Sdata), RelocKind::RefQuad { .. }) =
                        (rel.sec, &rel.kind)
                    {
                        if n == site {
                            let base = if sec == SecId::Data {
                                layout.bases[mi].data
                            } else {
                                layout.bases[mi].sdata
                            };
                            let addr = base + rel.offset;
                            let q = read_quad(&image, addr)?;
                            write_quad(&mut image, addr, q.wrapping_add(16));
                            return Some((image, format!("data quad at {addr:#x}: +16")));
                        }
                        n += 1;
                    }
                }
            }
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Mutant execution
// ---------------------------------------------------------------------------

/// Runs one mutant spec against every oracle. `None` when the spec has no
/// candidate site in this program (or, for pass faults, the plan never
/// fired), so the mutant is inert and excluded from the scorecard.
pub fn run_mutant(build: &CleanBuild, spec: &MutantSpec) -> Option<MutantRecord> {
    match spec.class {
        MutantClass::Image(class) => {
            let (image, what) = mutate_image(build, class, spec.site)?;
            if image == build.output.image && image.entry == build.output.image.entry {
                return None; // the patch was a no-op; inert
            }
            let report = om_core::verify::verify_linked(
                &build.emitted.modules,
                &build.emitted.symtab,
                &build.emitted.layout,
                &image,
            );
            let verify = !report.is_ok();
            let run = run_fast(&image, build.sim_budget());
            let vs_clean = Divergence::classify(&run, build.clean.result);
            let vs_interp = Divergence::classify(&run, build.reference);
            let mut detail = what;
            if verify {
                let first = report.violations.first().cloned().unwrap_or_default();
                let _ = write!(detail, "; verify: {first}");
            }
            if vs_clean.diverged() {
                let _ = write!(detail, "; run: {vs_clean}");
            }
            Some(MutantRecord {
                class: class.name(),
                seed: spec.seed,
                site: spec.site,
                verify,
                checksum: vs_clean.diverged(),
                interp: vs_interp.diverged(),
                detail,
            })
        }
        MutantClass::Fault(kind) => run_fault_mutant(build, kind, spec.site),
    }
}

fn fault_options(build: &CleanBuild, kind: FaultKind, plan: FaultPlan, verify: bool) -> OmOptions {
    OmOptions {
        verify,
        fault: Some(plan),
        // The PGO-layer fault only exists under profile-guided layout; the
        // other kinds run the plain scheduled pipeline.
        profile: (kind == FaultKind::EntryPad).then(|| build.profile.clone()),
        ..OmOptions::default()
    }
}

fn run_fault_mutant(build: &CleanBuild, kind: FaultKind, site: usize) -> Option<MutantRecord> {
    // Run 1, verification off: would the miscompiled image ship, and do the
    // runtime oracles catch it?
    let plan = FaultPlan::new(kind, site);
    let opts = fault_options(build, kind, plan.clone(), false);
    let linked = optimize_and_link_artifacts(&build.objects, &build.libs, OmLevel::FullSched, &opts);
    if !plan.fired() {
        return None; // site beyond the program's candidate count; inert
    }
    let (mut verify, mut checksum, mut interp) = (false, false, false);
    let mut detail = format!("{} at site {site}", kind.name());
    match &linked {
        Ok((out, _)) => {
            let run = run_fast(&out.image, build.sim_budget());
            let vs_clean = Divergence::classify(&run, build.clean.result);
            let vs_interp = Divergence::classify(&run, build.reference);
            checksum = vs_clean.diverged();
            interp = vs_interp.diverged();
            if vs_clean.diverged() {
                let _ = write!(detail, "; run: {vs_clean}");
            }
        }
        Err(e) => {
            // The pipeline refused to link even without the verifier: its
            // own strictness is part of the structural net.
            verify = true;
            let _ = write!(detail, "; pipeline: {e}");
        }
    }

    // Run 2, verification on: does the structural net catch it before the
    // image ever exists?
    if !verify {
        let plan2 = FaultPlan::new(kind, site);
        let vopts = fault_options(build, kind, plan2, true);
        match optimize_and_link_artifacts(&build.objects, &build.libs, OmLevel::FullSched, &vopts) {
            Ok(_) => {}
            // Quote the first violation, as image mutants do: a check count
            // would move with every verifier change.
            Err(OmError::Verify { violations, .. }) => {
                verify = true;
                let first = violations.first().map_or("", String::as_str);
                let _ = write!(detail, "; verify: {first}");
            }
            Err(e) => {
                verify = true;
                let msg = e.to_string();
                let _ = write!(detail, "; verify: {}", msg.lines().next().unwrap_or(""));
            }
        }
    }
    Some(MutantRecord { class: kind.name(), seed: build.seed, site, verify, checksum, interp, detail })
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Builds the corpus programs and runs every spec on `jobs` workers,
/// returning the executed (non-inert) mutants in corpus order.
///
/// # Errors
///
/// Fails if any corpus seed cannot be built cleanly.
pub fn run_campaign(seeds: &[u64], sites: usize, jobs: usize) -> Result<Vec<MutantRecord>, String> {
    let builds: Vec<CleanBuild> = crate::par::parallel_map(jobs, seeds, |&s| build_clean(s))
        .into_iter()
        .collect::<Result<_, _>>()?;
    let build_of = |seed: u64| builds.iter().find(|b| b.seed == seed).expect("corpus seed");
    let specs = corpus(seeds, sites);
    let results = crate::par::parallel_map(jobs, &specs, |spec| run_mutant(build_of(spec.seed), spec));
    Ok(results.into_iter().flatten().collect())
}

/// The `mutants` figure: the committed corpus ([`DEFAULT_SEEDS`] ×
/// [`SITES_PER_CLASS`]) on `jobs` workers, as a [`crate::figures::BenchRows`]
/// carrying only the scorecard.
///
/// # Panics
///
/// Panics if a corpus seed cannot be built cleanly.
pub fn bench_rows(jobs: usize) -> crate::figures::BenchRows {
    let rows = run_campaign(DEFAULT_SEEDS, SITES_PER_CLASS, jobs)
        .unwrap_or_else(|e| panic!("mutants: corpus build failed: {e}"));
    crate::figures::BenchRows {
        name: "mutants".to_string(),
        mutants: Some(scorecard(rows)),
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Scorecard
// ---------------------------------------------------------------------------

/// Per-class kill tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassScore {
    pub class: String,
    pub total: usize,
    pub verify: usize,
    pub checksum: usize,
    pub interp: usize,
    pub escaped: usize,
}

/// The whole campaign's result.
#[derive(Debug, Clone)]
pub struct Scorecard {
    pub mutants: usize,
    pub killed: usize,
    pub escaped: usize,
    pub classes: Vec<ClassScore>,
    pub rows: Vec<MutantRecord>,
}

/// Tallies records into a scorecard (classes sorted by name).
pub fn scorecard(rows: Vec<MutantRecord>) -> Scorecard {
    let mut classes: Vec<ClassScore> = Vec::new();
    for r in &rows {
        let c = match classes.iter_mut().find(|c| c.class == r.class) {
            Some(c) => c,
            None => {
                classes.push(ClassScore {
                    class: r.class.to_string(),
                    total: 0,
                    verify: 0,
                    checksum: 0,
                    interp: 0,
                    escaped: 0,
                });
                classes.last_mut().expect("just pushed")
            }
        };
        c.total += 1;
        c.verify += usize::from(r.verify);
        c.checksum += usize::from(r.checksum);
        c.interp += usize::from(r.interp);
        c.escaped += usize::from(!r.killed());
    }
    classes.sort_by(|a, b| a.class.cmp(&b.class));
    let killed = rows.iter().filter(|r| r.killed()).count();
    Scorecard { mutants: rows.len(), killed, escaped: rows.len() - killed, classes, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(class: &'static str, verify: bool, checksum: bool) -> MutantRecord {
        MutantRecord {
            class,
            seed: 1,
            site: 0,
            verify,
            checksum,
            interp: checksum,
            detail: String::new(),
        }
    }

    #[test]
    fn corpus_is_round_robin_by_class() {
        let specs = corpus(&[1, 2], 2);
        let n_classes = MutantClass::all().len();
        assert_eq!(specs.len(), 2 * n_classes * 2);
        // The first 2*n_classes specs cover every class at site 0.
        let first: std::collections::HashSet<&str> =
            specs[..2 * n_classes].iter().map(|s| s.class.name()).collect();
        assert_eq!(first.len(), n_classes);
        assert!(specs[..2 * n_classes].iter().all(|s| s.site == 0));
    }

    #[test]
    fn scorecard_tallies_and_sorts() {
        let card = scorecard(vec![
            record("img-b", true, false),
            record("img-a", false, true),
            record("img-b", false, false), // escape
        ]);
        assert_eq!(card.mutants, 3);
        assert_eq!(card.killed, 2);
        assert_eq!(card.escaped, 1);
        assert_eq!(card.classes.len(), 2);
        assert_eq!(card.classes[0].class, "img-a");
        assert_eq!(card.classes[1].escaped, 1);
    }
}

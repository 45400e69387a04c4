//! Workload inputs: the programs each workload links, generated and
//! compiled from the seed together with their mini-C interpreter checksums,
//! and the seeded single-module edits the relink phases apply.

use crate::calib::Span;
use crate::measure::timed;
use om_objfile::{Archive, Module};
use om_prng::StdRng;
use om_workloads::build::{build, interp_reference, CompileMode};
use om_workloads::scale::{build_scale, interp_reference_scale, scale_spec};
use om_workloads::{spec, BenchSpec};
use std::sync::Arc;

/// Interpreter step budget for one reference checksum.
const INTERP_STEPS: u64 = 4_000_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScaleLink,
    Spec19Run,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scale-link" => Some(Workload::ScaleLink),
            "spec19-run" => Some(Workload::Spec19Run),
            _ => None,
        }
    }
}

/// One program to link: crt0 first, then the user objects in link order.
#[derive(PartialEq)]
pub struct Program {
    pub name: String,
    pub objects: Vec<Module>,
    /// The library set: the same shared stdlib for every program.
    pub libs: Arc<[Archive]>,
    /// The mini-C interpreter's checksum for the program.
    pub reference: i64,
}

/// What making a workload's inputs cost, once per time they were made.
#[derive(Debug, Default)]
pub struct SetupCost {
    /// When each whole setup ran, pushed by the caller that timed it.
    pub whole: Vec<Span>,
    /// Seconds of each setup's generate-and-compile part.
    pub build_s: Vec<f64>,
    /// Seconds of each setup's interpreter part.
    pub interp_s: Vec<f64>,
}

/// Makes the workload's inputs and records what that cost in `cost`.
///
/// # Errors
///
/// A compile or interpreter failure.
pub fn setup(
    w: Workload,
    seed: u64,
    smoke: bool,
    cost: &mut SetupCost,
) -> Result<Vec<Program>, String> {
    let (programs, build_s, interp_s) = match w {
        Workload::ScaleLink => scale(smoke)?,
        Workload::Spec19Run => spec19(seed, smoke)?,
    };
    cost.build_s.push(build_s);
    cost.interp_s.push(interp_s);
    Ok(programs)
}

/// The `om_workloads::scale` program at N=256 (N=16 for the smoke run),
/// compiled one module at a time.
fn scale(smoke: bool) -> Result<(Vec<Program>, f64, f64), String> {
    let spec = scale_spec(if smoke { 16 } else { 256 });
    let (built, build_s) = timed(|| build_scale(&spec, CompileMode::Each));
    let built = built.map_err(|e| format!("{}: {e}", spec.name))?;
    let (reference, interp_s) = timed(|| interp_reference_scale(&spec, INTERP_STEPS));
    let reference = reference.map_err(|e| format!("{} interpreter: {e}", spec.name))?;
    let p = Program {
        name: spec.name,
        objects: built.objects,
        libs: built.libs,
        reference,
    };
    Ok((vec![p], build_s, interp_s))
}

/// The 19 SPEC92-shaped programs at full iterations (two quick ones for the
/// smoke run), compiled one module at a time. A nonzero seed permutes each
/// program's user objects on the link line, since simulated cycles shift
/// with layout; crt0 stays first, and seed 0 keeps the canonical order.
fn spec19(seed: u64, smoke: bool) -> Result<(Vec<Program>, f64, f64), String> {
    let specs: Vec<BenchSpec> = if smoke {
        ["compress", "li"]
            .iter()
            .filter_map(|n| spec::by_name(n))
            .map(|s| spec::quick(&s))
            .collect()
    } else {
        spec::all()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut build_s, mut interp_s) = (0.0, 0.0);
    let mut programs = Vec::with_capacity(specs.len());
    for s in &specs {
        let (built, secs) = timed(|| build(s, CompileMode::Each));
        build_s += secs;
        let built = built.map_err(|e| format!("{}: {e}", s.name))?;
        let mut objects = built.objects;
        if seed != 0 {
            shuffle(&mut objects[1..], &mut rng);
        }
        let (reference, secs) = timed(|| interp_reference(s, INTERP_STEPS));
        interp_s += secs;
        let reference = reference.map_err(|e| format!("{} interpreter: {e}", s.name))?;
        programs.push(Program {
            name: s.name.to_string(),
            objects,
            libs: built.libs,
            reference,
        });
    }
    Ok((programs, build_s, interp_s))
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Seeded single-module edits, made the way the CI-fleet benchmark makes
/// them: bytes appended to one user module's `.data`. The module's content
/// hash changes; the program's behaviour does not, since nothing reads the
/// appended bytes.
pub struct Edits {
    /// Per program, its user-module indices in the order the seed picks.
    order: Vec<Vec<usize>>,
    made: Vec<usize>,
}

impl Edits {
    pub fn new(programs: &[Program], seed: u64) -> Edits {
        let mut rng = StdRng::seed_from_u64(seed);
        let order = programs
            .iter()
            .map(|p| {
                let mut idx: Vec<usize> = (1..p.objects.len()).collect();
                shuffle(&mut idx, &mut rng);
                idx
            })
            .collect();
        Edits {
            order,
            made: vec![0; programs.len()],
        }
    }

    /// The next edit of program `i`, which is `p`: a user module not edited
    /// before. Once every module has been edited the order starts over with
    /// a new byte value, so no two edits have the same content.
    pub fn next(&mut self, i: usize, p: &Program) -> Program {
        let order = &self.order[i];
        let k = self.made[i];
        self.made[i] += 1;
        let tag = u8::try_from(k / order.len() + 1).expect("under 255 edits per module");
        let mut objects = p.objects.clone();
        objects[order[k % order.len()]]
            .data
            .extend_from_slice(&[tag; 8]);
        Program {
            name: p.name.clone(),
            objects,
            libs: Arc::clone(&p.libs),
            reference: p.reference,
        }
    }
}

//! Build drivers: compile a benchmark the two ways the paper measures.
//!
//! * **compile-each** — every user source file compiled separately at `-O2`
//!   (intraprocedural global optimization only);
//! * **compile-all** — all user sources compiled monolithically with
//!   interprocedural optimization (merging + inlining).
//!
//! Both variants link against the same pre-compiled [`stdlib`] archive, so
//! compile-time interprocedural optimization never sees library internals —
//! the asymmetry at the heart of the paper's compile-all result.
//!
//! [`stdlib`]: crate::stdlib

use crate::gen::{generate, BenchSpec, Sources};
use crate::stdlib::STDLIB_SOURCES;
use om_codegen::{compile_all_sources, compile_source, crt0, CodegenError, CompileOpts};
use om_objfile::{Archive, Module, ObjError};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How the user sources are compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileMode {
    /// Separate compilation of each source file (`-O2`).
    Each,
    /// Monolithic compilation with interprocedural optimization.
    All,
}

impl CompileMode {
    /// Both modes, in the order the paper's figures list them. The single
    /// source of truth for mode iteration in the evaluation harness.
    pub const ALL: [CompileMode; 2] = [CompileMode::Each, CompileMode::All];

    /// This mode's position in [`CompileMode::ALL`] (dense, for tables).
    pub fn index(self) -> usize {
        match self {
            CompileMode::Each => 0,
            CompileMode::All => 1,
        }
    }

    /// Paper terminology.
    pub fn name(self) -> &'static str {
        match self {
            CompileMode::Each => "compile-each",
            CompileMode::All => "compile-all",
        }
    }
}

/// Build errors.
#[derive(Debug)]
pub enum BuildError {
    Codegen(CodegenError),
    Object(ObjError),
    /// The process-wide shared stdlib failed to compile (stringified because
    /// the cached result is cloned to every caller).
    Stdlib(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Codegen(e) => write!(f, "{e}"),
            BuildError::Object(e) => write!(f, "{e}"),
            BuildError::Stdlib(e) => write!(f, "stdlib: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CodegenError> for BuildError {
    fn from(e: CodegenError) -> Self {
        BuildError::Codegen(e)
    }
}

impl From<ObjError> for BuildError {
    fn from(e: ObjError) -> Self {
        BuildError::Object(e)
    }
}

/// A benchmark ready to link: crt0 + user objects, plus the library archive.
///
/// The library slice is shared (`Arc`): every benchmark in the process
/// points at the same pre-compiled stdlib, mirroring how a real system
/// installs one `libc.a` that every link reads. Consumers borrow it
/// (`&b.libs` coerces to `&[Archive]`).
#[derive(Debug, Clone)]
pub struct BuiltBenchmark {
    pub name: String,
    pub mode: CompileMode,
    /// crt0 followed by the user objects.
    pub objects: Vec<Module>,
    /// The pre-compiled standard library, shared process-wide.
    pub libs: Arc<[Archive]>,
}

/// The shared stdlib: compiled at most once per process, then handed out by
/// `Arc`. Errors are stringified so the cached result clones.
static STDLIB: OnceLock<Result<Arc<[Archive]>, String>> = OnceLock::new();

fn compile_stdlib() -> Result<Archive, BuildError> {
    let mut ar = Archive::new("libstd");
    for (name, src) in STDLIB_SOURCES {
        ar.add(compile_source(name, src, &CompileOpts::o2())?)?;
    }
    Ok(ar)
}

/// The standard library archive, compiled once per process and shared by
/// every [`build`] (`-O2`, compiled "long before" the application).
///
/// # Errors
///
/// Propagates compile errors (the library sources are fixed, so this only
/// fails if the toolchain regresses).
pub fn stdlib_libs() -> Result<Arc<[Archive]>, BuildError> {
    STDLIB
        .get_or_init(|| {
            compile_stdlib()
                .map(|ar| Arc::from(vec![ar]))
                .map_err(|e| e.to_string())
        })
        .clone()
        .map_err(BuildError::Stdlib)
}

/// An owned copy of the stdlib archive, for tools that write it to disk.
/// Shares the process-wide compilation with [`stdlib_libs`].
///
/// # Errors
///
/// See [`stdlib_libs`].
pub fn stdlib_archive() -> Result<Archive, BuildError> {
    Ok(stdlib_libs()?[0].clone())
}

/// Generates a benchmark's user sources (library excluded).
pub fn sources(spec: &BenchSpec) -> Sources {
    generate(spec)
}

/// Compiles a benchmark in the given mode.
///
/// # Errors
///
/// Propagates generator-output compile errors (a generator bug if ever hit).
pub fn build(spec: &BenchSpec, mode: CompileMode) -> Result<BuiltBenchmark, BuildError> {
    build_sources(spec.name, &sources(spec), mode)
}

/// Compiles mini-C user sources in the given mode: crt0 first, then one
/// object per source (compile-each) or one `{name}_all` unit (compile-all),
/// with the shared stdlib attached. Every harness build goes through here
/// except [`crate::scale::build_scale`]'s partitioned compile-all.
///
/// # Errors
///
/// Propagates compile errors in `sources`.
pub fn build_sources(
    name: &str,
    sources: &[(String, String)],
    mode: CompileMode,
) -> Result<BuiltBenchmark, BuildError> {
    let opts = CompileOpts::o2();
    let mut objects = vec![crt0::module()?];
    match mode {
        CompileMode::Each => {
            for (n, src) in sources {
                objects.push(compile_source(n, src, &opts)?);
            }
        }
        CompileMode::All => {
            let refs: Vec<(&str, &str)> =
                sources.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
            objects.push(compile_all_sources(&format!("{name}_all"), &refs, &opts)?);
        }
    }
    Ok(BuiltBenchmark { name: name.to_string(), mode, objects, libs: stdlib_libs()? })
}

/// Computes the benchmark's reference checksum with the mini-C interpreter
/// (the behavioral oracle, independent of the whole object-code pipeline).
///
/// # Errors
///
/// Returns a message on compile or runtime errors.
pub fn interp_reference(spec: &BenchSpec, steps: u64) -> Result<i64, String> {
    interp_sources(&sources(spec), steps)
}

/// Runs the mini-C interpreter over user `sources` plus the stdlib sources,
/// returning `main`'s result: the reference checksum every build of the
/// same sources must reproduce.
///
/// # Errors
///
/// Returns a message on compile or runtime errors (including the step
/// limit).
pub fn interp_sources(sources: &[(String, String)], steps: u64) -> Result<i64, String> {
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .chain(STDLIB_SOURCES.iter().copied())
        .collect();
    om_minic::interp::run_sources(&refs, steps)
}

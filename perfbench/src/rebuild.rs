//! The OM pipeline rebuilt from its public calls, one wall-clock timer per
//! call, so a traced run can say where a link's time goes without any span
//! inside the program.
//!
//! The chain follows `om_core`'s pipeline for OM-full-sched without a
//! profile: select → symbol table → translate → resolve → initial snapshot
//! → OM-full → resched → emit → post-emit layout → link → verify. Its image
//! and statistics must equal `optimize_and_link_with`'s. When they stop
//! matching, or `core.unattributed_s` grows after a pipeline change, this
//! chain has drifted from the pipeline.

use om_core::analysis::{call_sites, literal_loads, CallKind, Snapshot};
use om_core::sym::{emit_all, resolve_symbolic, translate_module};
use om_core::verify::{verify_linked, verify_stats, verify_sym};
use om_core::{full, resched, CallBook, OmError, OmOptions, OmStats, SymProgram};
use om_linker::{
    build_symbol_table, layout, link_modules, select_modules, Image, LayoutOpts, ProgramLayout,
    SymbolTable,
};
use om_objfile::{Archive, Module};
use std::time::Instant;

/// Seconds spent in each public call of a rebuilt link (summed when several
/// links are rebuilt).
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub select: f64,
    /// The symbol table over the selected input modules.
    pub symtab: f64,
    pub translate: f64,
    pub resolve: f64,
    /// The initial `Snapshot::capture`; OM-full captures one more per
    /// round, inside `full`.
    pub snapshot: f64,
    pub full: f64,
    pub resched: f64,
    pub emit: f64,
    /// Both post-emit layouts (symbol table plus `layout`): the one that
    /// counts the surviving GAT slots and the one the verifier checks.
    pub layout: f64,
    /// `link_modules` on the emitted modules.
    pub link: f64,
    pub verify: f64,
    /// GAT-reduction rounds OM-full ran (its `pipeline.full_rounds` counter).
    pub full_rounds: u64,
}

impl Layers {
    /// The sum of the timed calls.
    pub fn timed_sum(&self) -> f64 {
        self.select
            + self.symtab
            + self.translate
            + self.resolve
            + self.snapshot
            + self.full
            + self.resched
            + self.emit
            + self.layout
            + self.link
            + self.verify
    }

    pub fn add(&mut self, o: &Layers) {
        self.select += o.select;
        self.symtab += o.symtab;
        self.translate += o.translate;
        self.resolve += o.resolve;
        self.snapshot += o.snapshot;
        self.full += o.full;
        self.resched += o.resched;
        self.emit += o.emit;
        self.layout += o.layout;
        self.link += o.link;
        self.verify += o.verify;
        self.full_rounds += o.full_rounds;
    }
}

fn time_into<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed().as_secs_f64();
    v
}

/// Rebuilds one OM-full-sched link of `objects` against `libs`, returning
/// its image, its statistics and the time of each call.
///
/// # Errors
///
/// Any pipeline error, or a verification failure.
pub fn rebuild(
    objects: &[Module],
    libs: &[Archive],
    options: &OmOptions,
) -> Result<(Image, OmStats, Layers), OmError> {
    let mut l = Layers::default();
    let modules = time_into(&mut l.select, || select_modules(objects, libs))?;
    let symtab = time_into(&mut l.symtab, || build_symbol_table(&modules))?;
    let locals = time_into(&mut l.translate, || {
        modules
            .iter()
            .map(translate_module)
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut program = time_into(&mut l.resolve, || resolve_symbolic(&locals, &symtab));
    drop(locals);

    let mut stats = OmStats::default();
    let mut book = CallBook::new();
    let snap = time_into(&mut l.snapshot, || Snapshot::capture(&program))?;
    count_before(&program, &snap, &mut stats, &mut book);
    drop(snap);

    let trace = om_obs::Trace::new();
    {
        let _on = trace.install();
        time_into(&mut l.full, || {
            full::run_with(&mut program, &mut stats, &mut book, options)
        })?;
    }
    l.full_rounds = trace
        .counters()
        .get("pipeline.full_rounds")
        .copied()
        .unwrap_or(0);
    time_into(&mut l.resched, || {
        resched::run_with(
            &mut program,
            &mut stats,
            options.align_backward_targets,
            None,
        )
    });
    stats.calls_pv_after = book.values().filter(|&&(pv, _)| pv).count();
    stats.calls_gp_reset_after = book.values().filter(|&&(_, reset)| reset).count();

    let emitted = time_into(&mut l.emit, || emit_all(&program))?;
    let opts = LayoutOpts {
        sort_commons: options.sort_commons,
    };
    stats.gat_slots_after = time_into(&mut l.layout, || post_emit_layout(&emitted, &opts))?
        .1
        .gat_slots;
    let (image, _) = time_into(&mut l.link, || link_modules(&emitted, &[], &opts))?;
    let (symtab, lay) = time_into(&mut l.layout, || post_emit_layout(&emitted, &opts))?;
    let report = time_into(&mut l.verify, || {
        let mut r = verify_sym(&program);
        r.merge(verify_stats(&program, &stats));
        r.merge(verify_linked(&emitted, &symtab, &lay, &image));
        r
    });
    if !report.is_ok() {
        return Err(OmError::Verify {
            checks: report.checks,
            violations: report.violations,
        });
    }
    Ok((image, stats, l))
}

fn post_emit_layout(
    emitted: &[Module],
    opts: &LayoutOpts,
) -> Result<(SymbolTable, ProgramLayout), OmError> {
    let symtab = build_symbol_table(emitted)?;
    let lay = layout(emitted, &symtab, opts)?;
    Ok((symtab, lay))
}

/// The pre-transformation counts and call book, taken as the pipeline
/// takes them before OM-full runs.
fn count_before(program: &SymProgram, snap: &Snapshot, stats: &mut OmStats, book: &mut CallBook) {
    stats.insts_before = program.inst_count();
    stats.gat_slots_before = snap.gat_slots();
    for (mi, m) in program.modules.iter().enumerate() {
        for (pi, p) in m.procs.iter().enumerate() {
            stats.addr_loads_total += literal_loads(p).len();
            for s in call_sites(p) {
                let pv = !matches!(s.kind, CallKind::Bsr { .. });
                let reset = s.gp_reset.is_some();
                stats.calls_total += 1;
                stats.calls_indirect += usize::from(s.kind == CallKind::Indirect);
                stats.calls_pv_before += usize::from(pv);
                stats.calls_gp_reset_before += usize::from(reset);
                book.insert((mi, pi, p.insts[s.at].id), (pv, reset));
            }
        }
    }
}

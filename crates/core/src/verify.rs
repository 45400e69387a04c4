//! Whole-program verification of OM's output.
//!
//! OM rewrites, deletes, and reorders instructions after the compiler is
//! done, so a single wrong displacement silently corrupts a binary. This
//! module proves structural invariants on both the symbolic program (after
//! transformation, before emission) and the final linked [`Image`] (after
//! relocation): every branch lands on an instruction boundary inside
//! `.text`, every `Literal` reloc names a live GAT slot within 16-bit GP
//! reach and the patched displacement agrees, GPDISP pairs decode to a
//! matching LDAH/LDA register pair whose halves sum to `GP - anchor`,
//! LITUSE hints point at real uses of the loaded register, segments do not
//! overlap, and the transformation statistics balance (kept + deleted ==
//! original + inserted).
//!
//! Run it with `om --verify`, [`OmOptions::verify`], or directly via
//! [`verify_sym`] / [`verify_stats`] / [`verify_linked`].
//!
//! [`OmOptions::verify`]: crate::pipeline::OmOptions

use crate::stats::OmStats;
use crate::sym::{InstId, SMark, SymProgram};
use om_alpha::{decode, BrOp, Effects, Inst, JmpOp, MemOp, PalOp, Reg};
use om_linker::{sym_addr, GlobalRef, Image, ProgramLayout, SymbolTable};
use om_objfile::{Module, RelocKind, SecId, SymId, SymbolDef, DATA_BASE};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Outcome of a verification pass: how many individual invariants were
/// checked and which ones failed.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Individual invariant checks performed.
    pub checks: usize,
    /// Human-readable description of every violated invariant.
    pub violations: Vec<String>,
}

impl VerifyReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(msg());
        }
    }

    fn fail(&mut self, msg: String) {
        self.checks += 1;
        self.violations.push(msg);
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} checks, {} violations", self.checks, self.violations.len())?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Checks the symbolic program's internal consistency after transformation:
/// no dangling instruction ids, LITUSE links pointing at surviving `Literal`
/// loads, GPDISP halves paired with each other, and marks agreeing with the
/// instructions they annotate.
pub fn verify_sym(program: &SymProgram) -> VerifyReport {
    let mut r = VerifyReport::default();
    // Each instruction id's index in the procedure at hand (the last, when
    // an id repeats), reused across procedures.
    let mut pos: Vec<u32> = Vec::new();
    for m in &program.modules {
        for p in &m.procs {
            let loc = |what: String| format!("{}/{}: {what}", m.source.name, m.proc_name(p));
            pos.clear();
            pos.resize(p.id_limit(), NO_POS);
            let mut distinct = 0;
            for (k, s) in p.insts.iter().enumerate() {
                let id = s.id as usize;
                if id >= pos.len() {
                    pos.resize(id + 1, NO_POS);
                }
                distinct += usize::from(pos[id] == NO_POS);
                pos[id] = k as u32;
            }
            let ids = Positions(&pos);
            r.check(distinct == p.insts.len(), || loc("duplicate instruction ids".into()));
            r.check(
                p.insts.last().is_some_and(|i| i.inst.is_control()),
                || loc("procedure does not end in a control instruction".into()),
            );
            for s in &p.insts {
                let at = |what: &str| loc(format!("inst {}: {what}", s.id));
                match &s.mark {
                    SMark::None => {}
                    SMark::Literal { .. } => r.check(
                        matches!(s.inst, Inst::Mem { op: MemOp::Ldq, rb: Reg::GP, .. }),
                        || at("Literal mark on a non-`ldq rx, d(gp)` instruction"),
                    ),
                    SMark::LituseBase { load } => {
                        r.check(matches!(s.inst, Inst::Mem { .. }), || {
                            at("LituseBase on a non-memory instruction")
                        });
                        check_lituse_load(&mut r, p, ids, *load, &at);
                    }
                    SMark::LituseJsr { load } => {
                        r.check(matches!(s.inst, Inst::Jmp { .. }), || {
                            at("LituseJsr on a non-jump instruction")
                        });
                        check_lituse_load(&mut r, p, ids, *load, &at);
                    }
                    SMark::LituseAddr { load } => check_lituse_load(&mut r, p, ids, *load, &at),
                    SMark::GpdispEntry { lo } | SMark::GpdispAfterCall { lo, .. } => {
                        r.check(
                            matches!(s.inst, Inst::Mem { op: MemOp::Ldah, .. }),
                            || at("GpdispHi on a non-LDAH instruction"),
                        );
                        match ids.get(*lo) {
                            Some(li) => r.check(
                                matches!(p.insts[li].mark, SMark::GpdispLo { hi } if hi == s.id),
                                || at("GPDISP low half does not point back at this high half"),
                            ),
                            None => r.fail(at("dangling GPDISP low-half id")),
                        }
                        if let SMark::GpdispAfterCall { call, .. } = s.mark {
                            r.check(ids.get(call).is_some(), || {
                                at("GPDISP anchored after a deleted call")
                            });
                        }
                    }
                    SMark::GpdispLo { hi } => {
                        r.check(
                            matches!(s.inst, Inst::Mem { op: MemOp::Lda, .. }),
                            || at("GpdispLo on a non-LDA instruction"),
                        );
                        match ids.get(*hi) {
                            Some(hi_i) => r.check(
                                p.insts[hi_i].mark.gpdisp_lo() == Some(s.id),
                                || at("GPDISP high half does not point back at this low half"),
                            ),
                            None => r.fail(at("dangling GPDISP high-half id")),
                        }
                    }
                    SMark::BrSym { .. } => r.check(matches!(s.inst, Inst::Br { .. }), || {
                        at("BrSym mark on a non-branch instruction")
                    }),
                    SMark::BrLocal { target } => {
                        r.check(matches!(s.inst, Inst::Br { .. }), || {
                            at("BrLocal mark on a non-branch instruction")
                        });
                        r.check(ids.get(*target).is_some(), || at("dangling local branch target"));
                    }
                    SMark::Gprel { .. } => r.check(
                        matches!(s.inst, Inst::Mem { rb: Reg::GP, .. }),
                        || at("Gprel mark on an instruction not based on GP"),
                    ),
                    SMark::GprelHi { .. } => r.check(
                        matches!(s.inst, Inst::Mem { op: MemOp::Ldah, rb: Reg::GP, .. }),
                        || at("GprelHi mark on a non-`ldah rx, d(gp)` instruction"),
                    ),
                    SMark::GprelLo { .. } => r.check(matches!(s.inst, Inst::Mem { .. }), || {
                        at("GprelLo mark on a non-memory instruction")
                    }),
                }
            }
        }
    }
    r
}

/// Marks an instruction id a procedure does not hold.
const NO_POS: u32 = u32::MAX;

/// A procedure's instruction index by id ([`NO_POS`] where it holds none).
#[derive(Clone, Copy)]
struct Positions<'a>(&'a [u32]);

impl Positions<'_> {
    fn get(self, id: InstId) -> Option<usize> {
        self.0.get(id as usize).filter(|&&k| k != NO_POS).map(|&k| k as usize)
    }
}

fn check_lituse_load(
    r: &mut VerifyReport,
    p: &crate::sym::SymProc,
    ids: Positions,
    load: u32,
    at: &dyn Fn(&str) -> String,
) {
    match ids.get(load) {
        Some(li) => r.check(
            matches!(p.insts[li].mark, SMark::Literal { .. }),
            || at("LITUSE link points at an instruction that is not an address load"),
        ),
        None => r.fail(at("LITUSE link points at a deleted instruction")),
    }
}

/// Checks that the transformation statistics balance against the surviving
/// program: `kept == original + inserted - deleted`, and every instruction
/// counted as nullified (plus every inserted UNOP) is actually present as a
/// no-op.
pub fn verify_stats(program: &SymProgram, stats: &OmStats) -> VerifyReport {
    let mut r = VerifyReport::default();
    let kept = program.inst_count() as i64;
    let expected =
        stats.insts_before as i64 + stats.unops_inserted as i64 - stats.insts_deleted as i64;
    r.check(kept == expected, || {
        format!(
            "instruction accounting does not balance: {} kept != {} before + {} inserted - {} deleted",
            kept, stats.insts_before, stats.unops_inserted, stats.insts_deleted
        )
    });
    let nops = program
        .modules
        .iter()
        .flat_map(|m| m.procs.iter())
        .flat_map(|p| p.insts.iter())
        .filter(|s| s.inst.is_nop())
        .count();
    r.check(nops >= stats.insts_nullified + stats.unops_inserted, || {
        format!(
            "{} no-ops in the program cannot cover {} nullified + {} inserted",
            nops, stats.insts_nullified, stats.unops_inserted
        )
    });
    r
}

/// Checks the final linked image against the modules and layout that
/// produced it: segment geometry, instruction decodability, branch targets,
/// and — for every relocation — that the patched bits in the image agree
/// with an independent recomputation from the layout.
pub fn verify_linked(
    modules: &[Module],
    symtab: &SymbolTable,
    layout: &ProgramLayout,
    image: &Image,
) -> VerifyReport {
    let mut r = VerifyReport::default();
    // Every symbol's address, recomputed from the layout and the symbol
    // table by the linker's one rule.
    let addr = |mi: usize, sym| sym_addr(modules, symtab, layout, mi, sym);

    // Segment geometry: ascending, non-overlapping.
    for w in image.segments.windows(2) {
        r.check(w[0].end() <= w[1].base, || {
            format!(
                "segments overlap: [{:#x}, {:#x}) and [{:#x}, {:#x})",
                w[0].base,
                w[0].end(),
                w[1].base,
                w[1].end()
            )
        });
    }

    let t = layout.info.text;
    r.check(t.size % 4 == 0, || format!("text size {:#x} not a multiple of 4", t.size));
    r.check(
        image.entry >= t.base && image.entry < t.base + t.size && image.entry % 4 == 0,
        || format!("entry {:#x} outside .text or misaligned", image.entry),
    );

    // Decode the entire text segment once.
    let Some(text_seg) = image.segments.iter().find(|s| s.contains(t.base)) else {
        r.fail("no segment maps the text base".into());
        return r;
    };
    // Words between module texts are alignment padding and must be zero;
    // every covered word must decode.
    let mut covered = vec![false; (t.size / 4) as usize];
    for (mi, m) in modules.iter().enumerate() {
        let start = (layout.bases[mi].text - t.base) / 4;
        for w in start..start + (m.text.len() as u64 / 4) {
            if let Some(c) = covered.get_mut(w as usize) {
                *c = true;
            }
        }
    }
    let mut insts: Vec<Option<Inst>> = Vec::with_capacity((t.size / 4) as usize);
    for off in (0..t.size as usize).step_by(4) {
        let word = u32::from_le_bytes(text_seg.bytes[off..off + 4].try_into().unwrap());
        if !covered[off / 4] {
            r.check(word == 0, || {
                format!("nonzero padding word {word:#010x} at {:#x}", t.base + off as u64)
            });
            insts.push(None);
            continue;
        }
        match decode(word) {
            Ok(i) => insts.push(Some(i)),
            Err(e) => {
                insts.push(None);
                r.fail(format!("undecodable word {word:#010x} at {:#x}: {e}", t.base + off as u64));
            }
        }
    }
    r.checks += insts.len();

    // Every branch in the image lands on an instruction boundary in .text.
    for (idx, inst) in insts.iter().enumerate() {
        if let Some(Inst::Br { disp, .. }) = inst {
            let target = t.base as i64 + idx as i64 * 4 + 4 + *disp as i64 * 4;
            r.check(
                target >= t.base as i64 && target < (t.base + t.size) as i64,
                || {
                    format!(
                        "branch at {:#x} targets {target:#x}, outside .text",
                        t.base + idx as u64 * 4
                    )
                },
            );
        }
    }

    let data_seg = image.segments.iter().find(|s| s.contains(DATA_BASE));
    let read_u64 = |addr: u64| -> Option<u64> {
        let s = data_seg?;
        if !s.contains(addr) || !s.contains(addr + 7) {
            return None;
        }
        let off = (addr - s.base) as usize;
        Some(u64::from_le_bytes(s.bytes[off..off + 8].try_into().unwrap()))
    };
    let inst_at = |text_off: u64| -> Option<&Inst> {
        insts.get((text_off / 4) as usize).and_then(|i| i.as_ref())
    };

    for (mi, m) in modules.iter().enumerate() {
        let b = &layout.bases[mi];
        let gp = layout.gp_values[layout.group_of_module[mi] as usize] as i64;
        let from_gp = |a: u64, addend: i64| (a as i64).wrapping_add(addend).wrapping_sub(gp);
        let m0 = b.text - t.base; // module text offset within the segment
        r.check(b.text >= t.base && b.text + m.text.len() as u64 <= t.base + t.size, || {
            format!("module `{}` text outside the .text extent", m.name)
        });
        let lit_offsets: HashSet<u64> = m
            .relocs
            .iter()
            .filter(|r| r.sec == SecId::Text && matches!(r.kind, RelocKind::Literal { .. }))
            .map(|r| r.offset)
            .collect();

        for rel in &m.relocs {
            let at = |what: String| format!("{}+{:#x}: {what}", m.name, rel.offset);
            if rel.sec == SecId::Text {
                r.check(rel.offset + 4 <= m.text.len() as u64, || {
                    at("relocation outside module text".into())
                });
                if rel.offset + 4 > m.text.len() as u64 {
                    continue;
                }
            }
            match (rel.sec, &rel.kind) {
                (SecId::Text, RelocKind::Literal { lita }) => {
                    let li = *lita as usize;
                    if li >= m.lita.len() {
                        r.fail(at(format!("Literal reloc names dead GAT slot {li}")));
                        continue;
                    }
                    let slot = layout.lita_addr[mi][li];
                    let lx = layout.info.lita;
                    r.check(slot >= lx.base && slot + 8 <= lx.base + lx.size, || {
                        at(format!("GAT slot address {slot:#x} outside .lita"))
                    });
                    r.check((slot.wrapping_sub(lx.base)) % 8 == 0, || {
                        at(format!("GAT slot address {slot:#x} not 8-aligned"))
                    });
                    let disp = (slot as i64).wrapping_sub(gp);
                    r.check(i16::try_from(disp).is_ok(), || {
                        at(format!("GAT slot {disp} bytes from GP, outside 16-bit reach"))
                    });
                    match inst_at(m0 + rel.offset) {
                        Some(&Inst::Mem { op: MemOp::Ldq, rb, disp: d, .. }) => {
                            r.check(rb == Reg::GP, || at("address load not based on GP".into()));
                            r.check(d as i64 == disp, || {
                                at(format!("address load patched to {d}, expected {disp}"))
                            });
                        }
                        other => r.fail(at(format!("Literal reloc on {other:?}, expected ldq"))),
                    }
                    let e = &m.lita[li];
                    match addr(mi, e.sym) {
                        Ok(a) => {
                            let want = a.wrapping_add_signed(e.addend);
                            r.check(read_u64(slot) == Some(want), || {
                                at(format!("GAT slot {slot:#x} does not hold {want:#x}"))
                            });
                        }
                        Err(e) => r.fail(at(format!("GAT slot symbol unresolvable: {e}"))),
                    }
                }
                (
                    SecId::Text,
                    RelocKind::LituseBase { load_offset }
                    | RelocKind::LituseJsr { load_offset }
                    | RelocKind::LituseAddr { load_offset },
                ) => {
                    r.check(lit_offsets.contains(load_offset), || {
                        at(format!("LITUSE names {load_offset:#x}, not an address load"))
                    });
                    if rel.offset == *load_offset {
                        // A self-referential LITUSE_ADDR marks an escaping
                        // address load (the value leaks into unrewritable
                        // dataflow); there is no separate use to check.
                        continue;
                    }
                    let load_ra = match inst_at(m0 + load_offset) {
                        Some(&Inst::Mem { op: MemOp::Ldq, ra, .. }) => ra,
                        _ => continue, // already reported by the check above
                    };
                    let Some(use_inst) = inst_at(m0 + rel.offset) else {
                        continue; // undecodable word already reported
                    };
                    let ok = match rel.kind {
                        RelocKind::LituseBase { .. } => {
                            matches!(use_inst, Inst::Mem { rb, .. } if *rb == load_ra)
                        }
                        RelocKind::LituseJsr { .. } => {
                            matches!(use_inst, Inst::Jmp { rb, .. } if *rb == load_ra)
                        }
                        _ => Effects::of(use_inst).reads_int(load_ra),
                    };
                    r.check(ok, || {
                        at(format!("LITUSE hint does not use the loaded register {load_ra:?}"))
                    });
                }
                (SecId::Text, RelocKind::Gpdisp { pair_offset, anchor, .. }) => {
                    let lo_off = rel.offset as i64 + pair_offset;
                    if lo_off < 0 || lo_off as u64 + 4 > m.text.len() as u64 {
                        r.fail(at(format!("GPDISP low half at {lo_off:#x} outside module text")));
                        continue;
                    }
                    let hi = inst_at(m0 + rel.offset);
                    let lo = inst_at(m0 + lo_off as u64);
                    match (hi, lo) {
                        (
                            Some(&Inst::Mem { op: MemOp::Ldah, ra: hra, disp: hd, .. }),
                            Some(&Inst::Mem { op: MemOp::Lda, ra: lra, rb: lrb, disp: ld }),
                        ) => {
                            r.check(hra == lra && lrb == hra, || {
                                at(format!(
                                    "GPDISP pair registers disagree: ldah {hra:?} / lda {lra:?}({lrb:?})"
                                ))
                            });
                            r.check(*anchor < m.text.len() as u64 && anchor % 4 == 0, || {
                                at(format!("GPDISP anchor {anchor:#x} outside module text"))
                            });
                            let got = ((hd as i64) << 16) + ld as i64;
                            let want = gp - (b.text + anchor) as i64;
                            r.check(got == want, || {
                                at(format!("GPDISP pair sums to {got}, expected {want}"))
                            });
                        }
                        other => r.fail(at(format!(
                            "GPDISP pair is {other:?}, expected ldah/lda"
                        ))),
                    }
                }
                (SecId::Text, RelocKind::BrAddr { sym, addend }) => {
                    let a = match addr(mi, *sym) {
                        Ok(a) => a,
                        Err(e) => {
                            r.fail(at(format!("branch target unresolvable: {e}")));
                            continue;
                        }
                    };
                    let target = (a as i64).wrapping_add(*addend);
                    let pc = (b.text + rel.offset) as i64;
                    let delta = target.wrapping_sub(pc + 4);
                    r.check(delta % 4 == 0, || {
                        at(format!("branch target {target:#x} not instruction-aligned"))
                    });
                    r.check((-(1 << 20)..(1 << 20)).contains(&(delta / 4)), || {
                        at(format!("branch displacement {} words out of range", delta / 4))
                    });
                    r.check(
                        target >= t.base as i64 && target < (t.base + t.size) as i64,
                        || at(format!("branch target {target:#x} outside .text")),
                    );
                    match inst_at(m0 + rel.offset) {
                        Some(&Inst::Br { disp, .. }) => r.check(
                            delta % 4 == 0 && disp as i64 == delta / 4,
                            || at(format!("branch patched to {disp}, expected {}", delta / 4)),
                        ),
                        other => r.fail(at(format!("BrAddr reloc on {other:?}, expected branch"))),
                    }
                }
                (SecId::Text, RelocKind::Gprel16 { sym, addend, .. }) => {
                    match addr(mi, *sym) {
                        Ok(a) => {
                            let disp = from_gp(a, *addend);
                            r.check(i16::try_from(disp).is_ok(), || {
                                at(format!("gprel16 target {disp} bytes from GP"))
                            });
                            match inst_at(m0 + rel.offset) {
                                Some(&Inst::Mem { rb, disp: d, .. }) => {
                                    r.check(rb == Reg::GP, || {
                                        at("gprel16 use not based on GP".into())
                                    });
                                    r.check(d as i64 == disp, || {
                                        at(format!("gprel16 patched to {d}, expected {disp}"))
                                    });
                                }
                                other => {
                                    r.fail(at(format!("Gprel16 reloc on {other:?}, expected memory op")))
                                }
                            }
                        }
                        Err(e) => r.fail(at(format!("gprel16 target unresolvable: {e}"))),
                    }
                }
                (SecId::Text, RelocKind::GprelHigh { sym, addend, .. }) => {
                    match addr(mi, *sym) {
                        Ok(a) => {
                            let x = from_gp(a, *addend);
                            let hi = x.wrapping_sub((x as i16) as i64) >> 16;
                            r.check(i16::try_from(hi).is_ok(), || {
                                at(format!("gprelhigh target {x} bytes from GP, outside ±2GB"))
                            });
                            match inst_at(m0 + rel.offset) {
                                Some(&Inst::Mem { op: MemOp::Ldah, rb, disp: d, .. }) => {
                                    r.check(rb == Reg::GP, || {
                                        at("gprelhigh not based on GP".into())
                                    });
                                    r.check(d as i64 == hi, || {
                                        at(format!("gprelhigh patched to {d}, expected {hi}"))
                                    });
                                }
                                other => {
                                    r.fail(at(format!("GprelHigh reloc on {other:?}, expected ldah")))
                                }
                            }
                        }
                        Err(e) => r.fail(at(format!("gprelhigh target unresolvable: {e}"))),
                    }
                }
                (SecId::Text, RelocKind::GprelLow { sym, addend, hi_addend, .. }) => {
                    match addr(mi, *sym) {
                        Ok(a) => {
                            let xh = from_gp(a, *hi_addend);
                            let hi = xh.wrapping_sub((xh as i16) as i64) >> 16;
                            let disp = from_gp(a, *addend).wrapping_sub(hi << 16);
                            r.check(i16::try_from(disp).is_ok(), || {
                                at(format!("gprellow residual {disp} does not fit 16 bits"))
                            });
                            match inst_at(m0 + rel.offset) {
                                Some(&Inst::Mem { disp: d, .. }) => r.check(d as i64 == disp, || {
                                    at(format!("gprellow patched to {d}, expected {disp}"))
                                }),
                                other => {
                                    r.fail(at(format!("GprelLow reloc on {other:?}, expected memory op")))
                                }
                            }
                        }
                        Err(e) => r.fail(at(format!("gprellow target unresolvable: {e}"))),
                    }
                }
                (sec @ (SecId::Data | SecId::Sdata), RelocKind::RefQuad { sym, addend }) => {
                    let base = if sec == SecId::Data { b.data } else { b.sdata };
                    match addr(mi, *sym) {
                        Ok(a) => {
                            let want = a.wrapping_add_signed(*addend);
                            r.check(read_u64(base + rel.offset) == Some(want), || {
                                at(format!(
                                    "{sec} quad at {:#x} does not hold {want:#x}",
                                    base + rel.offset
                                ))
                            });
                        }
                        Err(e) => r.fail(at(format!("refquad target unresolvable: {e}"))),
                    }
                }
                (sec, kind) => r.fail(at(format!("unexpected relocation {kind:?} in {sec}"))),
            }
        }
    }
    if layout.gp_values.len() > 1 {
        check_gp_groups(&mut r, modules, symtab, layout, &insts);
    }
    r
}

/// Checks that every call keeps its caller's GP across a GP-group boundary,
/// from the emitted modules and the final layout alone. A call into another
/// group (or to a callee it cannot name) lands in code that sets GP for the
/// callee's group, so the caller must rebuild its own GP after the call: an
/// after-call GPDISP pair anchored at the return point, unless the call
/// returns to a HALT. A BSR into another group must also enter at `entry+0`
/// a callee that still derives its GP from its entry (a GPDISP pair anchored
/// there). An earlier OM round that judged two modules one group cannot
/// have removed either when the final layout splits them.
fn check_gp_groups(
    r: &mut VerifyReport,
    modules: &[Module],
    symtab: &SymbolTable,
    layout: &ProgramLayout,
    insts: &[Option<Inst>],
) {
    let inst_at = |text_off: u64| insts.get((text_off / 4) as usize).and_then(|i| i.as_ref());
    // Per module: the anchors of its GPDISP pairs (an entry pair's is its
    // procedure's start, an after-call pair's its call's return point), the
    // load each LITUSE_JSR names, and the `.lita` slot each load reads.
    fn text(m: &Module) -> impl Iterator<Item = &om_objfile::Reloc> {
        m.relocs.iter().filter(|rel| rel.sec == SecId::Text)
    }
    let anchors: Vec<HashSet<u64>> = (modules.iter())
        .map(|m| {
            text(m)
                .filter_map(|rel| match rel.kind {
                    RelocKind::Gpdisp { anchor, .. } => Some(anchor),
                    _ => None,
                })
                .collect()
        })
        .collect();
    // The module and text offset of the procedure symbol `sym` of module
    // `mi` names, if it names a defined procedure.
    let callee = |mi: usize, sym: SymId| -> Option<(usize, u64)> {
        let GlobalRef::Def { module: dm, sym: did } = symtab.target(mi, sym) else { return None };
        match modules[dm].symbol(did).def {
            SymbolDef::Proc { offset, .. } => Some((dm, offset)),
            _ => None,
        }
    };
    for (mi, m) in modules.iter().enumerate() {
        let group = layout.group_of_module[mi];
        let m0 = layout.bases[mi].text - layout.info.text.base;
        let jsr_loads: HashMap<u64, u64> = text(m)
            .filter_map(|rel| match rel.kind {
                RelocKind::LituseJsr { load_offset } => Some((rel.offset, load_offset)),
                _ => None,
            })
            .collect();
        let lits: HashMap<u64, usize> = text(m)
            .filter_map(|rel| match rel.kind {
                RelocKind::Literal { lita } => Some((rel.offset, lita as usize)),
                _ => None,
            })
            .collect();
        let returns_safely = |call: u64| {
            anchors[mi].contains(&(call + 4))
                || matches!(inst_at(m0 + call + 4), Some(Inst::Pal { op: PalOp::Halt }))
        };
        for rel in text(m) {
            let RelocKind::BrAddr { sym, addend } = rel.kind else { continue };
            if !matches!(inst_at(m0 + rel.offset), Some(Inst::Br { op: BrOp::Bsr, .. })) {
                continue;
            }
            let Some((dm, entry)) = callee(mi, sym) else { continue };
            let into = layout.group_of_module[dm];
            if into == group {
                continue;
            }
            let at =
                format!("{}+{:#x}: BSR from GP group {group} into group {into}", m.name, rel.offset);
            r.check(addend == 0 && anchors[dm].contains(&entry), || {
                let name = &m.symbols[sym.0 as usize].name;
                format!("{at} enters `{name}`+{addend}, not an entry that sets GP")
            });
            r.check(returns_safely(rel.offset), || format!("{at} has no after-call GPDISP"));
        }
        for call in (0..m.text.len() as u64).step_by(4) {
            if !matches!(inst_at(m0 + call), Some(Inst::Jmp { op: JmpOp::Jsr, .. })) {
                continue;
            }
            let named = (jsr_loads.get(&call))
                .and_then(|load| lits.get(load))
                .and_then(|&slot| m.lita.get(slot))
                .and_then(|e| callee(mi, e.sym));
            if named.is_some_and(|(dm, _)| layout.group_of_module[dm] == group) {
                continue;
            }
            r.check(returns_safely(call), || {
                format!(
                    "{}+{call:#x}: JSR from GP group {group} to {} has no after-call GPDISP",
                    m.name,
                    if named.is_some() { "another group" } else { "an unknown callee" }
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{optimize_and_link_with, OmLevel, OmOptions};
    use om_workloads::{build::build, spec};

    fn verified_options() -> OmOptions {
        OmOptions { verify: true, ..OmOptions::default() }
    }

    #[test]
    fn clean_pipeline_passes_and_reports_checks() {
        let spec = spec::quick(&spec::by_name("espresso").unwrap());
        let b = build(&spec, om_workloads::CompileMode::Each).unwrap();
        for level in OmLevel::ALL {
            let out =
                optimize_and_link_with(&b.objects, &b.libs, level, &verified_options()).unwrap();
            let report = out.verify.expect("verify requested");
            assert!(report.is_ok(), "{level:?}: {report}");
            assert!(report.checks > 100, "{level:?}: only {} checks ran", report.checks);
        }
    }

    #[test]
    fn corrupted_branch_is_caught() {
        // Drive the link manually so the final modules and layout are in
        // hand, then corrupt one branch in the image: the verifier must
        // notice the disagreement.
        let spec = spec::quick(&spec::by_name("compress").unwrap());
        let b = build(&spec, om_workloads::CompileMode::Each).unwrap();
        let modules = om_linker::select_modules(&b.objects, &b.libs).unwrap();
        let symtab = om_linker::build_symbol_table(&modules).unwrap();
        let program = crate::sym::translate(&modules, &symtab).unwrap();
        let final_modules = crate::sym::emit_all(&program).unwrap();
        let symtab = om_linker::build_symbol_table(&final_modules).unwrap();
        let layout = om_linker::layout(
            &final_modules,
            &symtab,
            &om_linker::LayoutOpts::default(),
        )
        .unwrap();
        let mut image =
            om_linker::build_image(&final_modules, &symtab, &layout).unwrap();
        assert!(verify_linked(&final_modules, &symtab, &layout, &image).is_ok());

        // Point some branch 4MB backwards, far outside .text.
        let t = layout.info.text;
        let seg = image.segments.iter_mut().find(|s| s.base == t.base).unwrap();
        let mut patched = false;
        for off in (0..seg.bytes.len()).step_by(4) {
            let word = u32::from_le_bytes(seg.bytes[off..off + 4].try_into().unwrap());
            if let Ok(Inst::Br { .. }) = decode(word) {
                let bad = (word & 0xFFE0_0000) | 0x0010_0000; // disp = -2^20 words
                seg.bytes[off..off + 4].copy_from_slice(&bad.to_le_bytes());
                patched = true;
                break;
            }
        }
        assert!(patched, "no branch found to corrupt");
        let report = verify_linked(&final_modules, &symtab, &layout, &image);
        assert!(!report.is_ok(), "corruption went unnoticed");
        assert!(
            report.violations.iter().any(|v| v.contains("outside .text")
                || v.contains("expected")),
            "unexpected violations: {report}"
        );
    }

    #[test]
    fn symbolic_corruptions_are_caught_without_changing_the_check_count() {
        let spec = spec::quick(&spec::by_name("compress").unwrap());
        let b = build(&spec, om_workloads::CompileMode::Each).unwrap();
        let modules = om_linker::select_modules(&b.objects, &b.libs).unwrap();
        let symtab = om_linker::build_symbol_table(&modules).unwrap();
        let mut program = crate::sym::translate(&modules, &symtab).unwrap();
        let clean = verify_sym(&program);
        assert!(clean.is_ok(), "{clean}");

        // An after-call GP reset whose call loses its id, and a repeated id
        // in the same procedure.
        let p = (program.modules.iter_mut().flat_map(|m| &mut m.procs))
            .find(|p| p.insts.iter().any(|i| matches!(i.mark, SMark::GpdispAfterCall { .. })))
            .expect("a procedure with an after-call GP reset");
        let call = p.insts.iter().find_map(|i| match i.mark {
            SMark::GpdispAfterCall { call, .. } => Some(call),
            _ => None,
        });
        let fresh = p.fresh_id();
        let k = p.insts.iter().position(|i| Some(i.id) == call).unwrap();
        p.insts[k].id = fresh;
        let last = p.insts.len() - 1;
        p.insts[last].id = p.insts[last - 1].id;

        let r = verify_sym(&program);
        assert_eq!(r.checks, clean.checks, "{r}");
        assert!(r.violations[0].ends_with("duplicate instruction ids"), "{r}");
        assert!(r.violations.iter().any(|v| v.ends_with("GPDISP anchored after a deleted call")));
    }

    #[test]
    fn an_unresolved_reference_reports_the_same_error_in_the_image_and_the_verifier() {
        use om_alpha::Reg;
        use om_linker::{build_image, build_symbol_table, layout, link_modules, LayoutOpts};
        use om_objfile::{Module, ModuleBuilder, Symbol, Visibility};
        // `m` loads the address of its symbol `g`; `d` defines `g`.
        let m = |g: Symbol| {
            let mut b = ModuleBuilder::new("m");
            let g = b.add_symbol(g);
            let lita = b.lita_slot(g, 0);
            b.emit_reloc(Inst::ldq(Reg::T0, 0, Reg::GP), RelocKind::Literal { lita });
            b.emit(Inst::ret());
            b.define_proc("__start", 0, 0, Visibility::Exported);
            b.finish().unwrap()
        };
        let mut d = ModuleBuilder::new("d");
        let off = d.append_data(SecId::Data, &[0; 8]);
        d.add_symbol(Symbol::data("g", SecId::Data, off, 8));
        let d = d.finish().unwrap();
        let linked = [m(Symbol::external("g")), d.clone()];
        let (image, _) = link_modules(&linked, &[], &LayoutOpts::default()).unwrap();
        // With `g` a local common, the table leaves the reference
        // unresolved: a local common takes the storage of the exported
        // common of its name, and there is none. The layout is the linked
        // one; the image builder and the verifier report the same error.
        let modules = [m(Symbol::common("g", 8, 8).local()), d];
        let symtab = build_symbol_table(&modules).unwrap();
        let lay = layout(&modules, &symtab, &LayoutOpts::default()).unwrap();
        let linked_symtab = build_symbol_table(&linked).unwrap();
        assert_eq!(lay, layout(&linked, &linked_symtab, &LayoutOpts::default()).unwrap());

        let undefined = "undefined symbol `g` (referenced by `m`)";
        let e = build_image(&modules, &symtab, &lay).unwrap_err();
        assert_eq!(e.to_string(), undefined);
        let report = verify_linked(&modules, &symtab, &lay, &image);
        let want = format!("m+0x0: GAT slot symbol unresolvable: {undefined}");
        assert_eq!(report.violations, [want]);
        // Without `d`, the table reports the extern `g` first, before a
        // later module's undefined `h`.
        let mut n = Module::new("n");
        n.symbols.push(Symbol::external("h"));
        let e = build_symbol_table(&[m(Symbol::external("g")), n]).unwrap_err();
        assert_eq!(e.to_string(), undefined);
    }

    #[test]
    fn stats_imbalance_is_caught() {
        let spec = spec::quick(&spec::by_name("compress").unwrap());
        let b = build(&spec, om_workloads::CompileMode::Each).unwrap();
        let modules = om_linker::select_modules(&b.objects, &b.libs).unwrap();
        let symtab = om_linker::build_symbol_table(&modules).unwrap();
        let program = crate::sym::translate(&modules, &symtab).unwrap();
        let mut stats = OmStats { insts_before: program.inst_count(), ..OmStats::default() };
        assert!(verify_stats(&program, &stats).is_ok());
        stats.insts_deleted = 1; // claim a deletion that never happened
        assert!(!verify_stats(&program, &stats).is_ok());
    }
}

//! 21064-class timing model: in-order dual issue with quadword fetch
//! alignment, result latencies, and direct-mapped I/D caches.
//!
//! This stands in for the paper's DECstation 3000 Model 400. The absolute
//! cycle counts are not meant to match 1994 hardware; the *relative* effects
//! OM exploits are modeled faithfully:
//!
//! * an instruction removed (or turned into a no-op that pairs into a free
//!   issue slot) saves issue bandwidth;
//! * a removed address load also removes a 3-cycle load-use latency and a
//!   potential D-cache miss on the GAT;
//! * two instructions dual-issue only from the same aligned quadword, which
//!   is why OM-full quadword-aligns backward-branch targets.

use crate::exec::{Observer, Retired};
use om_alpha::timing::{can_dual_issue, latency};
use om_alpha::{Effects, Inst, MemOp};

/// Direct-mapped cache model.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line tag per set (`u64::MAX` = invalid).
    tags: Vec<u64>,
    line_shift: u32,
    set_mask: u64,
    /// Miss penalty in cycles.
    pub penalty: u64,
    pub hits: u64,
    pub misses: u64,
}

/// The taken-branch fetch bubble both engines charge, in cycles.
pub(crate) const BRANCH_BUBBLE: u64 = 1;

/// The caches both engines model, I and D alike: DECstation 3000/400-ish
/// 8 KB direct-mapped caches with 32-byte lines and an 8-cycle
/// backing-cache miss.
impl Default for Cache {
    fn default() -> Cache {
        Cache::new(8 << 10, 32, 8)
    }
}

impl Cache {
    /// `size` and `line` in bytes (powers of two).
    pub fn new(size: u64, line: u64, penalty: u64) -> Cache {
        let sets = size / line;
        Cache {
            tags: vec![u64::MAX; sets as usize],
            line_shift: line.trailing_zeros(),
            set_mask: sets - 1,
            penalty,
            hits: 0,
            misses: 0,
        }
    }

    /// Line-address shift (log2 of the line size).
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Read-only probe: whether `addr` currently hits. No counter updates,
    /// no allocation — the block engine's fused fast path uses this to
    /// decide whether a whole block's accesses can be committed at once.
    pub(crate) fn peek(&self, addr: u64) -> bool {
        self.peek_line(addr >> self.line_shift)
    }

    /// Read-only probe by line number (`addr >> line_shift`).
    pub(crate) fn peek_line(&self, line: u64) -> bool {
        self.tags[(line & self.set_mask) as usize] == line
    }

    /// Accesses `addr`; returns the added stall cycles (0 on hit).
    pub fn access(&mut self, addr: u64, allocate: bool) -> u64 {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        if self.tags[set] == line {
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            if allocate {
                self.tags[set] = line;
            }
            self.penalty
        }
    }
}

/// Timing statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    pub cycles: u64,
    pub insts: u64,
    /// Instructions that issued in the same cycle as their predecessor.
    pub dual_issued: u64,
    pub icache_misses: u64,
    pub dcache_misses: u64,
    /// Retired no-ops (any spelling).
    pub nops: u64,
    /// Retired memory loads (excluding LDA/LDAH).
    pub loads: u64,
}

/// The cycle-accounting observer.
pub struct Pipeline {
    pub icache: Cache,
    pub dcache: Cache,
    /// Cycle at which each integer register's value is available.
    int_ready: [u64; 32],
    fp_ready: [u64; 32],
    cycle: u64,
    /// Last issued instruction (for pairing), with its pc.
    last: Option<(u64, Inst, u64)>, // (pc, inst, issue_cycle)
    stats: TimingStats,
}

/// The modelled machine: [`Cache::default`]'s caches and a one-cycle
/// taken-branch bubble.
impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            icache: Cache::default(),
            dcache: Cache::default(),
            int_ready: [0; 32],
            fp_ready: [0; 32],
            cycle: 0,
            last: None,
            stats: TimingStats::default(),
        }
    }
}

impl Pipeline {
    /// Final statistics.
    pub fn stats(&self) -> TimingStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s.icache_misses = self.icache.misses;
        s.dcache_misses = self.dcache.misses;
        s
    }

    fn operands_ready(&self, e: &Effects) -> u64 {
        let mut t = 0;
        for r in 0..31 {
            if e.int_uses & (1 << r) != 0 {
                t = t.max(self.int_ready[r]);
            }
            if e.fp_uses & (1 << r) != 0 {
                t = t.max(self.fp_ready[r]);
            }
        }
        t
    }
}

impl Observer for Pipeline {
    fn retire(&mut self, r: &Retired) {
        self.stats.insts += 1;
        if r.inst.is_nop() {
            self.stats.nops += 1;
        }
        if matches!(r.inst, Inst::Mem { op, .. } if op.is_load() && !matches!(op, MemOp::Lda | MemOp::Ldah))
        {
            self.stats.loads += 1;
        }

        // Instruction fetch: one I-cache access per line actually touched.
        let ifetch_stall = self.icache.access(r.pc, true);

        let e = Effects::of(&r.inst);
        let ready = self.operands_ready(&e);

        // Earliest issue: operands ready, fetch done.
        let mut issue = self.cycle.max(ready) + ifetch_stall;

        // Dual-issue: same aligned quadword as the previous instruction,
        // compatible pipes, and the previous instruction issued at the cycle
        // we would otherwise advance past.
        let mut paired = false;
        if let Some((lpc, linst, lcycle)) = self.last {
            if r.pc == lpc + 4
                && lpc % 8 == 0
                && can_dual_issue(&linst, &r.inst)
                && issue <= lcycle
                && ifetch_stall == 0
            {
                issue = lcycle;
                paired = true;
                self.stats.dual_issued += 1;
            }
        }
        if !paired && issue == self.cycle && self.last.is_some() {
            // In-order single issue: next cycle.
            issue = self.cycle + 1;
        }

        // Memory access.
        let mut lat = latency(&r.inst) as u64;
        if let Some(ea) = r.ea {
            let is_store = e.mem_write;
            let stall = self.dcache.access(ea, !is_store);
            if !is_store {
                lat += stall;
            }
        }

        // Write back result availability.
        for reg in 0..31u32 {
            if e.int_defs & (1 << reg) != 0 {
                self.int_ready[reg as usize] = issue + lat;
            }
            if e.fp_defs & (1 << reg) != 0 {
                self.fp_ready[reg as usize] = issue + lat;
            }
        }

        self.cycle = issue.max(self.cycle);
        if r.taken {
            self.cycle = issue + BRANCH_BUBBLE;
            self.last = None; // new fetch stream
        } else {
            self.last = Some((r.pc, r.inst, issue));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_alpha::Reg;

    fn retire_seq(p: &mut Pipeline, insts: &[(u64, Inst)]) {
        for &(pc, inst) in insts {
            p.retire(&Retired { pc, inst, ea: None, taken: false });
        }
    }

    #[test]
    fn aligned_pair_dual_issues() {
        let mut p = Pipeline::default();
        retire_seq(
            &mut p,
            &[
                (0x1000, Inst::mov(Reg::new(1), Reg::new(2))), // IntOp at 8-aligned pc
                (0x1004, Inst::lda(Reg::new(3), 0, Reg::SP)),  // Mem, pairs
            ],
        );
        assert_eq!(p.stats().dual_issued, 1);
    }

    #[test]
    fn misaligned_pair_does_not_dual_issue() {
        let mut p = Pipeline::default();
        retire_seq(
            &mut p,
            &[
                (0x1004, Inst::mov(Reg::new(1), Reg::new(2))),
                (0x1008, Inst::lda(Reg::new(3), 0, Reg::SP)),
            ],
        );
        assert_eq!(p.stats().dual_issued, 0);
    }

    #[test]
    fn load_use_stall_costs_cycles() {
        // load r1 ; add r2 = r1+r1 vs load r1 ; add r2 = r3+r3
        let dep = {
            let mut p = Pipeline::default();
            p.retire(&Retired {
                pc: 0x1000,
                inst: Inst::ldq(Reg::new(1), 0, Reg::SP),
                ea: Some(0x2000),
                taken: false,
            });
            p.retire(&Retired {
                pc: 0x1004,
                inst: Inst::Opr {
                    op: om_alpha::OprOp::Addq,
                    ra: Reg::new(1),
                    rb: om_alpha::Operand::Reg(Reg::new(1)),
                    rc: Reg::new(2),
                },
                ea: None,
                taken: false,
            });
            p.stats().cycles
        };
        let indep = {
            let mut p = Pipeline::default();
            p.retire(&Retired {
                pc: 0x1000,
                inst: Inst::ldq(Reg::new(1), 0, Reg::SP),
                ea: Some(0x2000),
                taken: false,
            });
            p.retire(&Retired {
                pc: 0x1004,
                inst: Inst::Opr {
                    op: om_alpha::OprOp::Addq,
                    ra: Reg::new(3),
                    rb: om_alpha::Operand::Reg(Reg::new(3)),
                    rc: Reg::new(2),
                },
                ea: None,
                taken: false,
            });
            p.stats().cycles
        };
        assert!(dep > indep, "dependent use must stall ({dep} vs {indep})");
    }

    #[test]
    fn repeated_cache_line_hits() {
        let mut c = Cache::new(8 << 10, 32, 10);
        assert_eq!(c.access(0x1000, true), 10);
        assert_eq!(c.access(0x1008, true), 0); // same line
        assert_eq!(c.access(0x1000 + (8 << 10), true), 10); // conflict
        assert_eq!(c.access(0x1000, true), 10); // evicted
        assert_eq!(c.misses, 3);
    }

    #[test]
    fn taken_branch_breaks_pairing_and_adds_bubble() {
        let mut p = Pipeline::default();
        p.retire(&Retired {
            pc: 0x1000,
            inst: Inst::Br { op: om_alpha::BrOp::Br, ra: Reg::ZERO, disp: 10 },
            ea: None,
            taken: true,
        });
        let c1 = p.stats().cycles;
        p.retire(&Retired { pc: 0x1030, inst: Inst::nop(), ea: None, taken: false });
        assert!(p.stats().cycles >= c1);
        assert_eq!(p.stats().dual_issued, 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use om_alpha::{Inst, Reg};

    #[test]
    fn icache_miss_stalls_fetch() {
        let mut cold = Pipeline::default();
        // Two instructions on different cache lines: two compulsory misses.
        cold.retire(&Retired { pc: 0x1000, inst: Inst::nop(), ea: None, taken: false });
        cold.retire(&Retired { pc: 0x1040, inst: Inst::nop(), ea: None, taken: false });
        let cold_cycles = cold.stats().cycles;

        let mut warm = Pipeline::default();
        // Same line twice: one miss.
        warm.retire(&Retired { pc: 0x1000, inst: Inst::nop(), ea: None, taken: false });
        warm.retire(&Retired { pc: 0x1004, inst: Inst::nop(), ea: None, taken: false });
        assert!(cold.stats().icache_misses > warm.stats().icache_misses);
        assert!(cold_cycles > warm.stats().cycles);
    }

    #[test]
    fn dcache_miss_extends_load_latency() {
        let use_of = |ea: u64, times: usize| {
            let mut p = Pipeline::default();
            for t in 0..times {
                p.retire(&Retired {
                    pc: 0x1000 + 16 * t as u64, // separate pairs, same I-line
                    inst: Inst::ldq(Reg::new(1), 0, Reg::SP),
                    ea: Some(ea),
                    taken: false,
                });
                p.retire(&Retired {
                    pc: 0x1004 + 16 * t as u64,
                    inst: Inst::Opr {
                        op: om_alpha::OprOp::Addq,
                        ra: Reg::new(1),
                        rb: om_alpha::Operand::Reg(Reg::new(1)),
                        rc: Reg::new(2),
                    },
                    ea: None,
                    taken: false,
                });
            }
            p.stats()
        };
        let twice = use_of(0x9000, 2);
        // The second load hits: fewer cycles per iteration than the first.
        assert_eq!(twice.dcache_misses, 1);
    }

    #[test]
    fn nop_statistics_are_counted() {
        let mut p = Pipeline::default();
        p.retire(&Retired { pc: 0x1000, inst: Inst::nop(), ea: None, taken: false });
        p.retire(&Retired { pc: 0x1004, inst: Inst::unop(), ea: None, taken: false });
        p.retire(&Retired { pc: 0x1008, inst: Inst::fnop(), ea: None, taken: false });
        p.retire(&Retired {
            pc: 0x100C,
            inst: Inst::mov(Reg::new(1), Reg::new(2)),
            ea: None,
            taken: false,
        });
        assert_eq!(p.stats().nops, 3);
        assert_eq!(p.stats().insts, 4);
    }

    #[test]
    fn stores_do_not_stall_like_loads() {
        let run = |is_store: bool| {
            let mut p = Pipeline::default();
            let inst = if is_store {
                Inst::stq(Reg::new(1), 0, Reg::SP)
            } else {
                Inst::ldq(Reg::new(1), 0, Reg::SP)
            };
            p.retire(&Retired { pc: 0x1000, inst, ea: Some(0x9000), taken: false });
            // Consumer of r1.
            p.retire(&Retired {
                pc: 0x1004,
                inst: Inst::Opr {
                    op: om_alpha::OprOp::Addq,
                    ra: Reg::new(1),
                    rb: om_alpha::Operand::Lit(1),
                    rc: Reg::new(2),
                },
                ea: None,
                taken: false,
            });
            p.stats().cycles
        };
        assert!(run(false) > run(true), "a missing load stalls its consumer; a store does not");
    }
}

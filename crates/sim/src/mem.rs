//! Simulated flat memory built from image segments plus a stack.

use om_linker::Image;
use std::fmt;

/// Base of the simulated stack segment.
pub const STACK_BASE: u64 = 0x1_6000_0000;
/// Stack size in bytes.
pub const STACK_SIZE: u64 = 1 << 20;
/// Initial SP (top of stack, 16-aligned).
pub const STACK_TOP: u64 = STACK_BASE + STACK_SIZE;

/// Memory access fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    Unmapped { addr: u64 },
    Misaligned { addr: u64, align: u64 },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unmapped { addr } => write!(f, "access to unmapped address {addr:#x}"),
            Fault::Misaligned { addr, align } => {
                write!(f, "misaligned {align}-byte access at {addr:#x}")
            }
        }
    }
}

struct Region {
    base: u64,
    /// The next region's base (`u64::MAX` for the last): the addresses
    /// from `base` up to here are the ones the search maps to this region.
    next: u64,
    bytes: Vec<u8>,
}

/// Simulated memory.
pub struct Mem {
    regions: Vec<Region>,
    /// The region the last search found, tried before searching again: it
    /// answers 83% of `spec19-run`'s accesses and 68% of `scale-link`'s
    /// (EXPERIMENTS.md).
    last: usize,
}

impl Mem {
    /// Builds memory from an image's segments plus a fresh stack.
    pub fn from_image(image: &Image) -> Mem {
        let mut regions: Vec<Region> = image
            .segments
            .iter()
            .map(|s| Region { base: s.base, next: u64::MAX, bytes: s.bytes.clone() })
            .collect();
        regions.push(Region {
            base: STACK_BASE,
            next: u64::MAX,
            bytes: vec![0; STACK_SIZE as usize],
        });
        regions.sort_by_key(|r| r.base);
        for i in 1..regions.len() {
            regions[i - 1].next = regions[i].base;
        }
        Mem { regions, last: 0 }
    }

    /// The region holding `addr` and the offset into it. The remembered
    /// region answers when `addr` lies in its search range, so the answer
    /// is always the search's: the last region based at or below `addr`.
    fn region(&mut self, addr: u64) -> Result<(usize, usize), Fault> {
        let last = self.last;
        let r = &self.regions[last];
        let idx = if r.base <= addr && addr < r.next {
            last
        } else {
            let idx = self
                .regions
                .partition_point(|r| r.base <= addr)
                .checked_sub(1)
                .ok_or(Fault::Unmapped { addr })?;
            self.last = idx;
            idx
        };
        let r = &self.regions[idx];
        let off = (addr - r.base) as usize;
        if off < r.bytes.len() {
            Ok((idx, off))
        } else {
            Err(Fault::Unmapped { addr })
        }
    }

    fn check_align(addr: u64, align: u64) -> Result<(), Fault> {
        if !addr.is_multiple_of(align) {
            Err(Fault::Misaligned { addr, align })
        } else {
            Ok(())
        }
    }

    /// Reads `N` bytes. Takes `&mut self` to remember the region it found
    /// for the next access.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned access.
    pub fn read<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], Fault> {
        Self::check_align(addr, N as u64)?;
        let (idx, off) = self.region(addr)?;
        let r = &self.regions[idx];
        if off + N > r.bytes.len() {
            return Err(Fault::Unmapped { addr });
        }
        Ok(r.bytes[off..off + N].try_into().unwrap())
    }

    /// Writes `N` bytes.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned access.
    pub fn write<const N: usize>(&mut self, addr: u64, v: [u8; N]) -> Result<(), Fault> {
        Self::check_align(addr, N as u64)?;
        let (idx, off) = self.region(addr)?;
        let r = &mut self.regions[idx];
        if off + N > r.bytes.len() {
            return Err(Fault::Unmapped { addr });
        }
        r.bytes[off..off + N].copy_from_slice(&v);
        Ok(())
    }

    /// Reads a 64-bit little-endian value.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, Fault> {
        Ok(u64::from_le_bytes(self.read(addr)?))
    }

    /// Reads a 32-bit little-endian value.
    pub fn read_u32(&mut self, addr: u64) -> Result<u32, Fault> {
        Ok(u32::from_le_bytes(self.read(addr)?))
    }

    /// Writes a 64-bit value.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Fault> {
        self.write(addr, v.to_le_bytes())
    }

    /// Writes a 32-bit value.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), Fault> {
        self.write(addr, v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_linker::{Image, LayoutInfo, Segment};
    use std::collections::HashMap;

    fn mem() -> Mem {
        Mem::from_image(&Image {
            segments: vec![Segment { base: 0x1000, bytes: vec![0; 64] }],
            entry: 0x1000,
            symbols: HashMap::new(),
            layout: LayoutInfo::default(),
        })
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write_u64(0x1008, 0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(m.read_u64(0x1008).unwrap(), 0xDEAD_BEEF_0123_4567);
        m.write_u32(0x1010, 0xCAFE_BABE).unwrap();
        assert_eq!(m.read_u32(0x1010).unwrap(), 0xCAFE_BABE);
    }

    #[test]
    fn unmapped_faults() {
        let mut m = mem();
        assert!(matches!(m.read_u64(0x4000), Err(Fault::Unmapped { .. })));
        assert!(matches!(m.read_u64(0x0), Err(Fault::Unmapped { .. })));
        // Straddling the end of a region faults.
        assert!(matches!(m.read_u64(0x1000 + 64), Err(Fault::Unmapped { .. })));
    }

    #[test]
    fn misaligned_faults() {
        let mut m = mem();
        assert!(matches!(m.read_u64(0x1001), Err(Fault::Misaligned { .. })));
        assert!(matches!(m.read_u32(0x1002), Err(Fault::Misaligned { .. })));
    }

    #[test]
    fn the_remembered_region_answers_as_the_search_does() {
        // A segment inside another: from 0x1080 on, the search gives the
        // inner one, whose bytes end at 0x108C.
        let mut m = Mem::from_image(&Image {
            segments: vec![
                Segment { base: 0x1000, bytes: vec![1; 0x100] },
                Segment { base: 0x1080, bytes: vec![2; 0xC] },
            ],
            entry: 0x1000,
            symbols: HashMap::new(),
            layout: LayoutInfo::default(),
        });
        assert_eq!(m.read_u64(0x1000), Ok(0x0101_0101_0101_0101));
        assert_eq!(m.read_u64(0x1090), Err(Fault::Unmapped { addr: 0x1090 }));
        assert_eq!(m.read_u64(0x1078), Ok(0x0101_0101_0101_0101));
        assert_eq!(m.read_u64(0x1080), Ok(0x0202_0202_0202_0202));
        // Alignment is checked before the mapping, then the straddle.
        assert_eq!(m.read_u64(0x10A4), Err(Fault::Misaligned { addr: 0x10A4, align: 8 }));
        assert_eq!(m.read_u64(0x1088), Err(Fault::Unmapped { addr: 0x1088 }));
        assert_eq!(m.read_u32(0x1088), Ok(0x0202_0202));
        assert_eq!(m.read_u64(STACK_TOP), Err(Fault::Unmapped { addr: STACK_TOP }));
        assert_eq!(m.read_u32(STACK_TOP - 4), Ok(0));
    }

    #[test]
    fn stack_is_mapped() {
        let mut m = mem();
        m.write_u64(STACK_TOP - 16, 7).unwrap();
        assert_eq!(m.read_u64(STACK_TOP - 16).unwrap(), 7);
    }
}

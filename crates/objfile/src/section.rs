//! Section identifiers and layout constants.
//!
//! The format follows the Alpha/OSF ECOFF conventions the paper relies on:
//! code in `.text`; initialized data split into `.data` and *small* data
//! `.sdata`; uninitialized data split into `.bss` and `.sbss`; and the
//! per-module global address table in `.lita` (the "literal pool" the linker
//! merges). Keeping small data in its own section is what lets the linker
//! place it next to the GAT where the GP can reach it — the paper notes the
//! conversion of GAT references to GP-relative references "is even more
//! effective if the compiler segregates the small data into its own data
//! section".

use std::fmt;

/// Identifies a byte-carrying section of a module or image.
///
/// `.lita` is not a [`SecId`]: in this format the GAT is typed (a list of
/// [`crate::module::LitaEntry`]) rather than raw bytes, because every slot is
/// exactly a 64-bit relocated address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecId {
    /// Executable code.
    Text,
    /// Initialized data too large (or explicitly unsuitable) for `.sdata`.
    Data,
    /// Small initialized data, placed within GP reach at link time.
    Sdata,
    /// Small zero-initialized data, placed within GP reach at link time.
    Sbss,
    /// Zero-initialized data.
    Bss,
}

impl SecId {
    /// All section ids in canonical layout order.
    pub const ALL: [SecId; 5] = [SecId::Text, SecId::Data, SecId::Sdata, SecId::Sbss, SecId::Bss];

    /// Conventional section name.
    pub fn name(self) -> &'static str {
        match self {
            SecId::Text => ".text",
            SecId::Data => ".data",
            SecId::Sdata => ".sdata",
            SecId::Sbss => ".sbss",
            SecId::Bss => ".bss",
        }
    }
}

impl fmt::Display for SecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Conventional base of the text segment on Alpha/OSF.
pub const TEXT_BASE: u64 = 0x1_2000_0000;

/// Conventional base of the data segment on Alpha/OSF.
pub const DATA_BASE: u64 = 0x1_4000_0000;

/// Default alignment of section starts within a segment.
pub const SECTION_ALIGN: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_conventional() {
        assert_eq!(SecId::Text.to_string(), ".text");
        assert_eq!(SecId::Sdata.to_string(), ".sdata");
    }

    #[test]
    fn segment_bases_are_disjoint() {
        const { assert!(DATA_BASE > TEXT_BASE) };
    }
}

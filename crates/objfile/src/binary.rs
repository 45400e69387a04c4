//! Binary (de)serialization of modules and archives, and the one byte
//! cursor every binary format of the workspace reads and writes through.
//!
//! The on-disk format is deliberately explicit — little-endian fields,
//! length-prefixed strings, one tag byte per enum — so that object files can
//! be written out by the compiler, stored in archives, and read back by the
//! linker or OM exactly the way the 1994 toolchain passed ECOFF objects
//! around. Round-tripping is property-tested.
//!
//! Objects, archives, linked images (`om_linker::Image`) and `omd`'s wire
//! messages all read through [`Reader`] and write through [`Writer`], so
//! every length prefix is bounds-checked in one place.

use crate::archive::Archive;
use crate::error::ObjError;
use crate::module::{LitaEntry, Module};
use crate::reloc::{Reloc, RelocKind};
use crate::section::SecId;
use crate::symbol::{Symbol, SymbolDef, SymId, Visibility};
use std::fmt;

const MODULE_MAGIC: &[u8; 8] = b"OMOBJ01\0";
const ARCHIVE_MAGIC: &[u8; 8] = b"OMLIB01\0";

/// Appends little-endian fields to a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// `v` as it is, with no length.
    pub fn put(&mut self, v: &[u8]) -> &mut Self {
        self.0.extend_from_slice(v);
        self
    }
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// `v` behind its `u64` length.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64).put(v)
    }
    /// `v` behind its `u32` length, the `omd` wire's prefix.
    pub fn bytes32(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32).put(v)
    }
}

/// Why a [`Reader`] stopped. Each variant names what was being read, and
/// `?` turns it into the format's own error: an [`ObjError::BadFormat`], or
/// the message `String` of the image and wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// A field runs past the end of the named input.
    Truncated(&'static str),
    /// A record count the bytes left cannot hold.
    Count(&'static str, u64),
    /// A string that is not UTF-8.
    Utf8(&'static str),
    /// Bytes left after the named input's last field.
    Trailing(&'static str, usize),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated(what) => write!(f, "truncated {what}"),
            ReadError::Count(what, n) => write!(f, "implausible {what} count {n}"),
            ReadError::Utf8(what) => write!(f, "{what} is not utf-8"),
            ReadError::Trailing(what, n) => write!(f, "{n} trailing bytes after {what}"),
        }
    }
}

impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        e.to_string()
    }
}

impl From<ReadError> for ObjError {
    fn from(e: ReadError) -> ObjError {
        ObjError::BadFormat { what: e.to_string() }
    }
}

/// Reads little-endian fields off the front of a byte slice. Each read
/// compares the length it needs with the bytes left, so no length prefix,
/// however large, can reach past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    /// The input's name in [`ReadError::Truncated`] and `Trailing`.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader of `bytes`, which its errors call `what`.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { rest: bytes, what }
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], ReadError> {
        let split = usize::try_from(n).ok().and_then(|n| self.rest.split_at_checked(n));
        let (head, rest) = split.ok_or(ReadError::Truncated(self.what))?;
        self.rest = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(ReadError::Truncated(self.what))?;
        self.rest = rest;
        Ok(*head)
    }
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }
    pub fn i64(&mut self) -> Result<i64, ReadError> {
        self.array().map(i64::from_le_bytes)
    }
    /// Bytes behind a `u64` length ([`Writer::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], ReadError> {
        let n = self.u64()?;
        self.take(n)
    }
    /// Bytes behind a `u32` length ([`Writer::bytes32`]).
    pub fn bytes32(&mut self) -> Result<&'a [u8], ReadError> {
        let n = self.u32()?;
        self.take(n.into())
    }
    /// [`Reader::bytes`] as a UTF-8 string, which its error calls `what`.
    pub fn str(&mut self, what: &'static str) -> Result<String, ReadError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| ReadError::Utf8(what))
    }
    /// [`Reader::bytes32`] as a UTF-8 string, which its error calls `what`.
    pub fn str32(&mut self, what: &'static str) -> Result<String, ReadError> {
        let b = self.bytes32()?;
        String::from_utf8(b.to_vec()).map_err(|_| ReadError::Utf8(what))
    }
    /// A `u64` count of `what` records of at least `min` (≥ 1) bytes each,
    /// rejected when the bytes left cannot hold that many, before anything
    /// is reserved for them.
    pub fn count(&mut self, min: u64, what: &'static str) -> Result<usize, ReadError> {
        match self.u64()? {
            n if n <= self.rest.len() as u64 / min => Ok(n as usize),
            n => Err(ReadError::Count(what, n)),
        }
    }
    /// Every byte left.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }
    /// Ends the input, which must have no byte left.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(ReadError::Trailing(self.what, n)),
        }
    }
}

/// A section's tag is its place in [`SecId::ALL`].
fn sec_from(tag: u8) -> Result<SecId, ObjError> {
    let bad = || ObjError::BadFormat { what: format!("bad section tag {tag}") };
    SecId::ALL.get(tag as usize).copied().ok_or_else(bad)
}

fn write_symbol(w: &mut Writer, s: &Symbol) {
    w.bytes(s.name.as_bytes()).u8(match s.vis {
        Visibility::Exported => 0,
        Visibility::Local => 1,
    });
    match s.def {
        SymbolDef::Proc { offset, size, gp_group } => w.u8(0).u64(offset).u64(size).u32(gp_group),
        SymbolDef::Data { sec, offset, size } => w.u8(1).u8(sec as u8).u64(offset).u64(size),
        SymbolDef::Common { size, align } => w.u8(2).u64(size).u64(align),
        SymbolDef::Extern => w.u8(3),
    };
}

fn read_symbol(r: &mut Reader) -> Result<Symbol, ObjError> {
    let name = r.str("symbol name")?;
    let vis = match r.u8()? {
        0 => Visibility::Exported,
        1 => Visibility::Local,
        t => return Err(ObjError::BadFormat { what: format!("bad visibility tag {t}") }),
    };
    let def = match r.u8()? {
        0 => SymbolDef::Proc { offset: r.u64()?, size: r.u64()?, gp_group: r.u32()? },
        1 => SymbolDef::Data { sec: sec_from(r.u8()?)?, offset: r.u64()?, size: r.u64()? },
        2 => SymbolDef::Common { size: r.u64()?, align: r.u64()? },
        3 => SymbolDef::Extern,
        t => return Err(ObjError::BadFormat { what: format!("bad symbol tag {t}") }),
    };
    Ok(Symbol { name, vis, def })
}

fn write_reloc(w: &mut Writer, r: &Reloc) {
    w.u8(r.sec as u8).u64(r.offset);
    match r.kind {
        RelocKind::Literal { lita } => w.u8(0).u32(lita),
        RelocKind::LituseBase { load_offset } => w.u8(1).u64(load_offset),
        RelocKind::LituseJsr { load_offset } => w.u8(2).u64(load_offset),
        RelocKind::Gpdisp { pair_offset, anchor, gp_group } => {
            w.u8(3).i64(pair_offset).u64(anchor).u32(gp_group)
        }
        RelocKind::BrAddr { sym, addend } => w.u8(4).u32(sym.0).i64(addend),
        RelocKind::RefQuad { sym, addend } => w.u8(5).u32(sym.0).i64(addend),
        RelocKind::Gprel16 { sym, addend, gp_group } => {
            w.u8(6).u32(sym.0).i64(addend).u32(gp_group)
        }
        RelocKind::LituseAddr { load_offset } => w.u8(7).u64(load_offset),
        RelocKind::GprelHigh { sym, addend, gp_group } => {
            w.u8(8).u32(sym.0).i64(addend).u32(gp_group)
        }
        RelocKind::GprelLow { sym, addend, hi_addend, gp_group } => {
            w.u8(9).u32(sym.0).i64(addend).i64(hi_addend).u32(gp_group)
        }
    };
}

fn read_reloc(r: &mut Reader) -> Result<Reloc, ObjError> {
    let sec = sec_from(r.u8()?)?;
    let offset = r.u64()?;
    let kind = match r.u8()? {
        0 => RelocKind::Literal { lita: r.u32()? },
        1 => RelocKind::LituseBase { load_offset: r.u64()? },
        2 => RelocKind::LituseJsr { load_offset: r.u64()? },
        3 => RelocKind::Gpdisp { pair_offset: r.i64()?, anchor: r.u64()?, gp_group: r.u32()? },
        4 => RelocKind::BrAddr { sym: SymId(r.u32()?), addend: r.i64()? },
        5 => RelocKind::RefQuad { sym: SymId(r.u32()?), addend: r.i64()? },
        6 => RelocKind::Gprel16 { sym: SymId(r.u32()?), addend: r.i64()?, gp_group: r.u32()? },
        7 => RelocKind::LituseAddr { load_offset: r.u64()? },
        8 => RelocKind::GprelHigh { sym: SymId(r.u32()?), addend: r.i64()?, gp_group: r.u32()? },
        9 => RelocKind::GprelLow {
            sym: SymId(r.u32()?),
            addend: r.i64()?,
            hi_addend: r.i64()?,
            gp_group: r.u32()?,
        },
        t => return Err(ObjError::BadFormat { what: format!("bad reloc tag {t}") }),
    };
    Ok(Reloc { sec, offset, kind })
}

/// Serializes a module.
pub fn write_module(m: &Module) -> Vec<u8> {
    let mut out = Vec::new();
    write_module_into(m, &mut out);
    out
}

/// Serializes a module into `out`, replacing its contents but keeping its
/// allocation, so a caller that serializes many modules one after another
/// can reuse one buffer.
pub fn write_module_into(m: &Module, out: &mut Vec<u8>) {
    out.clear();
    let mut w = Writer(std::mem::take(out));
    w.put(MODULE_MAGIC).bytes(m.name.as_bytes()).bytes(&m.text).bytes(&m.data).bytes(&m.sdata);
    w.u64(m.sbss_size).u64(m.bss_size).u64(m.lita.len() as u64);
    for e in &m.lita {
        w.u32(e.sym.0).i64(e.addend);
    }
    w.u64(m.symbols.len() as u64);
    for s in &m.symbols {
        write_symbol(&mut w, s);
    }
    w.u64(m.relocs.len() as u64);
    for r in &m.relocs {
        write_reloc(&mut w, r);
    }
    *out = w.0;
}

/// Deserializes a module and validates it.
///
/// # Errors
///
/// Returns [`ObjError::BadFormat`] for truncated or mistagged input and
/// [`ObjError::Malformed`] if the decoded module violates its invariants.
pub fn read_module(bytes: &[u8]) -> Result<Module, ObjError> {
    let mut r = Reader::new(bytes, "object");
    if r.take(8)? != MODULE_MAGIC {
        return Err(ObjError::BadFormat { what: "bad module magic".into() });
    }
    let mut m = Module::new(r.str("module name")?);
    m.text = r.bytes()?.to_vec();
    m.data = r.bytes()?.to_vec();
    m.sdata = r.bytes()?.to_vec();
    m.sbss_size = r.u64()?;
    m.bss_size = r.u64()?;
    // The smallest records: a u32 and an i64; a name length and two tags; a
    // section tag, an offset, a kind tag and a u32.
    for _ in 0..r.count(12, "GAT literal")? {
        m.lita.push(LitaEntry { sym: SymId(r.u32()?), addend: r.i64()? });
    }
    for _ in 0..r.count(10, "symbol")? {
        m.symbols.push(read_symbol(&mut r)?);
    }
    for _ in 0..r.count(14, "relocation")? {
        m.relocs.push(read_reloc(&mut r)?);
    }
    m.validate()?;
    Ok(m)
}

/// Serializes an archive.
pub fn write_archive(a: &Archive) -> Vec<u8> {
    let mut w = Writer(ARCHIVE_MAGIC.to_vec());
    w.bytes(a.name.as_bytes()).u64(a.members().len() as u64);
    for m in a.members() {
        w.bytes(&write_module(m));
    }
    w.0
}

/// Deserializes an archive (re-deriving the symbol index).
///
/// # Errors
///
/// Returns [`ObjError`] for malformed input or members.
pub fn read_archive(bytes: &[u8]) -> Result<Archive, ObjError> {
    let mut r = Reader::new(bytes, "archive");
    if r.take(8)? != ARCHIVE_MAGIC {
        return Err(ObjError::BadFormat { what: "bad archive magic".into() });
    }
    let mut a = Archive::new(r.str("archive name")?);
    for _ in 0..r.count(8, "member")? {
        a.add(read_module(r.bytes()?)?)?;
    }
    Ok(a)
}

/// Reads a link's input files in the order given: a path ending in `.a` as
/// an archive, any other as an object module.
///
/// # Errors
///
/// The first file that cannot be read, as `cannot read {path}: {error}`, or
/// that does not parse, as `{path}: {error}`.
pub fn read_inputs(paths: &[String]) -> Result<(Vec<Module>, Vec<Archive>), String> {
    let mut objects = Vec::new();
    let mut libs = Vec::new();
    for f in paths {
        let bytes = std::fs::read(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        if f.ends_with(".a") {
            libs.push(read_archive(&bytes).map_err(|e| format!("{f}: {e}"))?);
        } else {
            objects.push(read_module(&bytes).map_err(|e| format!("{f}: {e}"))?);
        }
    }
    Ok((objects, libs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::LitaEntry;
    use crate::symbol::Symbol;

    fn sample_module() -> Module {
        let mut m = Module::new("sample");
        m.text = vec![0; 24];
        m.data = vec![1, 2, 3, 4, 5, 6, 7, 8];
        m.sdata = vec![9; 8];
        m.sbss_size = 16;
        m.bss_size = 4096;
        m.symbols.push(Symbol::proc("main", 0, 24, 0));
        m.symbols.push(Symbol::external("helper"));
        m.symbols.push(Symbol::common("work", 800, 8).local());
        m.lita.push(LitaEntry { sym: SymId(1), addend: 0 });
        m.lita.push(LitaEntry { sym: SymId(2), addend: 16 });
        m.relocs.push(Reloc::text(0, RelocKind::Gpdisp { pair_offset: 4, anchor: 0, gp_group: 0 }));
        m.relocs.push(Reloc::text(8, RelocKind::Literal { lita: 0 }));
        m.relocs.push(Reloc::text(12, RelocKind::LituseJsr { load_offset: 8 }));
        m.relocs.push(Reloc {
            sec: SecId::Data,
            offset: 0,
            kind: RelocKind::RefQuad { sym: SymId(0), addend: 0 },
        });
        m.validate().unwrap();
        m
    }

    #[test]
    fn reader_checks_each_length_against_the_bytes_left() {
        let mut w = Writer::default();
        w.u8(1).u64(2).u64(0).u64(0);
        let mut r = Reader::new(&w.0, "input");
        assert_eq!(r.u8(), Ok(1));
        for n in [25, u64::MAX - 7, u64::MAX] {
            assert_eq!(r.take(n), Err(ReadError::Truncated("input")));
        }
        // A failed read consumes nothing. Sixteen bytes hold two records of
        // eight bytes, not of nine.
        let e = Reader::new(&w.0[1..], "input").count(9, "record").unwrap_err();
        assert_eq!(e.to_string(), "implausible record count 2");
        assert_eq!(r.count(8, "record"), Ok(2));
        assert_eq!(r.u64(), Ok(0));
        assert_eq!(r.finish().unwrap_err().to_string(), "8 trailing bytes after input");
    }

    #[test]
    fn module_roundtrip() {
        let m = sample_module();
        let bytes = write_module(&m);
        assert_eq!(read_module(&bytes).unwrap(), m);
    }

    #[test]
    fn archive_roundtrip() {
        let mut a = Archive::new("libtest");
        a.add(sample_module()).unwrap();
        let bytes = write_archive(&a);
        let back = read_archive(&bytes).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(read_module(b"NOTANOBJ").is_err());
        assert!(read_archive(&write_module(&sample_module())).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = write_module(&sample_module());
        for cut in [0, 7, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(read_module(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut bytes = write_module(&sample_module());
        let n = bytes.len();
        bytes[n - 1] = 0xFF; // clobber the last reloc's payload tail — reloc tag is earlier; clobber broadly
        // A flipped byte may or may not break decoding, but must never panic.
        let _ = read_module(&bytes);
    }
}

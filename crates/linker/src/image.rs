//! Executable images.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A loaded memory segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Virtual base address.
    pub base: u64,
    /// Contents; zero-fill sections are materialized as zero bytes.
    pub bytes: Vec<u8>,
}

impl Segment {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// True if `addr` falls inside the segment.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Section extents recorded for statistics and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extent {
    pub base: u64,
    pub size: u64,
}

/// Section-level layout summary of a linked image.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayoutInfo {
    pub text: Extent,
    pub lita: Extent,
    pub sdata: Extent,
    pub sbss: Extent,
    pub data: Extent,
    pub bss: Extent,
    /// GP value per GAT group.
    pub gp_values: Vec<u64>,
}

/// A fully linked, executable program image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Text segment then data segment.
    pub segments: Vec<Segment>,
    /// Address of `__start`.
    pub entry: u64,
    /// Global symbol addresses (exported symbols and procedures), for
    /// debugging, statistics, and the simulator's profiler.
    pub symbols: HashMap<String, u64>,
    pub layout: LayoutInfo,
}

impl Image {
    /// Serializes the image to the on-disk executable format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(self.byte_len());
        self.write_to(&mut w).expect("writing to a Vec cannot fail");
        w
    }

    /// Writes [`Image::to_bytes`]'s bytes to `w` segment by segment, without
    /// building them in one buffer first.
    ///
    /// # Errors
    ///
    /// Returns the first error `w` reports.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let put = |w: &mut W, v: u64| w.write_all(&v.to_le_bytes());
        w.write_all(b"OMEXE01\0")?;
        put(w, self.entry)?;
        put(w, self.segments.len() as u64)?;
        for s in &self.segments {
            put(w, s.base)?;
            put(w, s.bytes.len() as u64)?;
            w.write_all(&s.bytes)?;
        }
        let mut syms: Vec<(&String, &u64)> = self.symbols.iter().collect();
        syms.sort();
        put(w, syms.len() as u64)?;
        for (name, &addr) in syms {
            put(w, name.len() as u64)?;
            w.write_all(name.as_bytes())?;
            put(w, addr)?;
        }
        // Layout info: the extents plus GP values.
        for e in self.extents() {
            put(w, e.base)?;
            put(w, e.size)?;
        }
        put(w, self.layout.gp_values.len() as u64)?;
        for &g in &self.layout.gp_values {
            put(w, g)?;
        }
        Ok(())
    }

    /// Creates (or truncates) the file at `path` and writes the image to it
    /// through a [`BufWriter`].
    ///
    /// # Errors
    ///
    /// Returns the first error creating, writing or flushing the file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// The length of [`Image::to_bytes`]'s result.
    fn byte_len(&self) -> usize {
        let segments: usize = self.segments.iter().map(|s| 16 + s.bytes.len()).sum();
        let symbols: usize = self.symbols.keys().map(|name| 16 + name.len()).sum();
        let layout = 16 * self.extents().len() + 8 + 8 * self.layout.gp_values.len();
        24 + segments + 8 + symbols + layout
    }

    /// The section extents the on-disk format records, in its order.
    fn extents(&self) -> [Extent; 6] {
        let l = &self.layout;
        [l.text, l.lita, l.sdata, l.sbss, l.data, l.bss]
    }

    /// Deserializes an image written by [`Image::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Image, String> {
        struct R<'a>(&'a [u8], usize);
        impl<'a> R<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
                if n > self.left() {
                    return Err("truncated image".to_string());
                }
                let s = &self.0[self.1..self.1 + n];
                self.1 += n;
                Ok(s)
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
            }
            fn left(&self) -> usize {
                self.0.len() - self.1
            }
            /// Reads a count of records of at least `min` bytes each,
            /// rejecting one the remaining bytes cannot hold before anything
            /// is reserved for it.
            fn count(&mut self, min: usize, what: &str) -> Result<usize, String> {
                let n = self.u64()?;
                match usize::try_from(n) {
                    Ok(n) if n <= self.left() / min => Ok(n),
                    _ => Err(format!("implausible {what} count {n}")),
                }
            }
        }
        let mut r = R(bytes, 0);
        if r.take(8)? != b"OMEXE01\0" {
            return Err("bad image magic".to_string());
        }
        let entry = r.u64()?;
        let nseg = r.u64()? as usize;
        if nseg > 1024 {
            return Err("implausible segment count".to_string());
        }
        let mut segments = Vec::with_capacity(nseg);
        for _ in 0..nseg {
            let base = r.u64()?;
            let len = r.u64()? as usize;
            segments.push(Segment { base, bytes: r.take(len)?.to_vec() });
        }
        // A symbol is a name length, the name and an address.
        let nsym = r.count(16, "symbol")?;
        let mut symbols = HashMap::with_capacity(nsym);
        for _ in 0..nsym {
            let len = r.u64()? as usize;
            let name = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| "bad symbol name".to_string())?;
            symbols.insert(name, r.u64()?);
        }
        let mut ext = [Extent::default(); 6];
        for e in &mut ext {
            e.base = r.u64()?;
            e.size = r.u64()?;
        }
        let ngp = r.count(8, "GP value")?;
        let mut gp_values = Vec::with_capacity(ngp);
        for _ in 0..ngp {
            gp_values.push(r.u64()?);
        }
        Ok(Image {
            segments,
            entry,
            symbols,
            layout: LayoutInfo {
                text: ext[0],
                lita: ext[1],
                sdata: ext[2],
                sbss: ext[3],
                data: ext[4],
                bss: ext[5],
                gp_values,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_bounds() {
        let s = Segment { base: 0x1000, bytes: vec![7; 16] };
        assert!(s.contains(0x1000) && s.contains(0x100F));
        assert!(!s.contains(0x1010));
        assert_eq!(s.end(), 0x1010);
    }

    #[test]
    fn image_binary_roundtrip() {
        let mut symbols = HashMap::new();
        symbols.insert("main".to_string(), 0x1_2000_0040u64);
        symbols.insert("__start".to_string(), 0x1_2000_0000u64);
        let img = Image {
            segments: vec![
                Segment { base: 0x1_2000_0000, bytes: vec![0x1F, 4, 0xFF, 0x47] },
                Segment { base: 0x1_4000_0000, bytes: vec![9; 32] },
            ],
            entry: 0x1_2000_0000,
            symbols,
            layout: LayoutInfo {
                text: Extent { base: 0x1_2000_0000, size: 4 },
                gp_values: vec![0x1_4000_8000],
                ..LayoutInfo::default()
            },
        };
        let bytes = img.to_bytes();
        assert_eq!(Image::from_bytes(&bytes).unwrap(), img);
        // Presized exactly, and the same bytes as a write in small pieces.
        assert_eq!((bytes.len(), bytes.capacity()), (img.byte_len(), img.byte_len()));
        let mut out = std::io::BufWriter::with_capacity(5, Vec::new());
        img.write_to(&mut out).unwrap();
        assert_eq!(out.into_inner().unwrap(), bytes);
    }

    #[test]
    fn image_rejects_garbage() {
        assert!(Image::from_bytes(b"NOTANEXE").is_err());
        let good = Image {
            segments: vec![],
            entry: 0,
            symbols: HashMap::new(),
            layout: LayoutInfo::default(),
        }
        .to_bytes();
        assert!(Image::from_bytes(&good[..good.len() - 1]).is_err());
    }

    /// The bytes of an image with no segments whose symbol count is `nsym`
    /// and GP-value count `ngp`, followed by no records.
    fn counts_only(nsym: u64, ngp: u64) -> Vec<u8> {
        let mut w = b"OMEXE01\0".to_vec();
        for v in [0, 0, nsym].into_iter().chain([0; 12]).chain([ngp]) {
            w.extend_from_slice(&v.to_le_bytes());
        }
        w
    }

    #[test]
    fn counts_the_bytes_cannot_hold_are_rejected_before_reserving() {
        assert!(Image::from_bytes(&counts_only(0, 0)).is_ok());
        // Each of these reserved its count up front: 2^61 symbols panicked
        // in `HashMap::with_capacity`, 2^40 GP values aborted the process.
        let e = Image::from_bytes(&counts_only(1 << 61, 0)).unwrap_err();
        assert_eq!(e, format!("implausible symbol count {}", 1u64 << 61));
        let e = Image::from_bytes(&counts_only(0, 1 << 40)).unwrap_err();
        assert_eq!(e, format!("implausible GP value count {}", 1u64 << 40));
        // One GP value more than the bytes hold.
        let mut w = counts_only(0, 2);
        w.extend_from_slice(&7u64.to_le_bytes());
        assert!(Image::from_bytes(&w).unwrap_err().contains("GP value count 2"));
    }

    #[test]
    fn a_segment_longer_than_the_image_is_truncation() {
        let mut w = b"OMEXE01\0".to_vec();
        for v in [0, 1, 0x1000, u64::MAX] {
            w.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(Image::from_bytes(&w).unwrap_err(), "truncated image");
    }
}

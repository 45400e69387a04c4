//! Executable images.

use std::collections::HashMap;

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
    /// Reads the byte at `addr`, if mapped.
    pub fn read_byte(&self, addr: u64) -> Option<u8> {
        self.segments
            .iter()
            .find(|s| s.contains(addr))
            .map(|s| s.bytes[(addr - s.base) as usize])
    }

    /// Serializes the image to the on-disk executable format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w: Vec<u8> = Vec::new();
        w.extend_from_slice(b"OMEXE01\0");
        let pu64 = |w: &mut Vec<u8>, v: u64| w.extend_from_slice(&v.to_le_bytes());
        pu64(&mut w, self.entry);
        pu64(&mut w, self.segments.len() as u64);
        for s in &self.segments {
            pu64(&mut w, s.base);
            pu64(&mut w, s.bytes.len() as u64);
            w.extend_from_slice(&s.bytes);
        }
        let mut syms: Vec<(&String, &u64)> = self.symbols.iter().collect();
        syms.sort();
        pu64(&mut w, syms.len() as u64);
        for (name, &addr) in syms {
            pu64(&mut w, name.len() as u64);
            w.extend_from_slice(name.as_bytes());
            pu64(&mut w, addr);
        }
        // Layout info: the extents plus GP values.
        for e in [
            self.layout.text,
            self.layout.lita,
            self.layout.sdata,
            self.layout.sbss,
            self.layout.data,
            self.layout.bss,
        ] {
            pu64(&mut w, e.base);
            pu64(&mut w, e.size);
        }
        pu64(&mut w, self.layout.gp_values.len() as u64);
        for &g in &self.layout.gp_values {
            pu64(&mut w, g);
        }
        w
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
                if self.1 + n > self.0.len() {
                    return Err("truncated image".to_string());
                }
                let s = &self.0[self.1..self.1 + n];
                self.1 += n;
                Ok(s)
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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
        let nsym = r.u64()? as usize;
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
        let ngp = r.u64()? as usize;
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
    fn image_reads() {
        let img = Image {
            segments: vec![Segment { base: 0x1000, bytes: vec![1, 2, 3] }],
            entry: 0x1000,
            symbols: HashMap::new(),
            layout: LayoutInfo::default(),
        };
        assert_eq!(img.read_byte(0x1001), Some(2));
        assert_eq!(img.read_byte(0x2000), None);
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
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(back, img);
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
}

//! Property tests of the on-disk object format: random well-formed modules
//! must round-trip exactly, and arbitrary bytes must never panic the reader.
//!
//! Seeded randomized loops over `om_prng` (the workspace builds offline, so
//! no proptest); module shapes match what the original strategies generated.

use om_objfile::{
    binary, Archive, LitaEntry, Module, ObjError, Reloc, RelocKind, SecId, SymId, Symbol,
    SymbolDef, Visibility,
};
use om_prng::StdRng;

fn ident(rng: &mut StdRng) -> String {
    let mut s = String::new();
    s.push((b'a' + rng.gen_range(0u8..26)) as char);
    for _ in 0..rng.gen_range(0usize..13) {
        let c = match rng.gen_range(0u8..38) {
            0..=25 => b'a' + rng.gen_range(0u8..26),
            26..=35 => b'0' + rng.gen_range(0u8..10),
            _ => b'_',
        };
        s.push(c as char);
    }
    s
}

/// A structurally valid module: procedures tile the text, relocations are in
/// range and sorted, lita entries name real symbols.
fn any_module(rng: &mut StdRng) -> Module {
    let name = ident(rng);
    let nproc = rng.gen_range(1usize..6);
    let next = rng.gen_range(0usize..5);
    let ncommon = rng.gen_range(0usize..4);
    let data8 = rng.gen_range(0usize..24);
    let sdata8 = rng.gen_range(0usize..16);

    let mut m = Module::new(name);
    // Each proc gets 4 instructions (16 bytes) of encodable words.
    let nop = om_alpha::encode(om_alpha::Inst::nop()).to_le_bytes();
    for _ in 0..nproc * 4 {
        m.text.extend_from_slice(&nop);
    }
    for p in 0..nproc {
        m.symbols.push(Symbol {
            name: format!("p{p}"),
            vis: if p % 2 == 0 { Visibility::Exported } else { Visibility::Local },
            def: SymbolDef::Proc { offset: 16 * p as u64, size: 16, gp_group: 0 },
        });
    }
    for e in 0..next {
        m.symbols.push(Symbol::external(format!("x{e}")));
    }
    for c in 0..ncommon {
        m.symbols.push(Symbol::common(format!("c{c}"), 8 * (c as u64 + 1), 8));
    }
    m.data = vec![0xAB; 8 * data8];
    m.sdata = vec![0xCD; 8 * sdata8];
    m.sbss_size = rng.gen_range(0u64..256) * 8;
    m.bss_size = rng.gen_range(0u64..256) * 8;

    // A lita entry per symbol (dedup not required at module level).
    for (i, _) in m.symbols.iter().enumerate() {
        m.lita.push(LitaEntry { sym: SymId(i as u32), addend: (i as i64) * 8 });
    }
    // One literal + lituse pair per proc, plus a gpdisp at entry.
    for p in 0..nproc {
        let base = 16 * p as u64;
        m.relocs.push(Reloc::text(
            base,
            RelocKind::Gpdisp { pair_offset: 4, anchor: base, gp_group: 0 },
        ));
        m.relocs.push(Reloc::text(
            base + 8,
            RelocKind::Literal { lita: (p % m.lita.len().max(1)) as u32 },
        ));
        m.relocs.push(Reloc::text(
            base + 12,
            RelocKind::LituseBase { load_offset: base + 8 },
        ));
    }
    if !m.data.is_empty() {
        m.relocs.push(Reloc {
            sec: SecId::Data,
            offset: 0,
            kind: RelocKind::RefQuad { sym: SymId(0), addend: 16 },
        });
    }
    m.validate().expect("generator produces valid modules");
    m
}

#[test]
fn modules_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x0B1EC7);
    for _ in 0..256 {
        let m = any_module(&mut rng);
        let bytes = binary::write_module(&m);
        let back = binary::read_module(&bytes).unwrap();
        assert_eq!(back, m);
    }
}

#[test]
fn archives_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA2C417E);
    for _ in 0..64 {
        let mut ar = Archive::new("lib");
        for i in 0..rng.gen_range(0usize..4) {
            let mut m = any_module(&mut rng);
            // Unique exported names across members to keep the index sane.
            for s in &mut m.symbols {
                if s.is_defined() && s.vis == Visibility::Exported {
                    s.name = format!("{}_{i}", s.name);
                }
            }
            ar.add(m).unwrap();
        }
        let bytes = binary::write_archive(&ar);
        assert_eq!(binary::read_archive(&bytes).unwrap(), ar);
    }
}

#[test]
fn reader_never_panics_on_corruption() {
    let mut rng = StdRng::seed_from_u64(0xC0221157);
    for _ in 0..256 {
        let m = any_module(&mut rng);
        let mut bytes = binary::write_module(&m);
        for _ in 0..rng.gen_range(1usize..8) {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= rng.gen_range(0u16..256) as u8;
        }
        let _ = binary::read_module(&bytes); // any Result is fine; no panic
    }
}

#[test]
fn reader_never_panics_on_noise() {
    let mut rng = StdRng::seed_from_u64(0x2015E);
    for _ in 0..512 {
        let bytes: Vec<u8> = (0..rng.gen_range(0usize..512))
            .map(|_| rng.gen_range(0u16..256) as u8)
            .collect();
        let _ = binary::read_module(&bytes);
        let _ = binary::read_archive(&bytes);
    }
}

/// `magic`, a name length of 2^64 - 8, then eight bytes: 24 bytes in all.
/// The length wraps a position-plus-length sum back inside the input.
fn hostile_name(magic: &[u8; 8]) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(&(u64::MAX - 7).to_le_bytes());
    bytes.extend_from_slice(&[0; 8]);
    bytes
}

#[test]
fn a_name_length_near_2_pow_64_is_a_typed_error() {
    // The random tests above practically never draw such a prefix.
    let truncated = |what: &str| ObjError::BadFormat { what: format!("truncated {what}") };
    let object = binary::read_module(&hostile_name(b"OMOBJ01\0"));
    assert_eq!(object.unwrap_err(), truncated("object"));
    let archive = binary::read_archive(&hostile_name(b"OMLIB01\0"));
    assert_eq!(archive.unwrap_err(), truncated("archive"));
}

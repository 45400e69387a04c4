//! The address fields of the subset, each defined once: the 16-bit memory
//! displacement, the LDAH/LDA pair and the 21-bit branch field. The linker's
//! patcher, OM's rewrites and the compiler all decide reach here, so OM
//! rewrites exactly what the patcher can patch (paper §3–4). Address
//! arithmetic is modular, like the machine's, so no value can overflow it.

/// Low 21 bits of a branch-format word: its signed word displacement.
const BRANCH_FIELD: u32 = 0x001F_FFFF;

/// The signed displacement from `base` to `value`, modulo 2^64.
#[inline]
pub fn displacement(value: u64, base: u64) -> i64 {
    value.wrapping_sub(base) as i64
}

/// `disp` as a memory instruction's signed 16-bit displacement, if it fits.
#[inline]
pub fn mem_disp(disp: i64) -> Option<i16> {
    i16::try_from(disp).ok()
}

/// `disp` as an LDAH/LDA pair `(hi, lo)` with `(hi << 16) + lo == disp`, if
/// the pair reaches it (`-0x8000_8000..=0x7FFF_7FFF`, about ±2 GB). LDA
/// sign-extends its half, so `hi` carries one more when `lo` is negative.
#[inline]
pub fn split_pair(disp: i64) -> Option<(i16, i16)> {
    let lo = disp as i16;
    let hi = (disp >> 16) + i64::from(lo < 0);
    Some((i16::try_from(hi).ok()?, lo))
}

/// Words from a branch at `pc` to `target`, counted from the updated PC
/// (`pc + 4`), if `target` lies a whole number of words from it.
#[inline]
pub fn branch_words(pc: u64, target: u64) -> Option<i64> {
    let delta = displacement(target, pc.wrapping_add(4));
    (delta % 4 == 0).then_some(delta / 4)
}

/// `words` as a branch's signed 21-bit displacement, if it fits.
#[inline]
pub fn branch_disp(words: i64) -> Option<i32> {
    (-(1 << 20)..(1 << 20)).contains(&words).then_some(words as i32)
}

/// Whether a branch at `pc` can encode a jump to `target`.
#[inline]
pub fn branch_reaches(pc: u64, target: u64) -> bool {
    branch_words(pc, target).and_then(branch_disp).is_some()
}

/// The sign-extended displacement field of branch-format `word`.
#[inline]
pub fn branch_field(word: u32) -> i32 {
    ((word & BRANCH_FIELD) as i32) << 11 >> 11
}

/// `word` with the low 21 bits of `disp` as its branch displacement.
#[inline]
pub fn with_branch_field(word: u32, disp: i32) -> u32 {
    (word & !BRANCH_FIELD) | (disp as u32 & BRANCH_FIELD)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The definitions each field had before it had one. Each is the old
    // code as a release build ran it: an operator that could overflow
    // wraps.

    /// The linker's LDAH/LDA split.
    fn split_gpdisp(disp: i64) -> Result<(i16, i16), ()> {
        let lo = disp as i16;
        let rest = disp.wrapping_sub(lo as i64);
        if rest & 0xFFFF != 0 {
            return Err(());
        }
        let hi = i16::try_from(rest >> 16).map_err(|_| ())?;
        Ok((hi, lo))
    }

    /// The compiler's constant split.
    fn split_hi_lo(v: i64) -> Option<(i16, i16)> {
        let lo = v as i16;
        let rest = v.wrapping_sub(lo as i64);
        if rest & 0xFFFF != 0 {
            return None;
        }
        let hi = i16::try_from(rest >> 16).ok()?;
        if ((hi as i64) << 16).wrapping_add(lo as i64) == v {
            Some((hi, lo))
        } else {
            None
        }
    }

    /// OM's JSR → BSR reach test.
    fn bsr_reachable(from: u64, to: u64) -> bool {
        let delta = (to as i64).wrapping_sub((from as i64).wrapping_add(4));
        if delta % 4 != 0 {
            return false;
        }
        let words = delta / 4;
        (-(1 << 20)..(1 << 20)).contains(&words)
    }

    /// The patcher's branch field write and the decoder's read.
    fn old_patch(word: u32, disp: i32) -> u32 {
        (word & 0xFFE0_0000) | (disp as u32 & 0x001F_FFFF)
    }
    fn old_decode(word: u32) -> i32 {
        ((word & 0x001F_FFFF) as i32) << 11 >> 11
    }

    /// `limits` and the values one either side of each, with 0 and the
    /// ends of `i64`.
    fn around(limits: &[i64]) -> Vec<i64> {
        let mut v = vec![0, i64::MIN, i64::MAX];
        for &l in limits {
            v.extend([l.wrapping_sub(1), l, l.wrapping_add(1)]);
        }
        v
    }

    #[test]
    fn the_displacement_is_modular() {
        assert_eq!(displacement(5, 3), 2);
        assert_eq!(displacement(3, 5), -2);
        assert_eq!(displacement(0, u64::MAX), 1);
        assert_eq!(displacement(u64::MAX, 0), -1);
        assert_eq!(displacement(1 << 63, 0), i64::MIN);
        assert_eq!(displacement(0, 1 << 63), i64::MIN);
        for v in around(&[i16::MIN.into(), i16::MAX.into(), 1 << 32]) {
            let base = 0x1234_5678u64;
            assert_eq!(displacement(base.wrapping_add_signed(v), base), v, "{v}");
        }
    }

    #[test]
    fn the_memory_displacement_is_sixteen_bits() {
        for v in around(&[i16::MIN.into(), i16::MAX.into()]) {
            assert_eq!(mem_disp(v), i16::try_from(v).ok(), "{v}");
            assert_eq!(mem_disp(v).is_some(), (-32768..=32767).contains(&v), "{v}");
        }
    }

    #[test]
    fn the_pair_split_matches_the_linker_and_the_compiler() {
        let (max, min) = (0x7FFF_7FFF, -0x8000_8000);
        let limits = [max, min, 0x7FFF, 0x8000, -0x8000, 0x1_8000, 1 << 31, -1 << 31];
        for v in around(&limits) {
            let got = split_pair(v);
            assert_eq!(got, split_gpdisp(v).ok(), "{v:#x}");
            assert_eq!(got, split_hi_lo(v), "{v:#x}");
            assert_eq!(got.is_some(), (min..=max).contains(&v), "{v:#x}");
            if let Some((hi, lo)) = got {
                assert_eq!(((hi as i64) << 16) + lo as i64, v, "{v:#x}");
            }
        }
        assert_eq!(split_pair(0x1_8000), Some((2, -0x8000)));
    }

    #[test]
    fn the_branch_reach_matches_oms_old_test() {
        let reach = 1i64 << 20;
        let pcs = [0, 0x12_0000_0000, 1 << 63, u64::MAX - 3, u64::MAX];
        for pc in pcs {
            // Word counts whose byte distance fits `i64`; `branch_disp`
            // takes the ends of `i64` below.
            let near = around(&[reach, -reach, reach - 1, -reach - 1]);
            for words in near.into_iter().filter(|w| w.checked_mul(4).is_some()) {
                for skew in [0, 1, 2, 3] {
                    let to = pc.wrapping_add(4).wrapping_add_signed(4 * words).wrapping_add(skew);
                    let got = branch_reaches(pc, to);
                    assert_eq!(got, bsr_reachable(pc, to), "{pc:#x} -> {to:#x}");
                    let exact = skew == 0 && (-reach..reach).contains(&words);
                    assert_eq!(got, exact, "{pc:#x} -> {to:#x}");
                    if exact {
                        assert_eq!(branch_words(pc, to).and_then(branch_disp), Some(words as i32));
                    }
                }
            }
        }
        assert_eq!(branch_words(0x100, 0x102), None, "misaligned");
        assert_eq!(branch_words(0x100, 0xFC), Some(-2));
        assert_eq!(branch_disp(i64::MIN), None);
        assert_eq!(branch_disp(i64::MAX), None);
        assert_eq!(branch_disp(i64::from(i32::MAX) + 1 + 5), None, "no truncation to i32");
    }

    #[test]
    fn the_branch_field_layout_matches_the_patcher_and_the_decoder() {
        let words = [0, 0xD340_0000, 0xFFFF_FFFF, 0xFFE0_0000, 0x001F_FFFF];
        let reach = 1 << 20;
        for w in words {
            for disp in [0, 1, -1, reach - 1, -reach, reach, -reach - 1, i32::MAX, i32::MIN] {
                let patched = with_branch_field(w, disp);
                assert_eq!(patched, old_patch(w, disp), "{w:#x} {disp}");
                assert_eq!(patched & 0xFFE0_0000, w & 0xFFE0_0000, "opcode bits kept");
                assert_eq!(branch_field(patched), old_decode(patched), "{w:#x} {disp}");
                if branch_disp(disp.into()).is_some() {
                    assert_eq!(branch_field(patched), disp, "{w:#x} {disp}");
                }
            }
        }
    }
}

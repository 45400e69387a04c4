//! The batch digest's kernel: one BLAKE2s compression in each of eight
//! lanes at once, with one AVX2 register per state word across the lanes.
//!
//! This is the workspace's only `unsafe` code. It is here because the
//! portable form of the same loop, eight-element `u32` arrays left to the
//! auto-vectorizer, ran no faster than the scalar compression at the
//! baseline target. Everything the kernel reads is a fixed-size array, so
//! each load and store is in bounds by its type; the one other obligation,
//! running AVX2 instructions only on a CPU that has them, is carried by
//! [`Avx2`], which only [`Avx2::detect`] makes.

/// Messages hashed at once: one 32-bit word per lane of a 256-bit register.
pub(super) const LANES: usize = 8;

/// Eight BLAKE2s states side by side, each array indexed by lane: word `w`
/// of lane `l`'s chaining value is `h[w][l]`.
#[derive(Clone, Copy, Default)]
pub(super) struct Lanes {
    /// The chaining values.
    pub(super) h: [[u32; LANES]; 8],
    /// Bytes compressed so far, block included (the spec's `t`), as low
    /// and high words.
    pub(super) t: [[u32; LANES]; 2],
    /// All ones on a lane's final block (the spec's `f0`), else zero.
    pub(super) last: [u32; LANES],
    /// All ones on a lane that holds a message. A compression leaves an
    /// idle lane's chaining value as it was.
    pub(super) live: [u32; LANES],
}

impl Lanes {
    /// Starts a new message in `lane`: the unkeyed 32-byte parameter
    /// block's initial chaining value, nothing compressed yet.
    pub(super) fn start(&mut self, lane: usize) {
        for (w, iv) in super::Blake2s::new().h.iter().enumerate() {
            self.h[w][lane] = *iv;
        }
        self.live[lane] = !0;
    }

    /// Sets the counter and the last-block flag for `lane`'s next block.
    pub(super) fn set_block(&mut self, lane: usize, compressed: u64, last: bool) {
        self.t[0][lane] = compressed as u32;
        self.t[1][lane] = (compressed >> 32) as u32;
        self.last[lane] = if last { !0 } else { 0 };
    }

    /// The digest of the message `lane` finished, which leaves it idle.
    pub(super) fn finish(&mut self, lane: usize) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (w, bytes) in out.chunks_exact_mut(4).enumerate() {
            bytes.copy_from_slice(&self.h[w][lane].to_le_bytes());
        }
        self.live[lane] = 0;
        out
    }
}

/// Proof that this CPU runs AVX2: the kernel runs only through one.
#[derive(Clone, Copy)]
pub(super) struct Avx2(());

impl Avx2 {
    /// `Some` when the CPU running this process has AVX2.
    pub(super) fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }

    /// Compresses `blocks[l]` into lane `l` of `lanes` for every live lane,
    /// under the counters and last-block flags `lanes` holds.
    pub(super) fn compress(self, lanes: &mut Lanes, blocks: [&[u8; 64]; LANES]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Avx2` exists only after `detect` saw AVX2 on this CPU,
        // which is all `compress8` requires of its caller.
        unsafe {
            kernel::compress8(lanes, blocks)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (lanes, blocks);
            unreachable!("`detect` makes no Avx2 off x86_64")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod kernel {
    use super::{Lanes, LANES};
    use crate::hash::{IV, SIGMA};
    use std::arch::x86_64::*;

    /// Loads eight words.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(a: &[u32; LANES]) -> __m256i {
        // SAFETY: `a` is 32 readable bytes, and `loadu` takes any alignment.
        unsafe { _mm256_loadu_si256(a.as_ptr().cast()) }
    }

    /// Stores eight words.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(a: &mut [u32; LANES], v: __m256i) {
        // SAFETY: `a` is 32 writable bytes, and `storeu` takes any alignment.
        unsafe { _mm256_storeu_si256(a.as_mut_ptr().cast(), v) }
    }

    /// Loads 32 bytes of a block: eight little-endian message words.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_words(b: &[u8; 32]) -> __m256i {
        // SAFETY: `b` is 32 readable bytes, and `loadu` takes any alignment.
        unsafe { _mm256_loadu_si256(b.as_ptr().cast()) }
    }

    /// Transposes eight rows of eight words: word `i` of the result's
    /// vector `j` is word `j` of row `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(r: [__m256i; 8]) -> [__m256i; 8] {
        // Pairs of rows interleaved word by word, then word pairs by pairs:
        // each 128-bit half then holds one column's four rows.
        let a0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let a1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let a2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let a3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let a4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let a5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let a6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let a7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let b0 = _mm256_unpacklo_epi64(a0, a2);
        let b1 = _mm256_unpackhi_epi64(a0, a2);
        let b2 = _mm256_unpacklo_epi64(a1, a3);
        let b3 = _mm256_unpackhi_epi64(a1, a3);
        let b4 = _mm256_unpacklo_epi64(a4, a6);
        let b5 = _mm256_unpackhi_epi64(a4, a6);
        let b6 = _mm256_unpacklo_epi64(a5, a7);
        let b7 = _mm256_unpackhi_epi64(a5, a7);
        // Rows 0-3 and rows 4-7 of each column joined across the halves.
        [
            _mm256_permute2x128_si256::<0x20>(b0, b4),
            _mm256_permute2x128_si256::<0x20>(b1, b5),
            _mm256_permute2x128_si256::<0x20>(b2, b6),
            _mm256_permute2x128_si256::<0x20>(b3, b7),
            _mm256_permute2x128_si256::<0x31>(b0, b4),
            _mm256_permute2x128_si256::<0x31>(b1, b5),
            _mm256_permute2x128_si256::<0x31>(b2, b6),
            _mm256_permute2x128_si256::<0x31>(b3, b7),
        ]
    }

    /// The sixteen message words of each lane's block: vector `w` holds
    /// word `w` of every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn message(blocks: [&[u8; 64]; LANES]) -> [__m256i; 16] {
        let half = |i: usize| {
            std::array::from_fn(|l| {
                let (lo, hi) = blocks[l].split_at(32);
                load_words(if i == 0 { lo } else { hi }.try_into().expect("32 bytes"))
            })
        };
        let (lo, hi) = (transpose(half(0)), transpose(half(1)));
        std::array::from_fn(|w| if w < 8 { lo[w] } else { hi[w - 8] })
    }

    /// The quarter-round `G` on columns or diagonals `(a, b, c, d)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn g(v: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize, x: __m256i, y: __m256i) {
        // Rotations by 16 and 8 move whole bytes: one shuffle each.
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12, //
            1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12,
        );
        v[a] = _mm256_add_epi32(_mm256_add_epi32(v[a], v[b]), x);
        v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot16);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        let t = _mm256_xor_si256(v[b], v[c]);
        v[b] = _mm256_or_si256(_mm256_srli_epi32::<12>(t), _mm256_slli_epi32::<20>(t));
        v[a] = _mm256_add_epi32(_mm256_add_epi32(v[a], v[b]), y);
        v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot8);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        let t = _mm256_xor_si256(v[b], v[c]);
        v[b] = _mm256_or_si256(_mm256_srli_epi32::<7>(t), _mm256_slli_epi32::<25>(t));
    }

    /// `Blake2s::compress` in every lane at once: the same ten rounds on
    /// the same words, one lane per 32-bit element. Calling it needs
    /// `unsafe` and a CPU with AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn compress8(s: &mut Lanes, blocks: [&[u8; 64]; LANES]) {
        let m = message(blocks);
        let mut v: [__m256i; 16] = std::array::from_fn(|i| match i {
            0..=7 => load(&s.h[i]),
            _ => _mm256_set1_epi32(IV[i - 8] as i32),
        });
        v[12] = _mm256_xor_si256(v[12], load(&s.t[0]));
        v[13] = _mm256_xor_si256(v[13], load(&s.t[1]));
        v[14] = _mm256_xor_si256(v[14], load(&s.last));
        for sigma in &SIGMA {
            g(&mut v, 0, 4, 8, 12, m[sigma[0]], m[sigma[1]]);
            g(&mut v, 1, 5, 9, 13, m[sigma[2]], m[sigma[3]]);
            g(&mut v, 2, 6, 10, 14, m[sigma[4]], m[sigma[5]]);
            g(&mut v, 3, 7, 11, 15, m[sigma[6]], m[sigma[7]]);
            g(&mut v, 0, 5, 10, 15, m[sigma[8]], m[sigma[9]]);
            g(&mut v, 1, 6, 11, 12, m[sigma[10]], m[sigma[11]]);
            g(&mut v, 2, 7, 8, 13, m[sigma[12]], m[sigma[13]]);
            g(&mut v, 3, 4, 9, 14, m[sigma[14]], m[sigma[15]]);
        }
        let live = load(&s.live);
        for w in 0..8 {
            let h = load(&s.h[w]);
            let next = _mm256_xor_si256(h, _mm256_xor_si256(v[w], v[w + 8]));
            store(&mut s.h[w], _mm256_blendv_epi8(h, next, live));
        }
    }
}

//! AVX2 unpack-and-compare scan kernels.
//!
//! The paper's `search` (§3.1.3, Fig. 1) is a vector compare over n-bit
//! packed identifiers. Where the host has AVX2 and the width is in
//! [`LANE_BYTES`]'s rule, [`crate::kernels`] hands the interior chunks of a
//! run to these kernels; windowed SWAR evaluates every other chunk, width
//! and host, and is the oracle these kernels are tested against.
//!
//! * **Unpack.** A 256-bit vector holds 16 lanes of 16 bits (`n <= 9`) or
//!   8 lanes of 32 bits (`10 <= n <= 25`). Each 128-bit half is one
//!   16-byte load starting at the byte holding its first value
//!   ([`half_offset`]); `vpshufb` gathers the 2 or 4 bytes holding each
//!   lane's value, whose bit offset `s` inside them is a per-lane constant.
//!   16-bit lanes then multiply by `2^(16 - n - s)`, which lifts every
//!   value to the top of its lane, and mask off the bits below it (so
//!   probes are compared lifted too); 32-bit lanes shift right by `s` per
//!   lane and mask. Every constant is a function of the width, a const
//!   generic.
//! * **Compare.** Equality is one `vpcmpeq`; a range `lo..=hi` is
//!   `min_epu(v - lo, hi - lo) == v - lo` (a value below `lo` wraps above
//!   `hi - lo`); a small `IN` list is the OR of its members' compares.
//! * **Sinks.** COUNT subtracts the compare masks (all ones where a lane
//!   matches) into lane counters, summed before they can wrap. A bitmap
//!   packs the masks to bytes and movemasks them into exactly the chunk
//!   bitmap SWAR produces (bit `i` set ⇔ slot `i` matches).
//!
//! Both forms of [`crate::Packed`] are read as bytes: a resident word slice is
//! viewed as its little-endian bytes. Every load ends inside the slice:
//! only chunks below [`chunks_in_place`] are unpacked here, and the caller
//! evaluates the rest with SWAR.
//!
//! This module and [`crate::unaligned`] hold the crate's unsafe code: the
//! raw 16-byte loads, the word-to-byte view, and the calls into
//! `#[target_feature(enable = "avx2")]` functions, which are reached only
//! through an [`Avx2`] token that runtime detection hands out. Under Miri
//! detection always fails, so the interpreted tests run the SWAR path.

use crate::kernels::MAX_LINEAR_SET;
use std::ops::Range;

/// Lane size in bytes of the AVX2 kernel serving each width (index = bits),
/// 0 where windowed SWAR serves it. Fixed from a per-width sweep of
/// ns/symbol against SWAR on a 2-vCPU Xeon @ 2.1 GHz (DESIGN §5d has the
/// table):
///
/// * n = 1: SWAR packs 64 lanes into a word, 0.02 ns/symbol for a bitmap;
///   a 16-bit-lane kernel costs what it does at n = 2, 0.07.
/// * n = 2..=9, 16 lanes of 16 bits: 1.2–1.9× faster than SWAR at n = 2
///   (one tie, a range count at n = 4) and 2–8× at 3..=9.
/// * n = 10..=25, 8 lanes of 32 bits: 2–4× faster up to 16 and 4–13×
///   above, where SWAR windows hold two lanes.
/// * n = 26..=32: a value at bit offset 7 no longer fits 32 bits.
pub(crate) const LANE_BYTES: [usize; 33] = {
    let mut t = [0; 33];
    let mut n = 2;
    while n <= 25 {
        t[n] = if n <= 9 { 2 } else { 4 };
        n += 1;
    }
    t
};

/// Values per 128-bit half at width `n` (an AVX2 width).
const fn half_values(n: u32) -> usize {
    16 / LANE_BYTES[n as usize]
}

/// Halves per 64-value chunk at width `n`.
const fn halves(n: u32) -> usize {
    64 / half_values(n)
}

/// Byte offset, from the chunk's first byte, of the 16-byte load feeding
/// half `h` at width `n`: the byte holding the half's first value. Half
/// `2g` is the low half of vector `g` and half `2g + 1` its high half.
pub(crate) const fn half_offset(n: u32, h: usize) -> usize {
    h * half_values(n) * n as usize / 8
}

/// Bit offset of value `j` of half `h` inside that half's 16-byte load.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
const fn lane_bit(n: u32, h: usize, j: usize) -> usize {
    (h * half_values(n) + j) * n as usize - 8 * half_offset(n, h)
}

/// The leading chunks of a `len`-byte run whose every load at width `n`
/// (an AVX2 width) ends inside the run. The furthest load of a chunk ends
/// past the chunk's last byte, so at least the run's last chunk is left
/// to SWAR.
pub(crate) const fn chunks_in_place(len: usize, n: u32) -> usize {
    let reach = half_offset(n, halves(n) - 1) + 16;
    if len < reach {
        0
    } else {
        (len - reach) / (8 * n as usize) + 1
    }
}

/// A predicate on raw (unreplicated) lane values, as the kernels take it.
/// Without the kernels (another ISA, Miri) nothing reads the operands.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) enum Test {
    /// `v == p`.
    Eq(u32),
    /// `lo <= v <= hi`.
    Range(u32, u32),
    /// `v` is one of the first `k` members.
    AnyOf([u32; MAX_LINEAR_SET], usize),
}

pub(crate) use imp::Avx2;

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod imp {
    use super::{chunks_in_place, half_offset, lane_bit, Range, Test, LANE_BYTES, MAX_LINEAR_SET};
    use crate::kernels::Packed;
    use std::arch::x86_64::*;

    /// Proof that the host executes AVX2: only [`Avx2::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        /// The token, if the host has AVX2.
        pub(crate) fn detect() -> Option<Avx2> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        /// Appends the bitmaps of chunks `chunks` of `src` at width `bits`.
        ///
        /// # Panics
        ///
        /// If `bits` has no AVX2 kernel or a chunk is not in place.
        pub(crate) fn bitmaps(
            self,
            src: Packed<'_>,
            bits: u32,
            chunks: Range<usize>,
            test: &Test,
            out: &mut Vec<u64>,
        ) {
            let bytes = bytes_of(src);
            assert!(chunks.end <= chunks_in_place(bytes.len(), bits), "chunk read past its run");
            out.reserve(chunks.len());
            let kernel = BITMAPS[bits as usize].expect("width without an AVX2 kernel");
            // SAFETY: the token proves the host has AVX2, and the assert
            // above is the kernel's bound on `chunks`.
            unsafe { kernel(bytes, chunks, test, out) }
        }

        /// The number of matches in chunks `chunks` of `src` at width
        /// `bits`.
        ///
        /// # Panics
        ///
        /// If `bits` has no AVX2 kernel or a chunk is not in place.
        pub(crate) fn count(
            self,
            src: Packed<'_>,
            bits: u32,
            chunks: Range<usize>,
            test: &Test,
        ) -> u64 {
            let bytes = bytes_of(src);
            assert!(chunks.end <= chunks_in_place(bytes.len(), bits), "chunk read past its run");
            let kernel = COUNTS[bits as usize].expect("width without an AVX2 kernel");
            // SAFETY: as in `bitmaps`.
            unsafe { kernel(bytes, chunks, test) }
        }
    }

    /// The packed bytes of `src`: a word slice is read as its bytes, which
    /// are little-endian on x86-64.
    fn bytes_of(src: Packed<'_>) -> &[u8] {
        match src {
            Packed::Bytes(bytes) => bytes,
            // SAFETY: the view covers exactly the words' memory, borrowed
            // for as long as the words; `u8` has no alignment requirement
            // and every bit pattern is a valid `u8`.
            Packed::Words(words) => unsafe {
                std::slice::from_raw_parts(
                    words.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(words),
                )
            },
        }
    }

    /// A width's bitmap kernel ([`bitmaps`]).
    ///
    /// # Safety
    ///
    /// AVX2 is available and every chunk is below [`chunks_in_place`].
    type BitmapKernel = unsafe fn(&[u8], Range<usize>, &Test, &mut Vec<u64>);
    /// A width's count kernel ([`count`]).
    ///
    /// # Safety
    ///
    /// As for [`BitmapKernel`].
    type CountKernel = unsafe fn(&[u8], Range<usize>, &Test) -> u64;

    macro_rules! by_width {
        ($kind:ident, $f:ident) => {{
            let mut t: [Option<$kind>; 33] = [None; 33];
            by_width!(@set t $f 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25);
            t
        }};
        (@set $t:ident $f:ident $($n:literal)*) => { $($t[$n] = Some($f::<$n>);)* };
    }

    const BITMAPS: [Option<BitmapKernel>; 33] = by_width!(BitmapKernel, bitmaps);
    const COUNTS: [Option<CountKernel>; 33] = by_width!(CountKernel, count);

    /// 32 bytes as a vector constant (`_mm256_set_epi64x` of constant
    /// operands folds to one constant load).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn constant(bytes: [u8; 32]) -> __m256i {
        let q = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            i64::from_le_bytes(w)
        };
        _mm256_set_epi64x(q(3), q(2), q(1), q(0))
    }

    /// The unpacking of width `N`, as compile-time constants.
    struct Unpack<const N: u32>;

    impl<const N: u32> Unpack<N> {
        const LANE: usize = LANE_BYTES[N as usize];
        /// Vectors per chunk.
        const VECTORS: usize = 64 * Self::LANE / 32;
        /// `vpshufb` control: lane `j` of half `h` gathers the `LANE`
        /// bytes starting at the byte holding its value's first bit. Both
        /// halves of every vector share one control: a vector's low half
        /// starts on a byte, and every high half at the same bit offset.
        const SHUFFLE: [u8; 32] = {
            let mut c = [0u8; 32];
            let mut i = 0;
            while i < 32 {
                let (h, lane, byte) = (i / 16, (i % 16) / Self::LANE, i % Self::LANE);
                c[i] = (lane_bit(N, h, lane) / 8 + byte) as u8;
                i += 1;
            }
            c
        };
        /// Bit offset of each lane's value inside its gathered bytes: for
        /// 16-bit lanes the multiplier `2^(16 - N - s)` that lifts it to
        /// the lane's top, for 32-bit lanes the shift `s` itself.
        const ALIGN: [u8; 32] = {
            let mut c = [0u8; 32];
            let mut lane = 0;
            while lane < 32 / Self::LANE {
                let (h, j) = (lane * Self::LANE / 16, lane % (16 / Self::LANE));
                let s = lane_bit(N, h, j) % 8;
                let v = if Self::LANE == 2 { 1u32 << (16 - N as usize - s) } else { s as u32 };
                let le = v.to_le_bytes();
                let mut b = 0;
                while b < Self::LANE {
                    c[lane * Self::LANE + b] = le[b];
                    b += 1;
                }
                lane += 1;
            }
            c
        };
    }

    /// The 16 bytes at `lo` and the 16 at `hi`, as one vector's low and
    /// high halves.
    ///
    /// # Safety
    ///
    /// `lo + 16 <= bytes.len()` and `hi + 16 <= bytes.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(bytes: &[u8], lo: usize, hi: usize) -> __m256i {
        debug_assert!(lo.max(hi) + 16 <= bytes.len(), "load past the run");
        // SAFETY: the caller guarantees both 16-byte reads lie inside
        // `bytes`; `loadu` has no alignment requirement.
        unsafe { _mm256_loadu2_m128i(bytes.as_ptr().add(hi).cast(), bytes.as_ptr().add(lo).cast()) }
    }

    /// `v` broadcast to every lane of width `N`'s vectors, lifted like the
    /// unpacked values in 16-bit lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat<const N: u32>(v: u32) -> __m256i {
        if Unpack::<N>::LANE == 2 {
            _mm256_set1_epi16((v << (16 - N)) as i16)
        } else {
            _mm256_set1_epi32(v as i32)
        }
    }

    /// All ones in every lane where `a == b`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn eq<const N: u32>(a: __m256i, b: __m256i) -> __m256i {
        if Unpack::<N>::LANE == 2 {
            _mm256_cmpeq_epi16(a, b)
        } else {
            _mm256_cmpeq_epi32(a, b)
        }
    }

    /// Lane-wise `a - b`, wrapping.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sub<const N: u32>(a: __m256i, b: __m256i) -> __m256i {
        if Unpack::<N>::LANE == 2 {
            _mm256_sub_epi16(a, b)
        } else {
            _mm256_sub_epi32(a, b)
        }
    }

    /// All ones in every lane where `lo <= v <= lo + span`: `v - lo`
    /// wraps above `span` for every `v < lo`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn within<const N: u32>(v: __m256i, lo: __m256i, span: __m256i) -> __m256i {
        let d = sub::<N>(v, lo);
        let min = if Unpack::<N>::LANE == 2 {
            _mm256_min_epu16(d, span)
        } else {
            _mm256_min_epu32(d, span)
        };
        eq::<N>(min, d)
    }

    /// All ones in every lane equal to one of `members`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn any<const N: u32>(v: __m256i, members: &[__m256i]) -> __m256i {
        let mut m = eq::<N>(v, members[0]);
        for &s in &members[1..] {
            m = _mm256_or_si256(m, eq::<N>(v, s));
        }
        m
    }

    /// Runs `$body` with `$h` bound to `$test`'s compare at width `$n` —
    /// lanes in, all ones out where a lane matches — so every kind of
    /// test gets its own loop. `IN` lists of 2..=4 members (the common
    /// ones) hold their operands in an array of that length, which
    /// unrolls the compares.
    macro_rules! with_hits {
        ($n:ident, $test:expr, $h:ident => $body:expr) => {
            match *$test {
                Test::Eq(p) => {
                    let p = splat::<$n>(p);
                    let $h = move |v| eq::<$n>(v, p);
                    $body
                }
                Test::Range(lo, hi) => {
                    let (lo, span) = (splat::<$n>(lo), splat::<$n>(hi - lo));
                    let $h = move |v| within::<$n>(v, lo, span);
                    $body
                }
                Test::AnyOf(m, 2) => with_hits!(@any $n, m, 2, $h => $body),
                Test::AnyOf(m, 3) => with_hits!(@any $n, m, 3, $h => $body),
                Test::AnyOf(m, 4) => with_hits!(@any $n, m, 4, $h => $body),
                Test::AnyOf(m, k) => {
                    let s: [__m256i; MAX_LINEAR_SET] = std::array::from_fn(|i| splat::<$n>(m[i]));
                    let $h = move |v| any::<$n>(v, &s[..k]);
                    $body
                }
            }
        };
        (@any $n:ident, $m:ident, $k:literal, $h:ident => $body:expr) => {{
            let s: [__m256i; $k] = std::array::from_fn(|i| splat::<$n>($m[i]));
            let $h = move |v| any::<$n>(v, &s);
            $body
        }};
    }

    /// Chunks a run of 16-bit lane counters takes before it is summed:
    /// every chunk adds at most 4 to a lane.
    const FLUSH16: usize = u16::MAX as usize / 4;
    /// As [`FLUSH16`] for 32-bit lanes, 8 per chunk.
    const FLUSH32: usize = u32::MAX as usize / 8;

    /// Sum of the 16 unsigned 16-bit lanes of `acc`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sum16(acc: __m256i) -> u64 {
        let zero = _mm256_setzero_si256();
        let low = _mm256_sad_epu8(_mm256_and_si256(acc, _mm256_set1_epi16(0xFF)), zero);
        let high = _mm256_sad_epu8(_mm256_srli_epi16::<8>(acc), zero);
        sum64(_mm256_add_epi64(low, _mm256_slli_epi64::<8>(high)))
    }

    /// Sum of the 8 unsigned 32-bit lanes of `acc`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sum32(acc: __m256i) -> u64 {
        let zero = _mm256_setzero_si256();
        sum64(_mm256_add_epi64(_mm256_unpacklo_epi32(acc, zero), _mm256_unpackhi_epi32(acc, zero)))
    }

    /// Sum of the 4 64-bit lanes of `x`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sum64(x: __m256i) -> u64 {
        let lanes = [
            _mm256_extract_epi64::<0>(x),
            _mm256_extract_epi64::<1>(x),
            _mm256_extract_epi64::<2>(x),
            _mm256_extract_epi64::<3>(x),
        ];
        lanes.iter().map(|&l| l as u64).sum()
    }

    /// The chunk bitmap from its vectors' compare masks (the first
    /// `VECTORS` of `m`, in slot order).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn movemask<const N: u32>(m: &[__m256i; 8]) -> u64 {
        if Unpack::<N>::LANE == 2 {
            // `packs` interleaves its inputs' 128-bit halves; the permute
            // puts the first vector's two halves before the second's.
            let half = |a, b| {
                let bytes = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi16(a, b));
                u64::from(_mm256_movemask_epi8(bytes) as u32)
            };
            half(m[0], m[1]) | half(m[2], m[3]) << 32
        } else {
            // Four vectors' bytes come out of the two packs as [m0 0..4,
            // m1 0..4, m2 0..4, m3 0..4 | m0 4..8, m1 4..8, m2 4..8, m3
            // 4..8]; the dword permute restores vector order.
            let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
            let half = |a, b, c, d| {
                let bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
                u64::from(_mm256_movemask_epi8(_mm256_permutevar8x32_epi32(bytes, order)) as u32)
            };
            half(m[0], m[1], m[2], m[3]) | half(m[4], m[5], m[6], m[7]) << 32
        }
    }

    /// Vector `g` of the chunk at byte `at`, unpacked into width `N`'s
    /// lanes: 16-bit lanes hold each value lifted to the lane's top,
    /// `v << (16 - N)`, 32-bit lanes hold it as is.
    ///
    /// # Safety
    ///
    /// `at + half_offset(N, 2 * g + 1) + 16 <= bytes.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn unpack<const N: u32>(bytes: &[u8], at: usize, g: usize) -> __m256i {
        let (lo, hi) = (at + half_offset(N, 2 * g), at + half_offset(N, 2 * g + 1));
        // SAFETY: the caller's bound covers both halves' loads.
        let raw = unsafe { load(bytes, lo, hi) };
        let gathered = _mm256_shuffle_epi8(raw, constant(Unpack::<N>::SHUFFLE));
        let align = constant(Unpack::<N>::ALIGN);
        if Unpack::<N>::LANE == 2 {
            let lifted = _mm256_mullo_epi16(gathered, align);
            _mm256_and_si256(lifted, _mm256_set1_epi16((0xFFFF_u32 << (16 - N)) as i16))
        } else {
            let shifted = _mm256_srlv_epi32(gathered, align);
            _mm256_and_si256(shifted, _mm256_set1_epi32(((1u64 << N) - 1) as i32))
        }
    }

    /// Bitmap kernel of width `N`.
    ///
    /// # Safety
    ///
    /// AVX2 is available and `chunks.end <= chunks_in_place(bytes.len(), N)`.
    #[target_feature(enable = "avx2")]
    unsafe fn bitmaps<const N: u32>(
        bytes: &[u8],
        chunks: Range<usize>,
        test: &Test,
        out: &mut Vec<u64>,
    ) {
        // SAFETY: the contracts are the same.
        with_hits!(N, test, h => unsafe { bitmaps_with::<N>(bytes, chunks, h, out) })
    }

    /// [`bitmaps`] under compare `h`.
    ///
    /// # Safety
    ///
    /// As for [`bitmaps`].
    #[target_feature(enable = "avx2")]
    unsafe fn bitmaps_with<const N: u32>(
        bytes: &[u8],
        chunks: Range<usize>,
        h: impl Fn(__m256i) -> __m256i,
        out: &mut Vec<u64>,
    ) {
        for ci in chunks {
            let at = ci * 8 * N as usize;
            let mut m = [_mm256_setzero_si256(); 8];
            for (g, m) in m[..Unpack::<N>::VECTORS].iter_mut().enumerate() {
                // SAFETY: `ci < chunks_in_place(bytes.len(), N)`, so every
                // load of the chunk is in place.
                *m = h(unsafe { unpack::<N>(bytes, at, g) });
            }
            out.push(movemask::<N>(&m));
        }
    }

    /// Count kernel of width `N`.
    ///
    /// # Safety
    ///
    /// As for [`bitmaps`].
    #[target_feature(enable = "avx2")]
    unsafe fn count<const N: u32>(bytes: &[u8], chunks: Range<usize>, test: &Test) -> u64 {
        // SAFETY: the contracts are the same.
        with_hits!(N, test, h => unsafe { count_with::<N>(bytes, chunks, h) })
    }

    /// [`count`] under compare `h`: the masks are subtracted into lane
    /// counters, summed every [`FLUSH16`] / [`FLUSH32`] chunks.
    ///
    /// # Safety
    ///
    /// As for [`bitmaps`].
    #[target_feature(enable = "avx2")]
    unsafe fn count_with<const N: u32>(
        bytes: &[u8],
        chunks: Range<usize>,
        h: impl Fn(__m256i) -> __m256i,
    ) -> u64 {
        let wide = Unpack::<N>::LANE == 4;
        let flush = if wide { FLUSH32 } else { FLUSH16 };
        let mut total = 0;
        let mut start = chunks.start;
        while start < chunks.end {
            let stop = chunks.end.min(start + flush);
            let mut acc = _mm256_setzero_si256();
            for ci in start..stop {
                let at = ci * 8 * N as usize;
                for g in 0..Unpack::<N>::VECTORS {
                    // SAFETY: as in `bitmaps_with`.
                    acc = sub::<N>(acc, h(unsafe { unpack::<N>(bytes, at, g) }));
                }
            }
            total += if wide { sum32(acc) } else { sum16(acc) };
            start = stop;
        }
        total
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
mod imp {
    use super::{Range, Test};
    use crate::kernels::Packed;

    /// No host of this build has AVX2 (or Miri interprets it): the token
    /// cannot be made.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Avx2 {}

    impl Avx2 {
        pub(crate) fn detect() -> Option<Avx2> {
            None
        }

        pub(crate) fn bitmaps(
            self,
            _: Packed<'_>,
            _: u32,
            _: Range<usize>,
            _: &Test,
            _: &mut Vec<u64>,
        ) {
            match self {}
        }

        pub(crate) fn count(self, _: Packed<'_>, _: u32, _: Range<usize>, _: &Test) -> u64 {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_loads_stay_inside_the_run() {
        for n in (1..=32u32).filter(|&n| LANE_BYTES[n as usize] != 0) {
            let (per, lane) = (8 * n as usize, LANE_BYTES[n as usize]);
            // Every value's bits lie inside the bytes its lane gathers, and
            // those inside the half's 16-byte load.
            for h in 0..halves(n) {
                for j in 0..half_values(n) {
                    let (bit, value) = (lane_bit(n, h, j), (h * half_values(n) + j) * n as usize);
                    assert_eq!(8 * half_offset(n, h) + bit, value, "n={n} h={h} j={j}");
                    assert!(
                        bit % 8 + n as usize <= 8 * lane,
                        "n={n} h={h} j={j}: value overflows its lane"
                    );
                    assert!(bit / 8 + lane <= 16, "n={n} h={h} j={j}: lane past the load");
                }
            }
            // Runs of 1..=6 chunks with 0..=40 bytes of slack: every load of
            // a chunk below `chunks_in_place` ends inside the run, and only
            // chunks with fewer than 16 bytes after them are left out.
            for len in (per..=6 * per + 40).filter(|len| len % per <= 40) {
                let in_place = chunks_in_place(len, n);
                for ci in 0..in_place {
                    for h in 0..halves(n) {
                        let end = ci * per + half_offset(n, h) + 16;
                        assert!(end <= len, "n={n} len={len} chunk {ci} half {h} ends at {end}");
                    }
                }
                for ci in (0..len / per).filter(|ci| (ci + 1) * per + 16 <= len) {
                    assert!(ci < in_place, "n={n} len={len}: chunk {ci} has 16 bytes after it");
                }
            }
        }
    }
}

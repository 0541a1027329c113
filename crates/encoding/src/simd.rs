//! AVX-512 VBMI unpack kernels: scans and `mget`.
//!
//! The paper's `search` (§3.1.3, Fig. 1) is a vector compare over n-bit
//! packed identifiers, and its `mget` a vector unpack. Where the host has
//! AVX-512 VBMI and the width is in [`LANE_BYTES`]'s rule, [`crate::kernels`]
//! hands a whole run — a pinned page's chunks or a resident word run, edge
//! chunks included — to these kernels in one call, and [`crate::chunk`]
//! unpacks chunks through them; windowed SWAR evaluates every other width
//! and host, the word-parallel or slot-by-slot chunk decode unpacks them,
//! and both are the oracles these kernels are tested against.
//!
//! * **Unpack.** A 512-bit vector holds 64 lanes of 8 bits (`n <= 8`, one
//!   vector per chunk), 32 of 16 bits (`n <= 16`, two) or 16 of 32 bits
//!   (the wider widths whose values fit one, four). Vector `g` of a chunk is
//!   one 64-byte load at the byte holding its first value
//!   ([`vector_offset`]). `vpermb` ([`permute`]) gathers into each group —
//!   a qword of 8 or 4 values for 8- and 16-bit lanes, the lane itself for
//!   32-bit ones — the bytes holding the group's values; `vpmultishiftqb`
//!   (8- and 16-bit lanes) or `vpsrlvd` (32-bit lanes) then moves every
//!   value to the bottom of its lane ([`shift`]), and a mask clears the bits
//!   above it. Every constant is a function of the width, a const generic.
//! * **Compare.** One `vpcmp*_mask` per probe gives a k-mask with bit `i`
//!   set where lane `i` matches: equality; a range `lo..=hi` as
//!   `v - lo <= hi - lo` unsigned (a value below `lo` wraps above
//!   `hi - lo`); a small `IN` list as the OR of its members' masks. The
//!   compare itself is masked by the run's `head` / `tail` slots.
//! * **Sinks.** A bitmap is the chunk's k-masks side by side — exactly the
//!   chunk bitmap SWAR produces (bit `i` set ⇔ slot `i` matches). COUNT adds
//!   1 under the k-mask into lane counters, widened into 64-bit sums before
//!   a counter can wrap. `mget` widens every lane to 64 bits with a zeroing
//!   `vpermb` ([`widen_lanes`]) and stores the chunk's 64 values.
//!
//! Both forms of [`crate::Packed`] are read as bytes: a resident word slice
//! is viewed as its little-endian bytes. A load that would end past the run
//! is masked to the run's bytes ([`load_mask`]); a masked-out byte is never
//! read, so no load reaches past the slice.
//!
//! This module and [`crate::unaligned`] hold the crate's unsafe code: the
//! raw 64-byte loads and stores, the word-to-byte view, and the calls into
//! `#[target_feature]` functions (AVX-512 F, BW and VBMI), which are
//! reached only through a [`Vbmi`] token that runtime detection hands out. Under
//! Miri detection always fails, so the interpreted tests run the SWAR path
//! and the portable decode; the load offsets, masks and gathers are safe
//! functions they check.

use crate::kernels::MAX_LINEAR_SET;

/// Bytes of the group a value is gathered into at lane size `lane`: a
/// qword for 8- and 16-bit lanes, the lane itself for 32-bit ones.
const fn group_bytes(lane: usize) -> usize {
    if lane == 4 {
        4
    } else {
        8
    }
}

/// Where group `q` of a vector starts at width `n` and lane size `lane`:
/// the byte of the vector's load holding the group's first value, and that
/// value's bit offset inside the byte.
const fn group_start(n: usize, lane: usize, q: usize) -> (usize, usize) {
    let bit = q * (group_bytes(lane) / lane) * n;
    (bit / 8, bit % 8)
}

/// True when lane size `lane` holds every value of width `n`: each group's
/// values, from their bit offset in its first byte, end inside the group.
const fn fits(n: usize, lane: usize) -> bool {
    let (bytes, per) = (group_bytes(lane), group_bytes(lane) / lane);
    let mut q = 0;
    while q < 64 / bytes {
        if group_start(n, lane, q).1 + per * n > 8 * bytes {
            return false;
        }
        q += 1;
    }
    true
}

/// Lane size in bytes of the kernel serving each width (index = bits), 0
/// where windowed SWAR serves it: the narrowest lane that holds the width's
/// values. That is 8-bit lanes for 2..=8, 16-bit for 9..=16 and 32-bit for
/// 17..=26, 28 and 32 (a value at bit offset 7 of its first byte overflows
/// 32 bits at 27, 29, 30 and 31). Width 1 stays SWAR: 64 lanes per word
/// make its bitmap one XOR, 1.8× faster than an 8-bit-lane kernel. A
/// per-width sweep against SWAR on a 2-vCPU Xeon (DESIGN §5d has the
/// table) found the kernels faster at every width they serve.
pub(crate) const LANE_BYTES: [usize; 33] = {
    let mut t = [0; 33];
    let mut n = 2;
    while n <= 32 {
        t[n] = if fits(n, 1) {
            1
        } else if fits(n, 2) {
            2
        } else if fits(n, 4) {
            4
        } else {
            0
        };
        n += 1;
    }
    t
};

/// Values per vector at width `n` (a served width).
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
const fn vector_values(n: u32) -> usize {
    64 / LANE_BYTES[n as usize]
}

/// Byte offset, from the chunk's first byte, of vector `g`'s load at width
/// `n`: the byte holding its first value (a vector's values fill whole
/// bytes, so every vector starts on one).
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) const fn vector_offset(n: u32, g: usize) -> usize {
    g * vector_values(n) * n as usize / 8
}

/// The bytes of the run a load at byte `at` of a `len`-byte run reads, as
/// the mask of its 64 bytes: all of them when the load ends inside the
/// run, else those before the run's end.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) const fn load_mask(len: usize, at: usize) -> u64 {
    match len - at {
        rest if rest >= 64 => u64::MAX,
        rest => (1 << rest) - 1,
    }
}

/// The `vpermb` control of width `n`: byte `i` of a vector takes byte
/// `permute(n)[i]` of its load — group `i / group_bytes` gathers the bytes
/// from the one holding its first value on.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) const fn permute(n: u32) -> [u8; 64] {
    let (n, lane) = (n as usize, LANE_BYTES[n as usize]);
    let bytes = group_bytes(lane);
    let mut c = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        c[i] = (group_start(n, lane, i / bytes).0 + i % bytes) as u8;
        i += 1;
    }
    c
}

/// The shifts that move each gathered value to the bottom of its lane at
/// width `n`. For 8- and 16-bit lanes it is the `vpmultishiftqb` control:
/// byte `b` of a lane takes the 8 bits of its qword from bit
/// `value offset + 8 b`. For 32-bit lanes each lane holds its `vpsrlvd`
/// count, the value's bit offset.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) const fn shift(n: u32) -> [u8; 64] {
    let (n, lane) = (n as usize, LANE_BYTES[n as usize]);
    let bytes = group_bytes(lane);
    let mut c = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        let (q, at) = (i / bytes, i % bytes);
        let r = group_start(n, lane, q).1;
        c[i] = if lane == 4 {
            if at == 0 {
                r as u8
            } else {
                0
            }
        } else {
            (r + at / lane * n + at % lane * 8) as u8
        };
        i += 1;
    }
    c
}

/// The zeroing `vpermb` control that widens lanes `8k..8k + 8` of a vector
/// of `lane`-byte lanes to 64 bits: qword `j` takes lane `8k + j`'s bytes
/// in its low bytes; [`widen_lanes_mask`] zeroes the rest.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) const fn widen_lanes(lane: usize, k: usize) -> [u8; 64] {
    let mut c = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        let (j, b) = (i / 8, i % 8);
        c[i] = ((8 * k + j) * lane + if b < lane { b } else { 0 }) as u8;
        i += 1;
    }
    c
}

/// The bytes of each qword a [`widen_lanes`] of `lane`-byte lanes keeps.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
pub(crate) const fn widen_lanes_mask(lane: usize) -> u64 {
    ((1u64 << lane) - 1) * 0x0101_0101_0101_0101
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

pub(crate) use imp::Vbmi;

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod imp {
    use super::{
        load_mask, permute, shift, vector_offset, widen_lanes, widen_lanes_mask, Test, LANE_BYTES,
        MAX_LINEAR_SET,
    };
    use crate::kernels::Packed;
    use std::arch::x86_64::*;

    /// Proof that the host executes AVX-512 F, BW and VBMI: only
    /// [`Vbmi::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Vbmi(());

    impl Vbmi {
        /// The token, if the host has AVX-512 F, BW and VBMI.
        pub(crate) fn detect() -> Option<Vbmi> {
            let vbmi = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi");
            vbmi.then_some(Vbmi(()))
        }

        /// Appends one bitmap per chunk of `src` at width `bits`.
        ///
        /// # Panics
        ///
        /// If `bits` has no kernel.
        pub(crate) fn bitmaps(self, src: Packed<'_>, bits: u32, test: &Test, out: &mut Vec<u64>) {
            let kernel = BITMAPS[bits as usize].expect("width without a VBMI kernel");
            // SAFETY: the token proves the host has the kernel's features.
            unsafe { kernel(bytes_of(src), test, out) }
        }

        /// The number of matches in the chunks of `src` at width `bits`,
        /// counting only the slots in `head` of the first chunk and in
        /// `tail` of the last.
        ///
        /// # Panics
        ///
        /// If `bits` has no kernel.
        pub(crate) fn count(
            self,
            src: Packed<'_>,
            bits: u32,
            test: &Test,
            head: u64,
            tail: u64,
        ) -> u64 {
            let kernel = COUNTS[bits as usize].expect("width without a VBMI kernel");
            // SAFETY: as in `bitmaps`.
            unsafe { kernel(bytes_of(src), test, head, tail) }
        }

        /// Unpacks chunks `first..` of `src` at width `bits` into `out`, 64
        /// values a chunk, as many chunks as `out` holds.
        ///
        /// # Panics
        ///
        /// If `bits` has no kernel, `out` is not whole chunks, or they are
        /// not all in `src`.
        pub(crate) fn unpack(self, src: Packed<'_>, bits: u32, first: usize, out: &mut [u64]) {
            let kernel = UNPACKS[bits as usize].expect("width without a VBMI kernel");
            let (bytes, per) = (bytes_of(src), 8 * bits as usize);
            assert!(
                out.len().is_multiple_of(64) && (first + out.len() / 64) * per <= bytes.len(),
                "unpack past the run"
            );
            // SAFETY: as in `bitmaps`; every chunk unpacked lies in `bytes`.
            unsafe { kernel(bytes, first * per, out) }
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
    /// The host has AVX-512 F, BW and VBMI.
    type BitmapKernel = unsafe fn(&[u8], &Test, &mut Vec<u64>);
    /// A width's count kernel ([`count`]).
    ///
    /// # Safety
    ///
    /// As for [`BitmapKernel`].
    type CountKernel = unsafe fn(&[u8], &Test, u64, u64) -> u64;
    /// A width's unpack kernel ([`unpack_chunks`]).
    ///
    /// # Safety
    ///
    /// As for [`BitmapKernel`], and the chunks unpacked lie in the bytes.
    type UnpackKernel = unsafe fn(&[u8], usize, &mut [u64]);

    /// A kernel table with an entry at every width [`LANE_BYTES`] serves.
    macro_rules! by_width {
        ($kind:ident, $f:ident) => {{
            let mut t: [Option<$kind>; 33] = [None; 33];
            by_width!(@set t $f 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
                17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
            t
        }};
        (@set $t:ident $f:ident $($n:literal)*) => {
            $(if LANE_BYTES[$n] != 0 { $t[$n] = Some($f::<$n>); })*
        };
    }

    const BITMAPS: [Option<BitmapKernel>; 33] = by_width!(BitmapKernel, bitmaps);
    const COUNTS: [Option<CountKernel>; 33] = by_width!(CountKernel, count);
    const UNPACKS: [Option<UnpackKernel>; 33] = by_width!(UnpackKernel, unpack_chunks);

    /// 64 bytes as a vector constant (`_mm512_set_epi64` of constant
    /// operands folds to one constant load).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn constant(bytes: [u8; 64]) -> __m512i {
        let q = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            i64::from_le_bytes(w)
        };
        _mm512_set_epi64(q(7), q(6), q(5), q(4), q(3), q(2), q(1), q(0))
    }

    /// The unpacking of width `N`, as compile-time constants.
    struct Unpack<const N: u32>;

    impl<const N: u32> Unpack<N> {
        const LANE: usize = LANE_BYTES[N as usize];
        /// Vectors per chunk.
        const VECTORS: usize = Self::LANE;
        /// Values (lanes) per vector.
        const VALUES: usize = 64 / Self::LANE;
        const PERMUTE: [u8; 64] = permute(N);
        const SHIFT: [u8; 64] = shift(N);
        /// The widening controls of a vector's lanes, 8 lanes a control.
        const WIDEN: [[u8; 64]; 8] = {
            let mut t = [[0; 64]; 8];
            let mut k = 0;
            while k < 8 {
                t[k] = widen_lanes(Self::LANE, k);
                k += 1;
            }
            t
        };
        /// Chunks a run of lane counters takes before it is widened: each
        /// chunk adds at most `VECTORS` to a lane.
        const FLUSH: usize = ((1u64 << (8 * Self::LANE)) - 1) as usize / Self::VECTORS;
    }

    /// The 64 bytes at `at`, as zeros where they lie at or past the end of
    /// `bytes` (those are not read).
    ///
    /// # Safety
    ///
    /// `at < bytes.len()`.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn load(bytes: &[u8], at: usize) -> __m512i {
        debug_assert!(at < bytes.len(), "load past the run");
        // SAFETY: `at` is inside `bytes` (the caller's bound), so the
        // pointer stays inside its allocation.
        let p = unsafe { bytes.as_ptr().add(at) };
        match load_mask(bytes.len(), at) {
            // SAFETY: the mask says all 64 bytes from `at` lie inside
            // `bytes`; `loadu` has no alignment requirement.
            u64::MAX => unsafe { _mm512_loadu_si512(p.cast()) },
            // SAFETY: the mask covers exactly the bytes from `at` to the
            // end of `bytes`; masked-out bytes are neither read nor fault.
            mask => unsafe { _mm512_maskz_loadu_epi8(mask, p.cast()) },
        }
    }

    /// Vector `g` of the chunk at byte `at`, unpacked into width `N`'s
    /// lanes.
    ///
    /// # Safety
    ///
    /// `at + vector_offset(N, g) < bytes.len()`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    #[inline]
    unsafe fn unpack<const N: u32>(bytes: &[u8], at: usize, g: usize) -> __m512i {
        // SAFETY: the caller's bound.
        let raw = unsafe { load(bytes, at + vector_offset(N, g)) };
        if N as usize == 8 * Unpack::<N>::LANE {
            // The lanes are the bytes as stored.
            return raw;
        }
        let gathered = _mm512_permutexvar_epi8(constant(Unpack::<N>::PERMUTE), raw);
        let shift = constant(Unpack::<N>::SHIFT);
        let mask = ((1u64 << N) - 1) as i32;
        match Unpack::<N>::LANE {
            1 => {
                let aligned = _mm512_multishift_epi64_epi8(shift, gathered);
                _mm512_and_si512(aligned, _mm512_set1_epi8(mask as i8))
            }
            2 => {
                let aligned = _mm512_multishift_epi64_epi8(shift, gathered);
                _mm512_and_si512(aligned, _mm512_set1_epi16(mask as i16))
            }
            _ => _mm512_and_si512(_mm512_srlv_epi32(gathered, shift), _mm512_set1_epi32(mask)),
        }
    }

    /// `v` broadcast to every lane of width `N`'s vectors.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    fn splat<const N: u32>(v: u32) -> __m512i {
        match Unpack::<N>::LANE {
            1 => _mm512_set1_epi8(v as i8),
            2 => _mm512_set1_epi16(v as i16),
            _ => _mm512_set1_epi32(v as i32),
        }
    }

    /// The lanes `k` selects where `a == b`, as a bitmap of lanes.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    fn eq<const N: u32>(k: u64, a: __m512i, b: __m512i) -> u64 {
        match Unpack::<N>::LANE {
            1 => _mm512_mask_cmpeq_epi8_mask(k, a, b),
            2 => u64::from(_mm512_mask_cmpeq_epi16_mask(k as u32, a, b)),
            _ => u64::from(_mm512_mask_cmpeq_epi32_mask(k as u16, a, b)),
        }
    }

    /// The lanes `k` selects where `lo <= v <= lo + span`: `v - lo` wraps
    /// above `span` for every `v < lo`.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    fn within<const N: u32>(k: u64, v: __m512i, lo: __m512i, span: __m512i) -> u64 {
        match Unpack::<N>::LANE {
            1 => _mm512_mask_cmple_epu8_mask(k, _mm512_sub_epi8(v, lo), span),
            2 => u64::from(_mm512_mask_cmple_epu16_mask(k as u32, _mm512_sub_epi16(v, lo), span)),
            _ => u64::from(_mm512_mask_cmple_epu32_mask(k as u16, _mm512_sub_epi32(v, lo), span)),
        }
    }

    /// The lanes `k` selects equal to one of `members`.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    fn any<const N: u32>(k: u64, v: __m512i, members: &[__m512i]) -> u64 {
        let mut m = 0;
        for &s in members {
            m |= eq::<N>(k, v, s);
        }
        m
    }

    /// `acc` plus 1 in every lane `hits` selects.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    fn add_hits<const N: u32>(acc: __m512i, hits: u64) -> __m512i {
        match Unpack::<N>::LANE {
            1 => _mm512_mask_add_epi8(acc, hits, acc, _mm512_set1_epi8(1)),
            2 => _mm512_mask_add_epi16(acc, hits as u32, acc, _mm512_set1_epi16(1)),
            _ => _mm512_mask_add_epi32(acc, hits as u16, acc, _mm512_set1_epi32(1)),
        }
    }

    /// The lane counters `acc` summed into eight 64-bit lanes.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    fn widen<const N: u32>(acc: __m512i) -> __m512i {
        let zero = _mm512_setzero_si512();
        match Unpack::<N>::LANE {
            1 => _mm512_sad_epu8(acc, zero),
            2 => {
                let low = _mm512_sad_epu8(_mm512_and_si512(acc, _mm512_set1_epi16(0xFF)), zero);
                let high = _mm512_sad_epu8(_mm512_srli_epi16::<8>(acc), zero);
                _mm512_add_epi64(low, _mm512_slli_epi64::<8>(high))
            }
            _ => {
                let low = _mm512_unpacklo_epi32(acc, zero);
                _mm512_add_epi64(low, _mm512_unpackhi_epi32(acc, zero))
            }
        }
    }

    /// Runs `$body` with `$h` bound to `$test`'s compare at width `$n` —
    /// slot mask and lanes in, the selected matching lanes out — so every
    /// kind of test gets its own loop. `IN` lists of 2..=4 members (the
    /// common ones) hold their operands in an array of that length, which
    /// unrolls the compares.
    macro_rules! with_hits {
        ($n:ident, $test:expr, $h:ident => $body:expr) => {
            match *$test {
                Test::Eq(p) => {
                    let p = splat::<$n>(p);
                    let $h = move |mask, v| eq::<$n>(mask, v, p);
                    $body
                }
                Test::Range(lo, hi) => {
                    let (lo, span) = (splat::<$n>(lo), splat::<$n>(hi - lo));
                    let $h = move |mask, v| within::<$n>(mask, v, lo, span);
                    $body
                }
                Test::AnyOf(m, 2) => with_hits!(@any $n, m, 2, $h => $body),
                Test::AnyOf(m, 3) => with_hits!(@any $n, m, 3, $h => $body),
                Test::AnyOf(m, 4) => with_hits!(@any $n, m, 4, $h => $body),
                Test::AnyOf(m, k) => {
                    let s: [__m512i; MAX_LINEAR_SET] = std::array::from_fn(|i| splat::<$n>(m[i]));
                    let $h = move |mask, v| any::<$n>(mask, v, &s[..k]);
                    $body
                }
            }
        };
        (@any $n:ident, $m:ident, $k:literal, $h:ident => $body:expr) => {{
            let s: [__m512i; $k] = std::array::from_fn(|i| splat::<$n>($m[i]));
            let $h = move |mask, v| any::<$n>(mask, v, &s);
            $body
        }};
    }

    /// Bitmap kernel of width `N`.
    ///
    /// # Safety
    ///
    /// The host has AVX-512 F, BW and VBMI.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn bitmaps<const N: u32>(bytes: &[u8], test: &Test, out: &mut Vec<u64>) {
        with_hits!(N, test, h => bitmaps_with::<N>(bytes, h, out))
    }

    /// [`bitmaps`] under compare `h`: the chunk's k-masks side by side.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    fn bitmaps_with<const N: u32>(
        bytes: &[u8],
        h: impl Fn(u64, __m512i) -> u64,
        out: &mut Vec<u64>,
    ) {
        // A plain loop: a closure handed to `extend` would be called, not
        // inlined, across the `target_feature` boundary.
        let per = 8 * N as usize;
        let chunks = bytes.len() / per;
        out.reserve(chunks);
        for ci in 0..chunks {
            let mut bm = 0;
            for g in 0..Unpack::<N>::VECTORS {
                // SAFETY: chunk `ci` lies inside `bytes`, and vector `g`
                // starts inside the chunk.
                let v = unsafe { unpack::<N>(bytes, ci * per, g) };
                bm |= h(u64::MAX, v) << (g * Unpack::<N>::VALUES);
            }
            out.push(bm);
        }
    }

    /// Count kernel of width `N`.
    ///
    /// # Safety
    ///
    /// As for [`bitmaps`].
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn count<const N: u32>(bytes: &[u8], test: &Test, head: u64, tail: u64) -> u64 {
        with_hits!(N, test, h => count_with::<N>(bytes, h, head, tail))
    }

    /// [`count`] under compare `h`: the k-masks, the first chunk's ANDed
    /// with `head` and the last chunk's with `tail`, add into lane counters,
    /// widened every [`Unpack::FLUSH`] chunks.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    fn count_with<const N: u32>(
        bytes: &[u8],
        h: impl Fn(u64, __m512i) -> u64,
        head: u64,
        tail: u64,
    ) -> u64 {
        let per = 8 * N as usize;
        let chunks = bytes.len() / per;
        let mut total = _mm512_setzero_si512();
        let (mut start, mut edge) = (0, head);
        while start < chunks {
            let stop = chunks.min(start + Unpack::<N>::FLUSH);
            let mut acc = _mm512_setzero_si512();
            for ci in start..stop {
                if ci + 1 == chunks {
                    edge &= tail;
                }
                for g in 0..Unpack::<N>::VECTORS {
                    // SAFETY: as in `bitmaps_with`.
                    let v = unsafe { unpack::<N>(bytes, ci * per, g) };
                    acc = add_hits::<N>(acc, h(edge >> (g * Unpack::<N>::VALUES), v));
                }
                edge = u64::MAX;
            }
            total = _mm512_add_epi64(total, widen::<N>(acc));
            start = stop;
        }
        _mm512_reduce_add_epi64(total) as u64
    }

    /// Unpack kernel of width `N`: every chunk from byte `at` of `bytes`
    /// into 64 values of `out`, each lane of its vectors widened to 64 bits
    /// and stored.
    ///
    /// # Safety
    ///
    /// As for [`bitmaps`]; the `out.len() / 64` chunks from `at` lie in
    /// `bytes`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn unpack_chunks<const N: u32>(bytes: &[u8], at: usize, out: &mut [u64]) {
        let per = 8 * N as usize;
        let keep = widen_lanes_mask(Unpack::<N>::LANE);
        for (ci, dst) in out.as_chunks_mut::<64>().0.iter_mut().enumerate() {
            for g in 0..Unpack::<N>::VECTORS {
                // SAFETY: chunk `ci` from `at` lies in `bytes` (the
                // caller's bound), and vector `g` starts inside it.
                let v = unsafe { unpack::<N>(bytes, at + ci * per, g) };
                for k in 0..Unpack::<N>::VALUES / 8 {
                    let wide = _mm512_maskz_permutexvar_epi8(keep, constant(Unpack::<N>::WIDEN[k]), v);
                    let i = g * Unpack::<N>::VALUES + 8 * k;
                    // SAFETY: the chunk's vectors hold 64 lanes in all, so
                    // `i + 8 <= 64`: the 8 values stored lie in `dst`, and
                    // `storeu` has no alignment requirement.
                    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), wide) }
                }
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
mod imp {
    use super::Test;
    use crate::kernels::Packed;

    /// No host of this build has AVX-512 VBMI (or Miri interprets it): the
    /// token cannot be made.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Vbmi {}

    impl Vbmi {
        pub(crate) fn detect() -> Option<Vbmi> {
            None
        }

        pub(crate) fn bitmaps(self, _: Packed<'_>, _: u32, _: &Test, _: &mut Vec<u64>) {
            match self {}
        }

        pub(crate) fn count(self, _: Packed<'_>, _: u32, _: &Test, _: u64, _: u64) -> u64 {
            match self {}
        }

        pub(crate) fn unpack(self, _: Packed<'_>, _: u32, _: usize, _: &mut [u64]) {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decode_chunk_generic, encode_chunk, CHUNK_LEN};
    use crate::BitWidth;

    /// Chunk `ci` of the run `run` at width `n`, unpacked the way the
    /// kernels unpack it, in scalar code: each vector's load through its
    /// mask (a byte the mask leaves out reads as 0), gathered by the
    /// permute control, shifted and masked, and each lane widened to 64
    /// bits by the widening controls. Every load must start in the run and
    /// admit no byte past it and no hole.
    fn emulate(n: u32, run: &[u8], ci: usize) -> [u64; CHUNK_LEN] {
        let (lane, per) = (LANE_BYTES[n as usize], 8 * n as usize);
        let (control, shifts) = (permute(n), shift(n));
        let (keep, value) = (widen_lanes_mask(lane), (1u64 << n) - 1);
        let mut out = [0u64; CHUNK_LEN];
        for g in 0..lane {
            let at = ci * per + vector_offset(n, g);
            let what = format!("n={n} len={} chunk {ci} vector {g}", run.len());
            assert!(at < run.len(), "{what} starts past the run");
            let mask = load_mask(run.len(), at);
            let reach = 64 - mask.leading_zeros() as usize;
            assert!(at + reach <= run.len(), "{what} reads past the run");
            assert_eq!(mask.count_ones() as usize, reach, "{what}: mask has holes");
            let raw: [u8; 64] = std::array::from_fn(|b| if mask >> b & 1 == 1 { run[at + b] } else { 0 });
            let v = if n as usize == 8 * lane {
                raw
            } else {
                let gathered: [u8; 64] = std::array::from_fn(|i| raw[control[i] as usize]);
                let mut v = [0u8; 64];
                if lane == 4 {
                    for (q, lanes) in gathered.chunks_exact(4).enumerate() {
                        let x = u32::from_le_bytes(lanes.try_into().unwrap()) >> shifts[4 * q];
                        v[4 * q..4 * q + 4].copy_from_slice(&(x & value as u32).to_le_bytes());
                    }
                } else {
                    // `vpmultishiftqb`: byte `i` of a qword takes the 8
                    // bits from bit `shifts[i]` of it on, wrapping around.
                    for (q, word) in gathered.chunks_exact(8).enumerate() {
                        let word = u64::from_le_bytes(word.try_into().unwrap());
                        for b in 0..8 {
                            v[8 * q + b] = word.rotate_right(u32::from(shifts[8 * q + b])) as u8;
                        }
                    }
                    for lanes in v.chunks_exact_mut(lane) {
                        let x = lanes.iter().rev().fold(0u64, |x, &b| x << 8 | u64::from(b)) & value;
                        lanes.copy_from_slice(&x.to_le_bytes()[..lane]);
                    }
                }
                v
            };
            for k in 0..64 / lane / 8 {
                let control = widen_lanes(lane, k);
                for j in 0..8 {
                    let bytes = (0..8).filter(|&b| keep >> (8 * j + b) & 1 == 1);
                    let x = bytes.fold(0, |x, b| x | u64::from(v[control[8 * j + b] as usize]) << (8 * b));
                    out[g * 64 / lane + 8 * k + j] = x;
                }
            }
        }
        out
    }

    /// The VBMI geometry of every served width, checked in safe code: every
    /// value's bits are gathered whole into its group and shifted from
    /// where they lie; the loads the scans and the unpack share start
    /// inside their run, admit no byte past it and every byte their vector
    /// needs; and the emulated unpack — loads, gather, shift, widening —
    /// equals the generic decode on the last chunk of runs followed by
    /// 0..8n − 1 bytes of slack, whose loads are masked at the run's end.
    #[test]
    fn vbmi_loads_stay_inside_the_run() {
        let served: Vec<u32> = (1..=32u32).filter(|&n| LANE_BYTES[n as usize] != 0).collect();
        assert_eq!(
            (1..=32).filter(|n| !served.contains(n)).collect::<Vec<_>>(),
            [1, 27, 29, 30, 31],
            "widths left to SWAR"
        );
        for &n in &served {
            let (lane, per) = (LANE_BYTES[n as usize], 8 * n as usize);
            let (values, bytes) = (vector_values(n), group_bytes(lane));
            let (perm, shift) = (permute(n), shift(n));
            // Every value's bits are gathered whole into its group and
            // shifted from where they lie; the bytes it needs are inside
            // its vector's `values * n / 8` bytes.
            for v in 0..values {
                let (q, j) = (v / (bytes / lane), v % (bytes / lane));
                let start = perm[q * bytes] as usize;
                for b in 0..bytes {
                    assert_eq!(perm[q * bytes + b] as usize, start + b, "n={n} v={v}: gather");
                    assert!(start + b < 64, "n={n} v={v}: index past the vector");
                }
                let at = if lane == 4 { shift[q * bytes] } else { shift[q * bytes + j * lane] };
                let at = at as usize;
                assert_eq!(8 * start + at, v * n as usize, "n={n} v={v}: value offset");
                assert!(at + n as usize <= 8 * bytes, "n={n} v={v}: value past its group");
                if lane == 2 {
                    assert_eq!(shift[q * bytes + 2 * j + 1] as usize, at + 8, "n={n} v={v}");
                }
                assert!((v * n as usize + n as usize).div_ceil(8) <= values * n as usize / 8);
            }
            let w = BitWidth::new(n).unwrap();
            let chunk = |ci: usize| -> [u64; CHUNK_LEN] {
                std::array::from_fn(|i| {
                    (0x9E37_79B9_7F4A_7C15u64.wrapping_mul((ci * 64 + i) as u64 + 1) >> 7) & w.mask()
                })
            };
            let mut words = vec![0u64; 10 * n as usize];
            for ci in 0..10 {
                encode_chunk(&chunk(ci), w, &mut words[ci * n as usize..][..n as usize]);
            }
            let le: Vec<u8> = words.iter().flat_map(|word| word.to_le_bytes()).collect();
            // Runs of 1..=9 whole chunks followed by 0..=8n − 1 bytes of
            // slack (the next chunk's): every load starts inside the run,
            // no byte its mask admits lies past the run, and it admits
            // every byte its vector needs; the last chunk, at every third
            // slack, unpacks to its values.
            for chunks in 1..=9 {
                for (s, len) in (chunks * per..(chunks + 1) * per).step_by(7).enumerate() {
                    for (ci, g) in (0..chunks).flat_map(|ci| (0..lane).map(move |g| (ci, g))) {
                        let at = ci * per + vector_offset(n, g);
                        let what = format!("n={n} len={len} chunk {ci} vector {g}");
                        assert!(at < len, "{what} starts past the run");
                        let mask = load_mask(len, at);
                        let reach = 64 - mask.leading_zeros() as usize;
                        assert!(at + reach <= len, "{what} reads past the run");
                        assert_eq!(mask.count_ones() as usize, reach, "{what}: mask has holes");
                        assert!(reach >= values * n as usize / 8, "{what} masks out its own bytes");
                    }
                    if s % 3 == 0 {
                        let last = chunks - 1;
                        let mut want = [0; CHUNK_LEN];
                        decode_chunk_generic(&words[last * n as usize..][..n as usize], n as usize, &mut want);
                        assert_eq!(want, chunk(last));
                        assert_eq!(emulate(n, &le[..len], last), want, "n={n} len={len}: unpack");
                    }
                }
            }
        }
    }
}

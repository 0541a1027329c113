//! Bit-width-specialized scan kernels (the warm-path `search` fast path).
//!
//! The paper's `search` (§3.1.3, Fig. 1) is a vectorized compare over n-bit
//! packed identifiers that never decodes. This module compiles that compare
//! once *per bit width* (a const generic, selected once per scan through a
//! 32-entry table), in one formulation for every width `1..=32`:
//!
//! * **Windows.** A 64-value chunk is read as `64 / L` windows of `L` whole
//!   lanes, `L` the largest power of two with `L * n <= 64`: `64 / n` where
//!   `n` divides 64, else 16 for `n = 3`, 8 for `n <= 7` (8 lanes are
//!   exactly `n` bytes, so those windows are byte-aligned), 4 for `n <= 15`,
//!   2 above. A window is one 64-bit load plus a constant shift. Whatever
//!   the loaded word holds above its `L` lanes is garbage the compares
//!   never look at.
//! * **Lane compares.** Equality is an exact per-lane zero test of
//!   `window ^ probe`, a range is two per-lane unsigned less-thans
//!   (`lane_lt`), a small `IN` list is the OR of its members' equality
//!   tests in the same pass. All are full-word subtractions arranged so
//!   that no lane borrows from its upper neighbour; a borrow out of the
//!   garbage above the top lane only travels further up, away from every
//!   lane. The result is one hit bit at the top of each matching lane.
//! * **Gather or count.** `compact` moves a window's `L` hit bits to the
//!   bottom of a word — one multiply where `n >= L`, `log2 L` shift-or-mask
//!   steps below — and the windows' results concatenate into the chunk's
//!   **result bitmap** (bit `i` set ⇔ slot `i` matches; positions are
//!   materialized late, by [`crate::scan::push_bitmap_positions`]).
//!   COUNT skips the gather: the hit bits of up to `n` windows interleave
//!   into one word (each shifted down by its index) and are popcounted
//!   together.
//!
//! The same lane code serves both forms a data vector takes ([`Packed`]):
//! the word slice of a resident [`BitPackedVec`] and the bytes of a pinned
//! page, evaluated in place. One case stays outside it: sets larger than
//! [`MAX_LINEAR_SET`] decode each slot and look it up. Widths 0 and 33..=64
//! (cardinality 1 and > 2^32 — both rare) are answered from the row count
//! and by [`chunk_bitmap_generic`]. [`KernelPredicate`] hides all of it.
//!
//! **AVX-512 VBMI where the host has it.** On such a host, equality, range
//! and small `IN` at the widths `crate::simd` serves (all but 1, 27, 29,
//! 30 and 31) unpack 16 to 64 values per instruction instead: the whole run,
//! edge chunks included, goes to its kernel in one call. The choice is made
//! once per predicate, from the width and the detected CPU; windowed SWAR
//! remains the portable path and the oracle.

use crate::chunk::{decode_chunk_portable, CHUNK_LEN};
use crate::simd::{self, Vbmi};
use crate::unaligned::fill_le_words;
use crate::{BitPackedVec, BitWidth, VidSet};

/// Sets up to this size are evaluated as a fused OR of lane equalities
/// instead of a decode plus per-slot lookup (the cost is linear in the set
/// size, so cap it).
pub const MAX_LINEAR_SET: usize = 16;

/// Whole lanes per window at width `n` (`1..=32`): the largest power of two
/// that fits a 64-bit word, so a chunk is a whole number of windows.
const fn window_lanes(n: u32) -> usize {
    1 << (64 / n).ilog2()
}

/// The low bit of every lane of a window at width `n`.
const fn lane_lsb(n: u32) -> u64 {
    let mut lsb = 0u64;
    let mut lane = 0;
    while lane < window_lanes(n) as u32 {
        lsb |= 1 << (lane * n);
        lane += 1;
    }
    lsb
}

/// The window geometry of width `N`, as compile-time constants.
struct Geo<const N: u32>;

impl<const N: u32> Geo<N> {
    const LANES: usize = window_lanes(N);
    const WINDOWS: usize = CHUNK_LEN / Self::LANES;
    /// Bits of a window that hold lanes.
    const BITS: usize = Self::LANES * N as usize;
    const LSB: u64 = lane_lsb(N);
    const MSB: u64 = Self::LSB << (N - 1);
    /// Where `N >= LANES`: the multiplier moving bit `i * N` to bit
    /// `64 - LANES + i` for every lane `i` at once (the byte-movemask
    /// multiply, generalized). Term `j` is `2^(64 - LANES + j - j * N)`;
    /// lane `i` times term `j != i` misses the target field by at least
    /// `N - j` bits and no two products coincide, so nothing carries in.
    const GATHER: u64 = {
        let mut m = 0u64;
        let mut j = 0;
        while j < Self::LANES {
            let up = 64 - Self::LANES + j;
            if up >= j * N as usize {
                m |= 1 << (up - j * N as usize);
            }
            j += 1;
        }
        m
    };
    /// Where `N < LANES`: step `s` of the log-step gather keeps groups of
    /// `2^(s+1)` adjacent bits at stride `2^(s+1) * N`.
    const GROUPS: [u64; 5] = {
        let mut masks = [0u64; 5];
        let mut s = 0;
        while s < 5 {
            let group = 2usize << s;
            let mut at = 0;
            while group < 64 && group <= Self::LANES && at < 64 {
                masks[s] |= ((1u64 << group) - 1) << at;
                at += group * N as usize;
            }
            s += 1;
        }
        masks
    };
}

/// One chunk's packed bits, read as 64-bit windows.
trait Chunk: Copy {
    /// The word whose bit 0 is bit `bit` of the chunk. Its low `need` bits
    /// are the chunk's; the rest are unspecified.
    fn window(self, bit: usize, need: usize) -> u64;
}

/// Exactly the chunk's words.
impl Chunk for &[u64] {
    #[inline(always)]
    fn window(self, bit: usize, need: usize) -> u64 {
        let (wi, sh) = (bit >> 6, bit & 63);
        if need == 64 {
            // Widths that divide 64: the window is the word.
            return self[wi];
        }
        // A funnel shift over the word and its successor. The last word has
        // none and stands in for it: those bits land above `need`.
        let next = self[(wi + 1).min(self.len() - 1)];
        ((u128::from(next) << 64 | u128::from(self[wi])) >> sh) as u64
    }
}

/// The chunk's bytes followed by 8 readable bytes of slack, so the last
/// window's 8-byte load stays inside the slice.
impl Chunk for &[u8] {
    #[inline(always)]
    fn window(self, bit: usize, need: usize) -> u64 {
        let (at, sh) = (bit >> 3, bit & 7);
        let mut word = [0u8; 8];
        word.copy_from_slice(&self[at..at + 8]);
        let low = u64::from_le_bytes(word) >> sh;
        // Only width 31 (62-bit windows at shifts 4 and 6) wants a 9th byte.
        if sh + need <= 64 {
            low
        } else {
            low | u64::from(self[at + 8]) << (64 - sh)
        }
    }
}

/// Hit bit (the lane's top bit) of every lane of `w` equal to the probe
/// replicated in `pattern`: an exact per-lane zero test of the XOR. Every
/// lane of `x | MSB` has its top bit set, so subtracting 1 per lane never
/// borrows across lanes.
#[inline(always)]
fn eq_hits<const N: u32>(w: u64, pattern: u64) -> u64 {
    Geo::<N>::MSB & !lane_nonzero::<N>(w ^ pattern)
}

/// Top bit of every nonzero lane of `x` (other bits unspecified).
#[inline(always)]
fn lane_nonzero<const N: u32>(x: u64) -> u64 {
    x | (x | Geo::<N>::MSB).wrapping_sub(Geo::<N>::LSB)
}

/// Per-lane unsigned `x < y`: the top bit of every such lane.
///
/// `d`'s lanes hold `x_rest + 2^(N-1) - y_rest` where `*_rest` drops the
/// lane's top bit; that value stays in `[1, 2^N - 1]`, so the full-word
/// subtraction never borrows across lanes and each lane's top bit of `d` is
/// set iff `x_rest >= y_rest`. Lanes where the top bits of `x` and `y`
/// differ are decided by those bits alone (`~x & y`); equal-top-bit lanes
/// defer to the rest compare (`~(x^y) & ~d`).
#[inline(always)]
fn lane_lt<const N: u32>(x: u64, y: u64) -> u64 {
    let h = Geo::<N>::MSB;
    let d = (x | h).wrapping_sub(y & !h);
    ((!x & y) | (!(x ^ y) & !d)) & h
}

/// Hit bits of the lanes of `w` inside the replicated bounds:
/// `lo <= v <= hi` is `!(v < lo) & !(hi < v)`.
#[inline(always)]
fn range_hits<const N: u32>(w: u64, lo: u64, hi: u64) -> u64 {
    Geo::<N>::MSB & !lane_lt::<N>(w, lo) & !lane_lt::<N>(hi, w)
}

/// Hit bits of the lanes of `w` equal to any of the replicated probes.
#[inline(always)]
fn any_hits<const N: u32>(w: u64, patterns: &[u64]) -> u64 {
    let mut miss = u64::MAX;
    for &pattern in patterns {
        miss &= lane_nonzero::<N>(w ^ pattern);
    }
    Geo::<N>::MSB & !miss
}

/// Gathers a window's hit bits (lane `i`'s at bit `i * N + N - 1`) into the
/// low `LANES` bits, lane `i` → bit `i`.
#[inline(always)]
fn compact<const N: u32>(hits: u64) -> u64 {
    let lanes = Geo::<N>::LANES;
    if N == 1 {
        return hits;
    }
    let mut x = hits >> (N - 1);
    if N as usize >= lanes {
        return x.wrapping_mul(Geo::<N>::GATHER) >> (64 - lanes);
    }
    // Pairs of `group`-bit runs close ranks: the upper run of each pair
    // moves down next to the lower one, doubling the run length.
    let (mut group, mut step) = (1, 0);
    while group < lanes {
        x = (x | (x >> (group * (N as usize - 1)))) & Geo::<N>::GROUPS[step];
        group *= 2;
        step += 1;
    }
    x
}

/// A predicate evaluated one chunk at a time.
trait ChunkTest: Copy {
    /// The chunk's result bitmap.
    fn bitmap<const N: u32>(self, c: impl Chunk) -> u64;

    /// The chunk's match count.
    #[inline(always)]
    fn count<const N: u32>(self, c: impl Chunk) -> u32 {
        self.bitmap::<N>(c).count_ones()
    }
}

/// A lane test — window in, hit bits out — applied to every window.
#[derive(Clone, Copy)]
struct Lanes<H>(H);

impl<H: Fn(u64) -> u64 + Copy> Lanes<H> {
    /// The hit bits of every window of the chunk (the first `WINDOWS`
    /// entries). Loading first and testing second keeps the test a plain
    /// loop over an array — same operations, same constants in every
    /// iteration — which is the shape the autovectorizer takes.
    #[inline(always)]
    fn hits<const N: u32>(self, c: impl Chunk) -> [u64; 32] {
        let mut ws = [0u64; 32];
        for (k, w) in ws[..Geo::<N>::WINDOWS].iter_mut().enumerate() {
            *w = c.window(k * Geo::<N>::BITS, Geo::<N>::BITS);
        }
        for w in &mut ws[..Geo::<N>::WINDOWS] {
            *w = self.0(*w);
        }
        ws
    }
}

impl<H: Fn(u64) -> u64 + Copy> ChunkTest for Lanes<H> {
    #[inline(always)]
    fn bitmap<const N: u32>(self, c: impl Chunk) -> u64 {
        let hits = self.hits::<N>(c);
        let mut bm = 0u64;
        for (k, &h) in hits[..Geo::<N>::WINDOWS].iter().enumerate() {
            bm |= compact::<N>(h) << (k * Geo::<N>::LANES);
        }
        bm
    }

    /// Skips the gather: hit bits sit `N` apart, so `N` windows' worth
    /// interleave into one word before each popcount.
    #[inline(always)]
    fn count<const N: u32>(self, c: impl Chunk) -> u32 {
        let hits = self.hits::<N>(c);
        let mut total = 0;
        for group in hits[..Geo::<N>::WINDOWS].chunks(N as usize) {
            let mut acc = 0u64;
            for (j, &h) in group.iter().enumerate() {
                acc |= h >> j;
            }
            total += acc.count_ones();
        }
        total
    }
}

/// A set too large for the lane tests: decode every slot, then look it up.
impl ChunkTest for &VidSet {
    #[inline(always)]
    fn bitmap<const N: u32>(self, c: impl Chunk) -> u64 {
        let mask = (1u64 << N) - 1;
        let mut bm = 0u64;
        for slot in 0..CHUNK_LEN {
            let v = c.window(slot * N as usize, N as usize) & mask;
            bm |= u64::from(self.contains(v)) << slot;
        }
        bm
    }
}

/// A run of whole chunks of one data vector, in either form it takes: the
/// packed words of a resident [`BitPackedVec`], or the little-endian bytes
/// of a pinned page — scanned where they lie.
#[derive(Debug, Clone, Copy)]
pub enum Packed<'a> {
    /// `bits` words per chunk.
    Words(&'a [u64]),
    /// `8 * bits` bytes per chunk.
    Bytes(&'a [u8]),
}

impl Packed<'_> {
    fn chunks(&self, bits: usize) -> usize {
        match self {
            Packed::Words(w) => w.len().checked_div(bits).unwrap_or(0),
            Packed::Bytes(b) => b.len().checked_div(8 * bits).unwrap_or(0),
        }
    }
}

type Kernel<S> = fn(Packed<'_>, &Op<'_>, &mut S);

macro_rules! kernel_table {
    ($($n:literal)*) => { [$(kernel::<$n, Self>),*] };
}

/// What a kernel does with each chunk of a run.
trait Sink: Sized {
    /// Takes chunk `c`, the run's `first` and / or `last`, under test `t`.
    fn chunk<const N: u32>(&mut self, t: impl ChunkTest, c: impl Chunk, first: bool, last: bool);

    /// This sink's kernels for widths 1..=32, indexed by `bits - 1`.
    const KERNELS: [Kernel<Self>; 32] = kernel_table!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    );
}

/// One result bitmap per chunk, appended.
impl Sink for Vec<u64> {
    #[inline(always)]
    fn chunk<const N: u32>(&mut self, t: impl ChunkTest, c: impl Chunk, _: bool, _: bool) {
        self.push(t.bitmap::<N>(c));
    }
}

/// The number of matches; the run's first chunk is masked by `head` and its
/// last by `tail` — only those two are compacted to bitmaps.
struct Count {
    total: u64,
    head: u64,
    tail: u64,
}

impl Sink for Count {
    #[inline(always)]
    fn chunk<const N: u32>(&mut self, t: impl ChunkTest, c: impl Chunk, first: bool, last: bool) {
        self.total += u64::from(if first || last {
            let head = if first { self.head } else { u64::MAX };
            let tail = if last { self.tail } else { u64::MAX };
            (t.bitmap::<N>(c) & head & tail).count_ones()
        } else {
            t.count::<N>(c)
        });
    }
}

/// Hands every chunk of `src` to `sink`, in order. One function per
/// (width, test, sink), so each chunk loop is optimized on its own.
#[inline(never)]
fn each_chunk<const N: u32>(src: Packed<'_>, test: impl ChunkTest, sink: &mut impl Sink) {
    let n = N as usize;
    let chunks = src.chunks(n);
    match src {
        Packed::Words(words) => {
            for (i, c) in words.chunks_exact(n).enumerate() {
                sink.chunk::<N>(test, c, i == 0, i + 1 == chunks);
            }
        }
        Packed::Bytes(bytes) => {
            // A window is an 8-byte load, so a chunk is read in place when 8
            // more bytes follow it; the run's last chunk is read from a
            // zero-padded copy instead — never past the slice.
            let per = 8 * n;
            let in_place = chunks.min(bytes.len().saturating_sub(8) / per);
            let mut padded = [0u8; 8 * 32 + 8];
            for i in 0..chunks {
                let c = if i < in_place {
                    &bytes[i * per..(i + 1) * per + 8]
                } else {
                    padded[..per].copy_from_slice(&bytes[i * per..(i + 1) * per]);
                    &padded[..per + 8]
                };
                sink.chunk::<N>(test, c, i == 0, i + 1 == chunks);
            }
        }
    }
}

/// The lane-level operation a [`KernelPredicate`] compiled to.
enum Op<'a> {
    /// Nothing matches (empty set, or every probe exceeds the width).
    Never,
    /// Everything matches (width-0 vector whose single value is in the set,
    /// or a range covering the whole domain).
    Always,
    /// Equality with the probe replicated into every lane of a window.
    Eq(u64),
    /// Inclusive range, both bounds replicated.
    Range(u64, u64),
    /// Membership in up to [`MAX_LINEAR_SET`] replicated probes.
    AnyOf([u64; MAX_LINEAR_SET], usize),
    /// Membership in a larger set: decode + lookup.
    Lookup(&'a VidSet),
}

/// The kernel of width `N` feeding sink `S`: one loop per operation and form,
/// every choice made before the first chunk.
fn kernel<const N: u32, S: Sink>(src: Packed<'_>, op: &Op<'_>, sink: &mut S) {
    match *op {
        Op::Eq(p) => each_chunk::<N>(src, Lanes(move |w| eq_hits::<N>(w, p)), sink),
        Op::Range(lo, hi) => each_chunk::<N>(src, Lanes(move |w| range_hits::<N>(w, lo, hi)), sink),
        Op::AnyOf(ref ps, k) => {
            let ps = &ps[..k];
            each_chunk::<N>(src, Lanes(move |w| any_hits::<N>(w, ps)), sink)
        }
        Op::Lookup(set) => each_chunk::<N>(src, set, sink),
        Op::Never | Op::Always => unreachable!("trivial predicates never reach a kernel"),
    }
}

/// A scan predicate compiled against a bit width: picks the VBMI kernel
/// where this host and width take one, the windowed kernel for the rest of
/// widths 1..=32 and [`chunk_bitmap_generic`] otherwise, normalizing
/// degenerate shapes (out-of-domain probes, full-domain ranges) and
/// replicating the probes up front so the per-chunk path never re-derives
/// them.
pub struct KernelPredicate<'a> {
    width: BitWidth,
    op: Op<'a>,
    set: &'a VidSet,
    /// The VBMI form of `op`, where the host and width take it.
    simd: Option<(Vbmi, simd::Test)>,
}

impl<'a> KernelPredicate<'a> {
    /// Compiles `set` for scans at `width`.
    pub fn new(width: BitWidth, set: &'a VidSet) -> Self {
        let (bits, max) = (width.bits(), width.max_value());
        let windowed = (1..=32).contains(&bits);
        // Replicates a probe into every lane of a window; off the kernel
        // table the generic kernel evaluates `set` itself and probes stay as is.
        let lsb = if windowed { lane_lsb(bits) } else { 1 };
        let op = if set.is_empty() {
            Op::Never
        } else if bits == 0 {
            if set.contains(0) {
                Op::Always
            } else {
                Op::Never
            }
        } else {
            match set {
                VidSet::Single(v) if *v > max => Op::Never,
                VidSet::Single(v) => Op::Eq(v.wrapping_mul(lsb)),
                VidSet::Range { lo, .. } if *lo > max => Op::Never,
                VidSet::Range { lo, hi } if *lo == 0 && *hi >= max => Op::Always,
                VidSet::Range { lo, hi } => {
                    Op::Range(lo.wrapping_mul(lsb), (*hi).min(max).wrapping_mul(lsb))
                }
                // Route by member count, whichever representation
                // `VidSet::from_vids` picked. Members beyond the width's
                // domain can never match.
                _ => {
                    let mut patterns = [0u64; MAX_LINEAR_SET];
                    let mut members = 0;
                    for v in set.iter().filter(|&v| v <= max).take(MAX_LINEAR_SET + 1) {
                        if let Some(pattern) = patterns.get_mut(members) {
                            *pattern = v.wrapping_mul(lsb);
                        }
                        members += 1;
                    }
                    match members {
                        0 => Op::Never,
                        1 => Op::Eq(patterns[0]),
                        k if k <= MAX_LINEAR_SET => Op::AnyOf(patterns, k),
                        _ => Op::Lookup(set),
                    }
                }
            }
        };
        let simd = Vbmi::detect().zip(simd_test(&op, bits));
        KernelPredicate { width, op, set, simd }
    }

    /// True when no slot can ever match.
    pub fn never_matches(&self) -> bool {
        matches!(self.op, Op::Never)
    }

    /// True when every slot trivially matches.
    pub fn always_matches(&self) -> bool {
        matches!(self.op, Op::Always)
    }

    /// Appends one match bitmap per chunk of `words` (an integral number of
    /// chunks at the compiled width): [`Self::scan`] over resident words.
    pub fn scan_chunks(&self, words: &[u64], out: &mut Vec<u64>) {
        self.scan(Packed::Words(words), out);
    }

    /// Appends one match bitmap per chunk of `src` — the single fused call
    /// a caller makes per pinned page or resident word run.
    ///
    /// A width-0 vector has no packed form to hand in: its predicate is
    /// [`Self::never_matches`] or [`Self::always_matches`], which the caller
    /// answers from the row count alone.
    pub fn scan(&self, src: Packed<'_>, out: &mut Vec<u64>) {
        match &self.simd {
            Some((vbmi, test)) => vbmi.bitmaps(src, self.width.bits(), test, out),
            None => self.swar_scan(src, out),
        }
    }

    /// [`Self::scan`] without the VBMI kernels: the portable path, and the
    /// oracle the VBMI kernels are tested against.
    pub(crate) fn swar_scan(&self, src: Packed<'_>, out: &mut Vec<u64>) {
        let bits = self.width.bits();
        debug_assert!(bits != 0, "width 0 has no chunks to scan");
        let chunks = src.chunks(bits as usize);
        match &self.op {
            Op::Never => out.extend(std::iter::repeat_n(0, chunks)),
            Op::Always => out.extend(std::iter::repeat_n(u64::MAX, chunks)),
            op if bits <= 32 => Vec::KERNELS[(bits - 1) as usize](src, op, out),
            _ => out.extend((0..chunks).map(|i| self.wide_bitmap(src, i))),
        }
    }

    /// Number of matches in the chunks of `src`, counting only the slots in
    /// `head` of its first chunk and in `tail` of its last (see
    /// [`boundary_mask`]; a one-chunk run is masked by both). Interior
    /// chunks are counted without building their bitmaps. Like
    /// [`Self::scan`], not for width 0.
    pub fn count(&self, src: Packed<'_>, head: u64, tail: u64) -> u64 {
        match &self.simd {
            Some((vbmi, test)) => vbmi.count(src, self.width.bits(), test, head, tail),
            None => self.swar_count(src, head, tail),
        }
    }

    /// [`Self::count`] without the VBMI kernels, like [`Self::swar_scan`].
    pub(crate) fn swar_count(&self, src: Packed<'_>, head: u64, tail: u64) -> u64 {
        let bits = self.width.bits();
        debug_assert!(bits != 0, "width 0 has no chunks to count");
        if bits <= 32 && !matches!(self.op, Op::Never | Op::Always) {
            let mut count = Count { total: 0, head, tail };
            Count::KERNELS[(bits - 1) as usize](src, &self.op, &mut count);
            return count.total;
        }
        // Off the kernel table: mask and popcount chunk by chunk.
        let chunks = src.chunks(bits as usize);
        let edged = |i: usize, mut bm: u64| {
            bm &= if i == 0 { head } else { u64::MAX };
            bm &= if i + 1 == chunks { tail } else { u64::MAX };
            u64::from(bm.count_ones())
        };
        (0..chunks).map(|i| edged(i, self.wide_bitmap(src, i))).sum()
    }

    /// Chunk `i`'s bitmap off the kernel table: trivial predicates, and the
    /// generic per-chunk kernel at widths 33..=64.
    fn wide_bitmap(&self, src: Packed<'_>, i: usize) -> u64 {
        let n = self.width.bits() as usize;
        match (&self.op, src) {
            (Op::Never, _) => 0,
            (Op::Always, _) => u64::MAX,
            (_, Packed::Words(words)) => {
                chunk_bitmap_generic(&words[i * n..(i + 1) * n], self.width, self.set)
            }
            (_, Packed::Bytes(bytes)) => {
                let mut words = [0u64; CHUNK_LEN];
                fill_le_words(&bytes[i * 8 * n..(i + 1) * 8 * n], &mut words[..n]);
                chunk_bitmap_generic(&words[..n], self.width, self.set)
            }
        }
    }
}

/// `op` as the VBMI kernels take it, where they serve width `bits`: the
/// lane values are the low `bits` bits of the replicated probes.
fn simd_test(op: &Op<'_>, bits: u32) -> Option<simd::Test> {
    if simd::LANE_BYTES.get(bits as usize).is_none_or(|&lane| lane == 0) {
        return None;
    }
    let lane = |pattern: u64| (pattern & ((1 << bits) - 1)) as u32;
    match *op {
        Op::Eq(p) => Some(simd::Test::Eq(lane(p))),
        Op::Range(lo, hi) => Some(simd::Test::Range(lane(lo), lane(hi))),
        Op::AnyOf(ref ps, k) => {
            let mut members = [0; MAX_LINEAR_SET];
            for (m, &p) in members.iter_mut().zip(&ps[..k]) {
                *m = lane(p);
            }
            Some(simd::Test::AnyOf(members, k))
        }
        Op::Never | Op::Always | Op::Lookup(_) => None,
    }
}

/// The one runtime-width kernel: decode of the whole chunk followed by a
/// branchless membership test. It serves widths 33..=64, which the kernel
/// table does not cover, and is the middle term of the specialized ≡
/// generic ≡ naive equivalence tests.
pub fn chunk_bitmap_generic(chunk_words: &[u64], w: BitWidth, set: &VidSet) -> u64 {
    if w.bits() == 0 {
        return if set.contains(0) { u64::MAX } else { 0 };
    }
    let mut buf = [0u64; CHUNK_LEN];
    decode_chunk_portable(chunk_words, w, &mut buf);
    let mut bm = 0u64;
    match set {
        VidSet::Single(v) => {
            for (i, &x) in buf.iter().enumerate() {
                bm |= u64::from(x == *v) << i;
            }
        }
        VidSet::Range { lo, hi } => {
            for (i, &x) in buf.iter().enumerate() {
                bm |= u64::from(x >= *lo && x <= *hi) << i;
            }
        }
        other => {
            for (i, &x) in buf.iter().enumerate() {
                bm |= u64::from(other.contains(x)) << i;
            }
        }
    }
    bm
}

/// Number of matches in `vec[from..to]` without materializing positions or
/// per-chunk bitmaps: the COUNT(*) kernel over a resident vector.
pub fn count_matches(vec: &BitPackedVec, from: u64, to: u64, set: &VidSet) -> u64 {
    assert!(from <= to && to <= vec.len(), "count range {from}..{to} out of bounds");
    if from == to {
        return 0;
    }
    let pred = KernelPredicate::new(vec.width(), set);
    if pred.never_matches() {
        return 0;
    }
    if pred.always_matches() {
        return to - from;
    }
    let first = from / CHUNK_LEN as u64;
    let last = (to - 1) / CHUNK_LEN as u64;
    let n = vec.width().bits() as usize;
    let words = &vec.words()[first as usize * n..(last as usize + 1) * n];
    pred.count(Packed::Words(words), boundary_mask(first, from, to), boundary_mask(last, from, to))
}

/// The mask of slots of chunk `ci` that fall inside `from..to`.
#[inline]
pub fn boundary_mask(ci: u64, from: u64, to: u64) -> u64 {
    let base = ci * CHUNK_LEN as u64;
    let mut mask = u64::MAX;
    if base < from {
        let skip = from - base;
        mask = if skip >= 64 { 0 } else { mask << skip };
    }
    if base + 64 > to {
        mask = if to <= base { 0 } else { mask & (u64::MAX >> (base + 64 - to)) };
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decode_chunk_generic, encode_chunk, unpack_chunks};

    /// `chunks` chunks of pseudo-random values at `bits`, with 0 and the
    /// width's maximum forced in, packed; returns (values, words).
    fn packed(bits: u32, chunks: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let w = BitWidth::new(bits).unwrap();
        let mut values: Vec<u64> = (0..chunks * CHUNK_LEN)
            .map(|i| {
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .rotate_left(i as u32)
                    & w.mask()
            })
            .collect();
        values[3] = 0;
        values[CHUNK_LEN - 1] = w.max_value();
        let mut words = vec![0u64; chunks * bits as usize];
        for (vals, out) in values.chunks(CHUNK_LEN).zip(words.chunks_mut(bits as usize)) {
            encode_chunk(vals.try_into().unwrap(), w, out);
        }
        (values, words)
    }

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn naive_bitmaps(values: &[u64], set: &VidSet) -> Vec<u64> {
        values
            .chunks(CHUNK_LEN)
            .map(|c| c.iter().enumerate().fold(0, |bm, (i, &v)| bm | u64::from(set.contains(v)) << i))
            .collect()
    }

    fn bitmap_set(members: &[u64]) -> VidSet {
        let mut words = vec![0u64; (members.iter().max().unwrap() / 64 + 1) as usize];
        for &v in members {
            words[(v / 64) as usize] |= 1 << (v % 64);
        }
        VidSet::Bitmap(words)
    }

    /// Every predicate shape at width `bits`: equality, ranges and sets of
    /// 2..=16 members (both representations) and beyond, with the edge
    /// operands — 0, max, `lo == hi`, the full domain, out-of-domain probes.
    fn shapes(bits: u32, values: &[u64]) -> Vec<VidSet> {
        let max = BitWidth::new(bits).unwrap().max_value();
        let mut sets = vec![
            VidSet::Single(0),
            VidSet::Single(max),
            VidSet::Single(values[17]),
            VidSet::Single(max / 3),
            VidSet::Single(max + 1),
            VidSet::Single(u64::MAX),
            VidSet::Range { lo: 0, hi: max },
            VidSet::Range { lo: 0, hi: u64::MAX },
            VidSet::Range { lo: 0, hi: 0 },
            VidSet::Range { lo: max, hi: max },
            VidSet::Range { lo: max / 2, hi: max / 2 },
            VidSet::Range { lo: 0, hi: max.saturating_sub(1) },
            VidSet::Range { lo: 1.min(max), hi: max },
            VidSet::Range { lo: max / 4, hi: max / 2 + 1 },
            VidSet::Range { lo: max / 2, hi: max + 9 },
            VidSet::Range { lo: max + 1, hi: max + 9 },
        ];
        for size in (2..=MAX_LINEAR_SET).chain([MAX_LINEAR_SET + 1, 40]) {
            // The domain's ends, one probe beyond it, and present values.
            let mut members = vec![0, max, max + 7];
            members.truncate(size);
            members.extend(values.iter().step_by(5).take(size - members.len()));
            members.sort_unstable();
            members.dedup();
            sets.push(VidSet::Sorted(members.clone()));
            // The dense form `VidSet::from_vids` picks for low identifiers.
            let low: Vec<u64> = members.iter().map(|v| v % 200).collect();
            sets.push(bitmap_set(&low));
        }
        sets
    }

    #[test]
    fn windowed_generic_and_naive_agree_at_every_width_and_shape() {
        for bits in 1..=32u32 {
            let w = BitWidth::new(bits).unwrap();
            let (values, words) = packed(bits, 3, u64::from(bits) * 7 + 1);
            let bytes = le_bytes(&words);
            for set in shapes(bits, &values) {
                let naive = naive_bitmaps(&values, &set);
                let generic: Vec<u64> = words
                    .chunks(bits as usize)
                    .map(|c| chunk_bitmap_generic(c, w, &set))
                    .collect();
                assert_eq!(generic, naive, "generic: bits={bits} {set:?}");
                let pred = KernelPredicate::new(w, &set);
                for src in [Packed::Words(&words), Packed::Bytes(&bytes)] {
                    let mut got = Vec::new();
                    pred.scan(src, &mut got);
                    assert_eq!(got, naive, "windowed: bits={bits} {set:?} {src:?}");
                }
            }
        }
    }

    #[test]
    fn small_sets_take_the_lane_path_in_either_representation() {
        let w = BitWidth::new(4).unwrap();
        let dense = VidSet::from_vids(vec![1, 5, 8, 14]);
        assert!(matches!(dense, VidSet::Bitmap(_)), "low ids pick the bitmap form");
        assert!(matches!(KernelPredicate::new(w, &dense).op, Op::AnyOf(_, 4)));
        let sparse = VidSet::Sorted(vec![1, 5, 8, 14]);
        assert!(matches!(KernelPredicate::new(w, &sparse).op, Op::AnyOf(_, 4)));
        let big = VidSet::from_vids((0..40).step_by(2).collect());
        assert!(matches!(KernelPredicate::new(BitWidth::new(6).unwrap(), &big).op, Op::Lookup(_)));
        // Out-of-domain members drop out before the count is taken.
        let beyond = VidSet::Sorted(vec![3, 99, 1000]);
        assert!(matches!(KernelPredicate::new(w, &beyond).op, Op::Eq(_)));
        assert!(KernelPredicate::new(w, &VidSet::Sorted(vec![99, 1000])).never_matches());
    }

    #[test]
    fn count_equals_popcount_of_bitmaps_for_every_boundary() {
        let edges = [0u64, 1, 63, 64, 65, 127, 128, 129, 191, 192, 250, 319, 320];
        for bits in 1..=32u32 {
            let w = BitWidth::new(bits).unwrap();
            let (values, words) = packed(bits, 5, u64::from(bits) + 100);
            let bytes = le_bytes(&words);
            let max = w.max_value();
            let sets = [
                VidSet::Single(values[9]),
                VidSet::range(max / 4, max / 2 + 1),
                VidSet::from_vids(vec![values[1], values[70], values[200]]),
                VidSet::from_vids(values.iter().step_by(3).take(30).copied().collect()),
            ];
            for set in &sets {
                let pred = KernelPredicate::new(w, set);
                let bitmaps = naive_bitmaps(&values, set);
                for &from in &edges {
                    for &to in edges.iter().filter(|&&to| to > from) {
                        let (first, last) = (from / 64, (to - 1) / 64);
                        let expect: u64 = (first..=last)
                            .map(|ci| bitmaps[ci as usize] & boundary_mask(ci, from, to))
                            .map(|bm| u64::from(bm.count_ones()))
                            .sum();
                        let (head, tail) =
                            (boundary_mask(first, from, to), boundary_mask(last, from, to));
                        let n = bits as usize;
                        let (a, b) = (first as usize, last as usize + 1);
                        let got_words = pred.count(Packed::Words(&words[a * n..b * n]), head, tail);
                        let got_bytes =
                            pred.count(Packed::Bytes(&bytes[a * n * 8..b * n * 8]), head, tail);
                        assert_eq!(got_words, expect, "bits={bits} {set:?} {from}..{to}");
                        assert_eq!(got_bytes, expect, "bits={bits} {set:?} {from}..{to} (bytes)");
                    }
                }
            }
        }
    }

    #[test]
    fn byte_runs_never_read_past_their_slice() {
        // Runs of 1..=5 chunks that end exactly at the end of their
        // allocation (the last chunk of a page whose payload fills it), and
        // runs followed by bytes that must not leak into the result.
        for bits in 1..=32u32 {
            let w = BitWidth::new(bits).unwrap();
            for chunks in 1..=5 {
                let (values, words) = packed(bits, chunks, u64::from(bits) * 3 + chunks as u64);
                let exact = le_bytes(&words).into_boxed_slice();
                let mut poisoned = exact.to_vec();
                poisoned.extend([0xFF; 16]);
                for set in [
                    VidSet::Single(w.max_value()),
                    VidSet::range(0, w.max_value() / 2),
                    VidSet::from_vids(vec![1.min(w.max_value()), w.max_value()]),
                ] {
                    let pred = KernelPredicate::new(w, &set);
                    let naive = naive_bitmaps(&values, &set);
                    for bytes in [&exact[..], &poisoned[..exact.len()]] {
                        let mut got = Vec::new();
                        pred.scan(Packed::Bytes(bytes), &mut got);
                        assert_eq!(got, naive, "bits={bits} chunks={chunks} {set:?}");
                        let total: u64 = naive.iter().map(|b| u64::from(b.count_ones())).sum();
                        assert_eq!(pred.count(Packed::Bytes(bytes), u64::MAX, u64::MAX), total);
                    }
                }
            }
        }
    }

    /// Chunk edges for runs of up to 6 chunks: every `from..to` between
    /// them gives one `boundary_mask` head / tail pair.
    const EDGES: [u64; 16] =
        [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 250, 319, 320, 321, 383, 384];

    /// Chunks `range` of `src` alone, at `n` bits per value.
    fn sub(src: Packed<'_>, range: std::ops::Range<usize>, n: usize) -> Packed<'_> {
        match src {
            Packed::Words(w) => Packed::Words(&w[range.start * n..range.end * n]),
            Packed::Bytes(b) => Packed::Bytes(&b[range.start * 8 * n..range.end * 8 * n]),
        }
    }

    /// True when the last load of a `chunks`-chunk run at width `bits` is
    /// masked at the run's end: the tier serves the width and the load
    /// would reach past the run.
    fn last_load_masked(bits: u32, chunks: usize) -> bool {
        let lane = simd::LANE_BYTES[bits as usize];
        let len = chunks * 8 * bits as usize;
        lane != 0
            && simd::load_mask(len, len - 8 * bits as usize + simd::vector_offset(bits, lane - 1))
                != u64::MAX
    }

    /// The byte forms of `words`: their little-endian bytes ending at their
    /// allocation, and the same bytes at offset 3 (an odd address) of a
    /// buffer with poison before and after them.
    fn byte_forms(words: &[u64]) -> (Box<[u8]>, Vec<u8>) {
        let exact = le_bytes(words).into_boxed_slice();
        let mut shifted = vec![0xFFu8; 3];
        shifted.extend_from_slice(&exact);
        shifted.extend([0xFF; 64]);
        (exact, shifted)
    }

    /// `pred`'s scan and count of the run `src` against the naive bitmaps
    /// of its chunks, and SWAR's: the whole scan, and a count of every row
    /// range `from..to` of `ranges` (rows from the run's first), each masked
    /// by its `boundary_mask` head / tail pair.
    fn agree(
        pred: &KernelPredicate<'_>,
        naive: &[u64],
        src: Packed<'_>,
        ranges: impl Iterator<Item = (u64, u64)>,
        at: &dyn Fn(&str) -> String,
    ) {
        let n = pred.width.bits() as usize;
        let (mut fast, mut swar) = (Vec::new(), Vec::new());
        pred.scan(src, &mut fast);
        pred.swar_scan(src, &mut swar);
        assert_eq!(swar, naive, "{}", at("swar scan"));
        assert_eq!(fast, naive, "{}", at("scan"));
        for (from, to) in ranges {
            let (first, last) = (from / 64, (to - 1) / 64);
            let (head, tail) = (boundary_mask(first, from, to), boundary_mask(last, from, to));
            let expect: u64 = (first..=last)
                .map(|ci| naive[ci as usize] & boundary_mask(ci, from, to))
                .map(|bm| u64::from(bm.count_ones()))
                .sum();
            let run = sub(src, first as usize..last as usize + 1, n);
            let (swar, fast) = (pred.swar_count(run, head, tail), pred.count(run, head, tail));
            assert_eq!(swar, expect, "{} {from}..{to}", at("swar count"));
            assert_eq!(fast, expect, "{} {from}..{to}", at("count"));
        }
    }

    #[test]
    fn simd_swar_generic_and_naive_agree() {
        for bits in 1..=32u32 {
            let (w, n) = (BitWidth::new(bits).unwrap(), bits as usize);
            let (values, words) = packed(bits, 6, u64::from(bits) * 13 + 5);
            // A whole 4 KiB page of chunks: at n = 2, 256 of them, more
            // than an 8-bit lane counter holds before it is widened.
            let page_chunks = 4096 / (8 * n);
            let (page_values, page_words) = packed(bits, page_chunks, u64::from(bits) * 17 + 3);
            let (page_exact, page_shifted) = byte_forms(&page_words);
            let rows = 64 * page_chunks as u64;
            let page_ranges: Vec<(u64, u64)> = [0, 1, 65]
                .into_iter()
                .flat_map(|from| [rows - 65, rows - 1, rows].map(|to| (from, to)))
                .collect();
            // The unpack: chunks `from..` of every run of 1..=6 chunks and
            // the whole page, in each form, against the generic decode.
            let generic = |words: &[u64]| -> Vec<u64> {
                let mut out = vec![0; words.len() / n * CHUNK_LEN];
                for (c, dst) in words.chunks(n).zip(out.as_chunks_mut::<CHUNK_LEN>().0) {
                    decode_chunk_generic(c, n, dst);
                }
                out
            };
            for chunks in 1..=6 {
                let words = &words[..chunks * n];
                let (exact, shifted) = byte_forms(words);
                let forms = [
                    Packed::Words(words),
                    Packed::Bytes(&exact),
                    Packed::Bytes(&shifted[3..3 + exact.len()]),
                ];
                let want = generic(words);
                assert_eq!(want, values[..chunks * CHUNK_LEN], "generic decode: bits={bits}");
                for src in forms {
                    for from in 0..chunks {
                        let mut out = vec![u64::MAX; (chunks - from) * CHUNK_LEN];
                        unpack_chunks(src, w, from, &mut out);
                        assert_eq!(out, want[from * CHUNK_LEN..], "unpack: bits={bits} chunks {from}..{chunks} {src:?}");
                    }
                }
            }
            let want = generic(&page_words);
            for src in [
                Packed::Words(&page_words),
                Packed::Bytes(&page_exact),
                Packed::Bytes(&page_shifted[3..3 + page_exact.len()]),
            ] {
                let mut out = vec![u64::MAX; want.len()];
                unpack_chunks(src, w, 0, &mut out);
                assert_eq!(out, want, "unpack: bits={bits} page {src:?}");
            }
            let mut masked_runs = 0;
            for set in shapes(bits, &values) {
                let pred = KernelPredicate::new(w, &set);
                let naive = naive_bitmaps(&values, &set);
                let generic: Vec<u64> =
                    words.chunks(n).map(|c| chunk_bitmap_generic(c, w, &set)).collect();
                assert_eq!(generic, naive, "generic: bits={bits} {set:?}");
                for chunks in 1..=6 {
                    let words = &words[..chunks * n];
                    let (exact, shifted) = byte_forms(words);
                    let forms = [
                        Packed::Words(words),
                        Packed::Bytes(&exact),
                        Packed::Bytes(&shifted[3..3 + exact.len()]),
                    ];
                    // At six chunks, counts over every sub-run of 1..=6
                    // chunks, masked by each head / tail pair: a sub-run's
                    // last load is masked where its byte length leaves the
                    // tier a short load.
                    let rows = if chunks == 6 { 64 * chunks as u64 } else { 0 };
                    let ranges = || {
                        EDGES.iter().flat_map(move |&from| {
                            let ends = EDGES.iter().filter(move |&&to| from < to && to <= rows);
                            ends.map(move |&to| (from, to))
                        })
                    };
                    let run_chunks = |(from, to): (u64, u64)| to.div_ceil(64) - from / 64;
                    masked_runs += ranges()
                        .filter(|&r| last_load_masked(bits, run_chunks(r) as usize))
                        .count();
                    for src in forms {
                        let at = |what: &str| {
                            format!("{what}: bits={bits} chunks={chunks} {set:?} {src:?}")
                        };
                        agree(&pred, &naive[..chunks], src, ranges(), &at);
                    }
                }
                let naive = naive_bitmaps(&page_values, &set);
                let forms = [
                    Packed::Words(&page_words),
                    Packed::Bytes(&page_exact),
                    Packed::Bytes(&page_shifted[3..3 + page_exact.len()]),
                ];
                for src in forms {
                    let at = |what: &str| format!("{what}: bits={bits} page {set:?}");
                    agree(&pred, &naive, src, page_ranges.iter().copied(), &at);
                }
            }
            if ![8, 16, 32].contains(&bits) && simd::LANE_BYTES[n] != 0 {
                assert!(masked_runs > 0, "bits={bits}: no run ends in a masked load");
            }
        }
    }

    #[test]
    fn vbmi_hosts_take_the_simd_kernels() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        let vbmi = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi");
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let vbmi = false;
        if !vbmi {
            println!("skipped: this host has no AVX-512 VBMI, every width takes SWAR");
            return;
        }
        for bits in 1..=32u32 {
            let w = BitWidth::new(bits).unwrap();
            let max = w.max_value();
            let small: Vec<u64> = (0..MAX_LINEAR_SET as u64).map(|i| i * max / 16 + 1).collect();
            let lanes = ![1, 27, 29, 30, 31].contains(&bits);
            for set in [
                VidSet::Single(max / 3),
                VidSet::range(1, max / 2),
                VidSet::Sorted(small[..4.min(small.len())].to_vec()),
                VidSet::Sorted(small.clone()),
            ] {
                let pred = KernelPredicate::new(w, &set);
                if pred.never_matches() || pred.always_matches() {
                    continue;
                }
                assert_eq!(pred.simd.is_some(), lanes, "bits={bits} {set:?}");
            }
            // Large sets decode and look up, on every host.
            let big = VidSet::Sorted((1..=MAX_LINEAR_SET as u64 + 1).collect());
            if max > MAX_LINEAR_SET as u64 {
                assert!(KernelPredicate::new(w, &big).simd.is_none(), "bits={bits}");
            }
        }
        let w = BitWidth::new(7).unwrap();
        let eq = VidSet::Single(9);
        assert!(matches!(KernelPredicate::new(w, &eq).simd, Some((_, simd::Test::Eq(9)))));
        let range = VidSet::range(3, 500);
        assert!(matches!(
            KernelPredicate::new(w, &range).simd,
            Some((_, simd::Test::Range(3, 127)))
        ));
    }

    #[test]
    fn long_resident_counts_do_not_wrap_lane_counters() {
        // 2^22 rows plus a ragged tail: 65 537 chunks. Counting all of them
        // as matches puts 65 537 hits in every 8-bit lane counter and
        // 131 074 in every 16-bit one if nothing were widened on the way.
        // One width at each end of each lane size.
        let rows = (1u64 << 22) + 37;
        let mix = |i: u64| (i ^ 0x5DEE_CE66).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        for bits in [2u32, 8, 9, 16, 17, 32] {
            let w = BitWidth::new(bits).unwrap();
            let (max, top) = (w.max_value(), 1u64 << (bits - 1));
            // Every row in the upper half of the domain: all match.
            let all: Vec<u64> = (0..rows).map(|i| top | (mix(i) & (top - 1))).collect();
            let vec = BitPackedVec::from_values_with_width(&all, w);
            let upper = VidSet::range(top, max);
            assert_eq!(count_matches(&vec, 0, rows, &upper), rows, "bits={bits} all");
            // Random values over the whole domain, against the naive count.
            let random: Vec<u64> = (0..rows).map(|i| mix(i) & max).collect();
            let vec = BitPackedVec::from_values_with_width(&random, w);
            for set in [
                VidSet::Single(max / 3),
                VidSet::range(max / 4, max / 2),
                VidSet::from_vids(vec![1, max / 2, max]),
            ] {
                let naive = random.iter().filter(|&&v| set.contains(v)).count() as u64;
                assert_eq!(count_matches(&vec, 0, rows, &set), naive, "bits={bits} {set:?}");
            }
        }
    }

    #[test]
    fn window_loads_agree_between_words_and_bytes() {
        // Every window the kernels read, both ways, against a bit-by-bit
        // extraction (the byte form with exactly the 8 bytes of slack the
        // kernel grants it).
        for bits in 1..=32u32 {
            let (_, words) = packed(bits, 1, u64::from(bits) * 11);
            let mut bytes = le_bytes(&words);
            bytes.extend([0u8; 8]);
            let lanes = window_lanes(bits);
            let need = lanes * bits as usize;
            let bit_at = |b: usize| (words[b >> 6] >> (b & 63)) & 1;
            for k in 0..CHUNK_LEN / lanes {
                let expect = (0..need).fold(0u64, |acc, i| acc | bit_at(k * need + i) << i);
                let mask = if need == 64 { u64::MAX } else { (1u64 << need) - 1 };
                assert_eq!((&words[..]).window(k * need, need) & mask, expect, "bits={bits} k={k}");
                assert_eq!((&bytes[..]).window(k * need, need) & mask, expect, "bits={bits} k={k}");
            }
        }
    }

    #[test]
    fn generic_reference_matches_naive_all_widths() {
        for bits in [0u32, 1, 3, 8, 13, 17, 32, 33, 47, 64] {
            let w = BitWidth::new(bits).unwrap();
            let (values, words) =
                if bits == 0 { (vec![0u64; CHUNK_LEN], Vec::new()) } else { packed(bits, 1, 5) };
            for set in [
                VidSet::Single(values[10]),
                VidSet::range(0, w.max_value() / 2),
                VidSet::from_vids(values[..5].to_vec()),
            ] {
                let bm = chunk_bitmap_generic(&words, w, &set);
                assert_eq!(vec![bm], naive_bitmaps(&values, &set), "bits={bits} {set:?}");
            }
        }
    }

    #[test]
    fn wide_widths_fall_back_to_the_generic_kernel_in_both_forms() {
        for bits in [33u32, 47, 64] {
            let w = BitWidth::new(bits).unwrap();
            let (values, words) = packed(bits, 2, u64::from(bits));
            let bytes = le_bytes(&words);
            for set in [
                VidSet::Single(values[5]),
                VidSet::range(0, w.max_value() / 2),
                VidSet::from_vids(vec![values[1], values[70], values[100], w.max_value()]),
            ] {
                let pred = KernelPredicate::new(w, &set);
                let naive = naive_bitmaps(&values, &set);
                for src in [Packed::Words(&words), Packed::Bytes(&bytes)] {
                    let mut got = Vec::new();
                    pred.scan(src, &mut got);
                    assert_eq!(got, naive, "bits={bits} {set:?} {src:?}");
                    let total: u64 = naive.iter().map(|b| u64::from(b.count_ones())).sum();
                    assert_eq!(pred.count(src, u64::MAX, u64::MAX), total);
                }
            }
        }
    }

    #[test]
    fn kernel_predicate_normalizes_degenerate_shapes() {
        let w = BitWidth::new(6).unwrap();
        // Probe above the width's domain: never matches.
        let over = VidSet::Single(1 << 10);
        assert!(KernelPredicate::new(w, &over).never_matches());
        // Full-domain range: always matches.
        let full = VidSet::range(0, u64::MAX);
        let always = KernelPredicate::new(w, &full);
        assert!(always.always_matches());
        let mut out = Vec::new();
        always.scan_chunks(&[0; 12], &mut out);
        assert_eq!(out, [u64::MAX; 2]);
        assert_eq!(always.count(Packed::Words(&[0; 12]), u64::MAX << 60, 1), 5);
        // Width 0 with 0 in the set: always; without: never.
        let zero = VidSet::Single(0);
        assert!(KernelPredicate::new(BitWidth::ZERO, &zero).always_matches());
        let one = VidSet::Single(1);
        assert!(KernelPredicate::new(BitWidth::ZERO, &one).never_matches());
    }

    #[test]
    fn count_matches_never_materializes_but_agrees() {
        let values: Vec<u64> = (0..1000u64).map(|i| i % 97).collect();
        let vec = BitPackedVec::from_values(&values);
        for set in [VidSet::Single(13), VidSet::range(10, 40), VidSet::from_vids(vec![0, 96])] {
            for (from, to) in [(0u64, 1000u64), (63, 65), (1, 999), (130, 130)] {
                let expect =
                    (from..to).filter(|&i| set.contains(values[i as usize])).count() as u64;
                assert_eq!(count_matches(&vec, from, to, &set), expect, "{set:?} {from}..{to}");
            }
        }
    }

    #[test]
    fn boundary_mask_trims() {
        assert_eq!(boundary_mask(0, 0, 64), u64::MAX);
        assert_eq!(boundary_mask(0, 3, 64), u64::MAX << 3);
        assert_eq!(boundary_mask(1, 0, 70), (1u64 << 6) - 1);
        assert_eq!(boundary_mask(2, 0, 70), 0);
        assert_eq!(boundary_mask(0, 70, 200), 0);
    }
}

//! Uniform n-bit packed vectors.
//!
//! A [`BitPackedVec`] stores `len` values, each `n` bits wide, as a sequence
//! of 64-value chunks (see [`crate::chunk`]). This is the in-memory form of
//! the paper's *data vector*: the fully-resident baseline keeps one
//! `BitPackedVec` per column fragment, and the paged variant persists the
//! same chunks across a page chain.

use crate::chunk::{
    self, chunk_count, decode_chunk, decode_slot, encode_chunk, words_per_chunk, CHUNK_LEN,
};
use crate::BitWidth;

/// An immutable vector of `len` values packed at a uniform bit width.
///
/// Storage is chunk-granular: the trailing partial chunk (if any) is padded
/// with zero values so that every chunk occupies exactly
/// [`chunk::words_per_chunk`] words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedVec {
    width: BitWidth,
    len: u64,
    words: Vec<u64>,
}

impl BitPackedVec {
    /// Packs `values` at the smallest width that fits their maximum.
    pub fn from_values(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        Self::from_values_with_width(values, BitWidth::for_max_value(max))
    }

    /// Packs `values` at an explicit width.
    ///
    /// # Panics
    /// Panics (debug) if any value exceeds the width's maximum.
    pub fn from_values_with_width(values: &[u64], width: BitWidth) -> Self {
        let mut b = BitPackedBuilder::new(width);
        for &v in values {
            b.push(v);
        }
        b.finish()
    }

    /// Reconstructs a vector from raw chunk words (e.g. read back from
    /// pages). `words.len()` must equal `chunk_count(len) * words_per_chunk`.
    pub fn from_words(width: BitWidth, len: u64, words: Vec<u64>) -> crate::Result<Self> {
        let expect = chunk_count(len) as usize * words_per_chunk(width);
        if words.len() != expect {
            return Err(crate::EncodingError::CorruptBlock {
                reason: format!(
                    "bitpacked vector: expected {expect} words for len {len} at {width}, got {}",
                    words.len()
                ),
            });
        }
        Ok(BitPackedVec { width, len, words })
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the vector holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The uniform bit width.
    #[inline]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Number of chunks (including the trailing padded chunk).
    #[inline]
    pub fn chunk_count(&self) -> u64 {
        chunk_count(self.len)
    }

    /// All backing words, chunk after chunk.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The words of chunk `ci`.
    #[inline]
    pub fn chunk_words(&self, ci: u64) -> &[u64] {
        let n = words_per_chunk(self.width);
        let start = ci as usize * n;
        &self.words[start..start + n]
    }

    /// Heap size in bytes (what the resource manager accounts for).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Decodes the value at position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    #[inline]
    pub fn get(&self, pos: u64) -> u64 {
        assert!(pos < self.len, "position {pos} out of bounds (len {})", self.len);
        if self.width.bits() == 0 {
            return 0;
        }
        decode_slot(
            self.chunk_words(chunk::chunk_of(pos)),
            self.width,
            chunk::slot_of(pos),
        )
    }

    /// Decodes positions `from..to` into `out` (cleared first).
    ///
    /// This is the resident-column `mget`: whole chunks decode
    /// chunk-at-a-time; on the (at most two) chunks the range covers only in
    /// part, just the requested slots are decoded — a one-value read costs
    /// one slot, not a chunk.
    pub fn mget(&self, from: u64, to: u64, out: &mut Vec<u64>) {
        assert!(from <= to && to <= self.len, "mget range {from}..{to} out of bounds");
        out.clear();
        out.reserve((to - from) as usize);
        if from == to {
            return;
        }
        let mut buf = [0u64; CHUNK_LEN];
        let first = chunk::chunk_of(from);
        let last = chunk::chunk_of(to - 1);
        for ci in first..=last {
            let words = self.chunk_words(ci);
            let lo = if ci == first { chunk::slot_of(from) } else { 0 };
            let hi = if ci == last { chunk::slot_of(to - 1) + 1 } else { CHUNK_LEN };
            if hi - lo == CHUNK_LEN {
                decode_chunk(words, self.width, &mut buf);
                out.extend_from_slice(&buf);
            } else {
                out.extend((lo..hi).map(|slot| decode_slot(words, self.width, slot)));
            }
        }
    }

    /// Iterates over all values.
    pub fn iter(&self) -> BitPackedIter<'_> {
        BitPackedIter { vec: self, pos: 0, buf: [0; CHUNK_LEN], buf_chunk: u64::MAX }
    }
}

/// Iterator over a [`BitPackedVec`], decoding chunk-at-a-time.
pub struct BitPackedIter<'a> {
    vec: &'a BitPackedVec,
    pos: u64,
    buf: [u64; CHUNK_LEN],
    buf_chunk: u64,
}

impl Iterator for BitPackedIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.pos >= self.vec.len {
            return None;
        }
        let ci = chunk::chunk_of(self.pos);
        if ci != self.buf_chunk {
            decode_chunk(self.vec.chunk_words(ci), self.vec.width, &mut self.buf);
            self.buf_chunk = ci;
        }
        let v = self.buf[chunk::slot_of(self.pos)];
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.vec.len - self.pos) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BitPackedIter<'_> {}

/// Incremental builder for a [`BitPackedVec`].
pub struct BitPackedBuilder {
    width: BitWidth,
    len: u64,
    pending: [u64; CHUNK_LEN],
    pending_len: usize,
    words: Vec<u64>,
}

impl BitPackedBuilder {
    /// Creates a builder at the given width.
    pub fn new(width: BitWidth) -> Self {
        BitPackedBuilder { width, len: 0, pending: [0; CHUNK_LEN], pending_len: 0, words: Vec::new() }
    }

    /// Creates a builder sized for `len` values.
    pub fn with_capacity(width: BitWidth, len: u64) -> Self {
        let mut b = Self::new(width);
        b.words
            .reserve(chunk_count(len) as usize * words_per_chunk(width));
        b
    }

    /// Appends one value.
    ///
    /// # Panics
    /// Panics if the value does not fit the width.
    pub fn push(&mut self, v: u64) {
        assert!(
            v <= self.width.max_value(),
            "value {v} does not fit in {}",
            self.width
        );
        self.pending[self.pending_len] = v;
        self.pending_len += 1;
        self.len += 1;
        if self.pending_len == CHUNK_LEN {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        let n = words_per_chunk(self.width);
        let start = self.words.len();
        self.words.resize(start + n, 0);
        encode_chunk(&self.pending, self.width, &mut self.words[start..]);
        self.pending = [0; CHUNK_LEN];
        self.pending_len = 0;
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finalizes the vector, zero-padding the trailing chunk.
    pub fn finish(mut self) -> BitPackedVec {
        if self.pending_len > 0 {
            self.flush_chunk();
        }
        BitPackedVec { width: self.width, len: self.len, words: self.words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, w: BitWidth) -> Vec<u64> {
        (0..len)
            .map(|i| {
                (0xD134_2543_DE82_EF95u64
                    .wrapping_mul(i as u64 ^ 0xABCD)
                    .rotate_right(i as u32 % 61))
                    & w.mask()
            })
            .collect()
    }

    #[test]
    fn get_matches_source_across_widths_and_lengths() {
        for bits in [0u32, 1, 3, 5, 7, 8, 11, 13, 16, 23, 31, 32, 33, 48, 63, 64] {
            let w = BitWidth::new(bits).unwrap();
            for len in [0usize, 1, 63, 64, 65, 130, 1000] {
                let values = sample(len, w);
                let v = BitPackedVec::from_values_with_width(&values, w);
                assert_eq!(v.len() as usize, len);
                for (i, &expect) in values.iter().enumerate() {
                    assert_eq!(v.get(i as u64), expect, "bits={bits} len={len} i={i}");
                }
                let collected: Vec<u64> = v.iter().collect();
                assert_eq!(collected, values);
            }
        }
    }

    /// Every `from..to` of a 3-chunk vector (so every pair of edge slots,
    /// with zero, one or two partial chunks around a whole one, and the empty
    /// `from == to`) at every width the scan kernels serve, against `get` —
    /// once with a full and once with a padded trailing chunk.
    #[test]
    fn mget_equals_get_for_every_edge_slot_pair() {
        let mut out = Vec::new();
        for bits in 0..=32u32 {
            let w = BitWidth::new(bits).unwrap();
            for len in [3 * CHUNK_LEN as u64, 2 * CHUNK_LEN as u64 + 37] {
                let values = sample(len as usize, w);
                let v = BitPackedVec::from_values_with_width(&values, w);
                let by_get: Vec<u64> = (0..len).map(|p| v.get(p)).collect();
                assert_eq!(by_get, values, "bits={bits}");
                for from in 0..=len {
                    for to in from..=len {
                        v.mget(from, to, &mut out);
                        assert_eq!(out, &by_get[from as usize..to as usize], "bits={bits} {from}..{to}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_values_picks_minimal_width() {
        let v = BitPackedVec::from_values(&[0, 5, 300]);
        assert_eq!(v.width().bits(), 9);
        let v = BitPackedVec::from_values(&[0, 0, 0]);
        assert_eq!(v.width().bits(), 0);
        assert_eq!(v.heap_bytes(), 0);
        assert_eq!(v.get(2), 0);
    }

    #[test]
    fn from_words_validates_length() {
        let w = BitWidth::new(8).unwrap();
        assert!(BitPackedVec::from_words(w, 64, vec![0; 8]).is_ok());
        assert!(BitPackedVec::from_words(w, 64, vec![0; 7]).is_err());
        assert!(BitPackedVec::from_words(w, 65, vec![0; 8]).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_rejects_oversized_value() {
        let mut b = BitPackedBuilder::new(BitWidth::new(3).unwrap());
        b.push(8);
    }
}

//! Chunk geometry: fixed groups of 64 identifiers.
//!
//! The paper splits paged vectors into *chunks of exactly 64 identifiers*
//! (§3.1.1). At width `n`, a chunk occupies exactly `n` 64-bit words
//! (64 · n bits), so every chunk is an integral number of bytes regardless of
//! `n`, and no value ever spans a chunk boundary. Pages store an integral
//! number of chunks, which is what makes mapping a row position to a logical
//! page number pure arithmetic.

use crate::BitWidth;

/// Number of values per chunk. Fixed by the on-page format.
pub const CHUNK_LEN: usize = 64;

/// Number of 64-bit words one chunk occupies at width `w` (equals `w.bits()`).
#[inline]
pub fn words_per_chunk(w: BitWidth) -> usize {
    w.bits() as usize
}

/// Number of bytes one chunk occupies at width `w`.
#[inline]
pub fn bytes_per_chunk(w: BitWidth) -> usize {
    words_per_chunk(w) * 8
}

/// Index of the chunk containing position `pos`.
#[inline]
pub fn chunk_of(pos: u64) -> u64 {
    pos / CHUNK_LEN as u64
}

/// Slot of position `pos` within its chunk.
#[inline]
pub fn slot_of(pos: u64) -> usize {
    (pos % CHUNK_LEN as u64) as usize
}

/// Number of chunks needed to hold `len` values (last chunk may be partial
/// logically, but always occupies full chunk storage).
#[inline]
pub fn chunk_count(len: u64) -> u64 {
    len.div_ceil(CHUNK_LEN as u64)
}

/// Decodes one value from a chunk stored as `n` words.
///
/// `words` must contain exactly `words_per_chunk(w)` words; `slot < 64`.
#[inline]
pub fn decode_slot(words: &[u64], w: BitWidth, slot: usize) -> u64 {
    let n = w.bits() as usize;
    if n == 0 {
        return 0;
    }
    debug_assert_eq!(words.len(), n);
    debug_assert!(slot < CHUNK_LEN);
    let bit = slot * n;
    let word = bit / 64;
    let shift = (bit % 64) as u32;
    let mut v = words[word] >> shift;
    let taken = 64 - shift as usize;
    if taken < n {
        v |= words[word + 1] << (64 - shift);
    }
    v & w.mask()
}

/// Decodes one value straight from a chunk's stored bytes — its `n`
/// little-endian words — reading only the one or two words holding `slot`
/// (what a point read of a page needs: no word buffer to fill).
///
/// `bytes` must hold `bytes_per_chunk(w)` bytes; `slot < 64`.
#[inline]
pub fn decode_slot_bytes(bytes: &[u8], w: BitWidth, slot: usize) -> u64 {
    let n = w.bits() as usize;
    if n == 0 {
        return 0;
    }
    debug_assert_eq!(bytes.len(), bytes_per_chunk(w));
    debug_assert!(slot < CHUNK_LEN);
    let bit = slot * n;
    let word = |i: usize| crate::unaligned::le_u64_padded(bytes, i * 8);
    let shift = (bit % 64) as u32;
    let mut v = word(bit / 64) >> shift;
    if 64 - (shift as usize) < n {
        v |= word(bit / 64 + 1) << (64 - shift);
    }
    v & w.mask()
}

/// Decodes a full chunk of 64 values into `out`.
///
/// `words.len()` must equal `words_per_chunk(w)`.
pub fn decode_chunk(words: &[u64], w: BitWidth, out: &mut [u64; CHUNK_LEN]) {
    let n = w.bits() as usize;
    if n == 0 {
        out.fill(0);
        return;
    }
    debug_assert_eq!(words.len(), n);
    match n {
        1 => decode_chunk_pow2::<1>(words, out),
        2 => decode_chunk_pow2::<2>(words, out),
        4 => decode_chunk_pow2::<4>(words, out),
        8 => decode_chunk_pow2::<8>(words, out),
        16 => decode_chunk_pow2::<16>(words, out),
        32 => decode_chunk_pow2::<32>(words, out),
        64 => out.copy_from_slice(words),
        _ => decode_chunk_generic(words, n, out),
    }
}

/// Decode for widths that divide 64: each word holds `64 / N` whole values,
/// so the inner loop has no cross-word carries, constant shifts and no
/// bounds checks — it autovectorizes.
fn decode_chunk_pow2<const N: usize>(words: &[u64], out: &mut [u64; CHUNK_LEN]) {
    let per_word = 64 / N;
    let mask = if N == 64 { u64::MAX } else { (1u64 << N) - 1 };
    for (&word, slots) in words.iter().zip(out.chunks_exact_mut(per_word)) {
        for (lane, slot) in slots.iter_mut().enumerate() {
            *slot = (word >> (lane * N)) & mask;
        }
    }
}

/// Generic decode: walks the chunk's words once, carrying straddled bits.
fn decode_chunk_generic(words: &[u64], n: usize, out: &mut [u64; CHUNK_LEN]) {
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut acc: u128 = 0;
    let mut acc_bits: usize = 0;
    let mut next_word = 0usize;
    for slot in out.iter_mut() {
        if acc_bits < n {
            acc |= (words[next_word] as u128) << acc_bits;
            next_word += 1;
            acc_bits += 64;
        }
        *slot = (acc as u64) & mask;
        acc >>= n;
        acc_bits -= n;
    }
}

/// Encodes 64 values into a chunk of `words_per_chunk(w)` words.
///
/// Values must fit in `w` bits; `out` must be zeroed (or will be fully
/// overwritten) and exactly `words_per_chunk(w)` long.
pub fn encode_chunk(values: &[u64; CHUNK_LEN], w: BitWidth, out: &mut [u64]) {
    let n = w.bits() as usize;
    if n == 0 {
        return;
    }
    debug_assert_eq!(out.len(), n);
    out.fill(0);
    for (slot, &v) in values.iter().enumerate() {
        debug_assert!(v <= w.max_value(), "value {v} exceeds {w}");
        let bit = slot * n;
        let word = bit / 64;
        let shift = (bit % 64) as u32;
        out[word] |= v << shift;
        let taken = 64 - shift as usize;
        if taken < n {
            out[word + 1] |= v >> (64 - shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(w: BitWidth, values: &[u64; CHUNK_LEN]) {
        let mut words = vec![0u64; words_per_chunk(w)];
        encode_chunk(values, w, &mut words);
        let mut out = [0u64; CHUNK_LEN];
        decode_chunk(&words, w, &mut out);
        assert_eq!(&out, values, "chunk roundtrip at {w}");
        let bytes: Vec<u8> = words.iter().flat_map(|x| x.to_le_bytes()).collect();
        for (slot, &expect) in values.iter().enumerate() {
            assert_eq!(decode_slot(&words, w, slot), expect, "slot {slot} at {w}");
            assert_eq!(decode_slot_bytes(&bytes, w, slot), expect, "slot {slot} at {w}, from bytes");
        }
    }

    #[test]
    fn roundtrip_all_widths() {
        for bits in 0..=64u32 {
            let w = BitWidth::new(bits).unwrap();
            let mut values = [0u64; CHUNK_LEN];
            for (i, v) in values.iter_mut().enumerate() {
                // Deterministic pseudo-random pattern clipped to the width.
                *v = (0x9E37_79B9_7F4A_7C15u64
                    .wrapping_mul(i as u64 + 1)
                    .rotate_left(i as u32))
                    & w.mask();
            }
            roundtrip(w, &values);
        }
    }

    #[test]
    fn roundtrip_extremes() {
        for bits in 1..=64u32 {
            let w = BitWidth::new(bits).unwrap();
            let values = [w.max_value(); CHUNK_LEN];
            roundtrip(w, &values);
            let values = [0u64; CHUNK_LEN];
            roundtrip(w, &values);
        }
    }

    #[test]
    fn zero_width_decodes_zeroes() {
        let mut out = [7u64; CHUNK_LEN];
        decode_chunk(&[], BitWidth::ZERO, &mut out);
        assert!(out.iter().all(|&v| v == 0));
        assert_eq!(decode_slot(&[], BitWidth::ZERO, 63), 0);
    }

    #[test]
    fn geometry() {
        assert_eq!(bytes_per_chunk(BitWidth::new(5).unwrap()), 40);
        assert_eq!(chunk_of(0), 0);
        assert_eq!(chunk_of(63), 0);
        assert_eq!(chunk_of(64), 1);
        assert_eq!(slot_of(65), 1);
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(64), 1);
        assert_eq!(chunk_count(65), 2);
    }
}

//! Partitioned Elias-Fano encoding for posting lists.
//!
//! A posting sequence is split into partitions of up to [`PARTITION_LEN`]
//! (= 64, the chunk granularity every paged vector already uses) strictly
//! non-decreasing values. Each partition is encoded independently:
//!
//! ```text
//! partition := base:varint  universe:varint  low[⌈n·l/8⌉]  high[⌈(n+(u≫l))/8⌉]
//! ```
//!
//! `base` is the first value, `universe = last − base`, and `l` — the
//! number of low bits stored verbatim per value — is derived
//! deterministically from `(universe, n)`, so the layout is self-framing
//! given the value count `n` (which callers know from their directories).
//! The high halves are the classic Elias-Fano unary bucket array: bit
//! `((vᵢ − base) ≫ l) + i` is set for each value `i`.
//!
//! [`PartitionRef::parse`] reads a partition's header and frames its body;
//! [`PartitionRef::read_into`] decodes it whole. Readers outside this
//! module have these two accessors and nothing else. The paged inverted
//! index stores a posting list as consecutive partitions spread across
//! pages, with a bit-packed skip table.

use crate::unaligned::le_u64_padded;
use crate::{EncodingError, Result};

/// Maximum number of values per partition (the 64-value chunk granularity).
pub const PARTITION_LEN: usize = 64;

/// Largest number of stored low bits per value. Capped so one padded word
/// load always covers a low-bit field (`l + 7 ≤ 64`).
const MAX_LOW_BITS: u32 = 57;

fn corrupt(reason: &str) -> EncodingError {
    EncodingError::CorruptBlock { reason: format!("pef: {reason}") }
}

/// Appends `v` LEB128-encoded to `out`.
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint from `bytes[pos..]`, returning `(value, next_pos)`.
fn get_varint(bytes: &[u8], mut pos: usize) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(pos).ok_or_else(|| corrupt("truncated varint"))?;
        pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(corrupt("varint overflows u64"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Ok((v, pos));
        }
        shift += 7;
    }
}

/// The number of low bits per value for a partition of `n` values spanning
/// `universe`: `⌊log₂(universe / n)⌋`, clamped to `0..=57`.
#[inline]
fn low_bits(universe: u64, n: usize) -> u32 {
    if universe == 0 || n == 0 {
        return 0;
    }
    let per = universe / n as u64;
    if per == 0 {
        0
    } else {
        (63 - per.leading_zeros()).min(MAX_LOW_BITS)
    }
}

/// The `l`-bit field at bit offset `bit` of `low` (little-endian bit order).
#[inline]
fn low_field(low: &[u8], bit: usize, l: u32) -> u64 {
    if l == 0 {
        return 0;
    }
    let word = le_u64_padded(low, bit / 8);
    (word >> (bit % 8)) & ((1u64 << l) - 1)
}

/// Encoded byte length of the low/high arrays for `(universe, n)`.
#[inline]
fn body_len(universe: u64, n: usize) -> (usize, usize, u32) {
    let l = low_bits(universe, n);
    let low_bytes = (n * l as usize).div_ceil(8);
    let high_bits = n as u64 + (universe >> l);
    let high_bytes = (high_bits as usize).div_ceil(8);
    (low_bytes, high_bytes, l)
}

/// Appends the encoding of one partition (`1..=64` non-decreasing values)
/// to `out` and returns the number of bytes written.
pub fn encode_partition(values: &[u64], out: &mut Vec<u8>) -> usize {
    assert!(
        !values.is_empty() && values.len() <= PARTITION_LEN,
        "partition must hold 1..=64 values"
    );
    debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "values must be sorted");
    let start = out.len();
    let base = values[0];
    let universe = values[values.len() - 1] - base;
    put_varint(base, out);
    put_varint(universe, out);
    let (low_bytes, high_bytes, l) = body_len(universe, values.len());
    let low_start = out.len();
    out.resize(low_start + low_bytes + high_bytes, 0);
    let (low, high) = out[low_start..].split_at_mut(low_bytes);
    for (i, &v) in values.iter().enumerate() {
        let rel = v - base;
        if l > 0 {
            let field = rel & ((1u64 << l) - 1);
            let bit = i * l as usize;
            // Byte-by-byte OR: fields are ≤ 57 bits so span ≤ 8 bytes.
            let mut word = field << (bit % 8);
            let mut byte = bit / 8;
            while word != 0 {
                low[byte] |= word as u8;
                word >>= 8;
                byte += 1;
            }
        }
        let pos = ((rel >> l) + i as u64) as usize;
        high[pos / 8] |= 1 << (pos % 8);
    }
    out.len() - start
}

/// Fully decodes one partition of `n` values starting at `bytes[pos..]`
/// into `out[..n]`, returning the offset one past the partition.
#[cfg(test)]
fn decode_partition(bytes: &[u8], pos: usize, n: usize, out: &mut [u64]) -> Result<usize> {
    let part = PartitionRef::parse(bytes, pos, n)?;
    part.read_into(out)?;
    Ok(part.end)
}

/// A parsed view of one encoded partition: header fields decoded, low/high
/// arrays still compressed.
pub struct PartitionRef<'a> {
    /// First value of the partition.
    base: u64,
    /// `last − base`.
    universe: u64,
    n: usize,
    l: u32,
    low: &'a [u8],
    high: &'a [u8],
    /// Offset one past this partition in the underlying buffer.
    pub end: usize,
}

impl<'a> PartitionRef<'a> {
    /// Parses the partition of `n` values starting at `bytes[pos..]`.
    pub fn parse(bytes: &'a [u8], pos: usize, n: usize) -> Result<Self> {
        if n == 0 || n > PARTITION_LEN {
            return Err(corrupt("partition count outside 1..=64"));
        }
        let (base, pos) = get_varint(bytes, pos)?;
        let (universe, pos) = get_varint(bytes, pos)?;
        if base.checked_add(universe).is_none() {
            return Err(corrupt("partition bounds overflow"));
        }
        let (low_bytes, high_bytes, l) = body_len(universe, n);
        let end = pos + low_bytes + high_bytes;
        if end > bytes.len() {
            return Err(corrupt("partition body truncated"));
        }
        let low = &bytes[pos..pos + low_bytes];
        let high = &bytes[pos + low_bytes..end];
        Ok(PartitionRef { base, universe, n, l, low, high, end })
    }

    /// Number of values in the partition.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: partitions hold at least one value.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes every value into `out[..self.len()]`, walking the high bits
    /// a word at a time: each set bit is found by `trailing_zeros` and
    /// cleared by `x & (x - 1)`, one step a value. The bytes are checked as
    /// they are read: a value past the declared universe, fewer set high
    /// bits than values, or a set bit after the last value's is corrupt.
    pub fn read_into(&self, out: &mut [u64]) -> Result<()> {
        if out.len() < self.n {
            return Err(corrupt("output buffer too small"));
        }
        let (n, l) = (self.n, self.l);
        let mut i = 0usize; // values emitted (set bits seen)
        for w in 0..self.high.len().div_ceil(8) {
            let mut word = le_u64_padded(self.high, w * 8);
            while word != 0 {
                if i == n {
                    return Err(corrupt("extra high bits after last value"));
                }
                // The bits before this one: `i` set, the rest the zeros
                // that count the high half.
                let bucket = (w * 64 + word.trailing_zeros() as usize - i) as u64;
                let rel = (bucket << l) | low_field(self.low, i * l as usize, l);
                if rel > self.universe {
                    return Err(corrupt("value exceeds declared universe"));
                }
                out[i] = self.base + rel;
                i += 1;
                word &= word - 1;
            }
        }
        if i < n {
            return Err(corrupt("fewer high bits than values"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(n: usize, seed: u64) -> Vec<u64> {
        // Runs of consecutive positions separated by jumps — the shape of
        // postings for values clustered by insertion order.
        let mut v = Vec::with_capacity(n);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1000;
        while v.len() < n {
            let run = 1 + (x % 17) as usize;
            for i in 0..run.min(n - v.len()) {
                v.push(x + i as u64);
            }
            x = x.wrapping_add(run as u64 + x % 113 + 1);
        }
        v
    }

    #[test]
    fn roundtrip_various_shapes() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![0],
            vec![5],
            vec![u64::MAX],
            vec![0, u64::MAX],
            (0..64u64).collect(),
            (0..64u64).map(|i| i * 1_000_003).collect(),
            vec![7; 64], // duplicates
            clustered(64, 9),
            clustered(17, 3), // partial partition
        ];
        for values in shapes {
            let mut buf = Vec::new();
            let written = encode_partition(&values, &mut buf);
            assert_eq!(written, buf.len());
            let mut out = vec![0u64; values.len()];
            let end = decode_partition(&buf, 0, values.len(), &mut out).unwrap();
            assert_eq!(end, buf.len());
            assert_eq!(out, values, "roundtrip failed for {values:?}");
        }
    }

    /// `values` as consecutive partitions in one buffer — the bytes a
    /// posting list occupies across the paged index's pages.
    fn partitions(values: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        for part in values.chunks(PARTITION_LEN) {
            encode_partition(part, &mut buf);
        }
        buf
    }

    #[test]
    fn back_to_back_partitions_frame_themselves() {
        for n in [1usize, 63, 64, 65, 128, 1000, 4097] {
            let values = clustered(n, n as u64);
            let buf = partitions(&values);
            let mut out = vec![0u64; n];
            let mut pos = 0;
            for (p, part) in values.chunks(PARTITION_LEN).enumerate() {
                pos = decode_partition(&buf, pos, part.len(), &mut out[p * PARTITION_LEN..]).unwrap();
            }
            assert_eq!(pos, buf.len(), "n={n}");
            assert_eq!(out, values, "n={n}");
        }
    }

    #[test]
    fn clustered_lists_beat_bitpacking() {
        let values = clustered(10_000, 1);
        let pef_bytes = partitions(&values).len();
        let max = *values.last().unwrap();
        let packed_bits = crate::BitWidth::for_max_value(max).bits() as usize;
        let packed_bytes = (values.len() * packed_bits).div_ceil(8);
        assert!(pef_bytes < packed_bytes, "pef {pef_bytes} >= bitpacked {packed_bytes}");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(PartitionRef::parse(&[], 0, 1).is_err()); // truncated varint
        assert!(PartitionRef::parse(&[0x80], 0, 1).is_err());
        assert!(PartitionRef::parse(&[0, 0], 0, 0).is_err()); // n = 0
        assert!(PartitionRef::parse(&[0, 0], 0, 65).is_err()); // n > 64
        // Body shorter than the derived low/high length.
        let mut buf = Vec::new();
        encode_partition(&(0..64u64).map(|i| i * 100).collect::<Vec<_>>(), &mut buf);
        assert!(PartitionRef::parse(&buf[..buf.len() - 1], 0, 64).is_err());
        // base + universe overflowing u64.
        let mut overflow = Vec::new();
        put_varint(u64::MAX, &mut overflow);
        put_varint(1, &mut overflow);
        assert!(PartitionRef::parse(&overflow, 0, 2).is_err());
    }

    #[test]
    fn corrupted_high_bits_surface_errors_not_panics() {
        let values: Vec<u64> = (0..64u64).map(|i| i * 3).collect();
        let mut buf = Vec::new();
        encode_partition(&values, &mut buf);
        let mut out = [0u64; 64];
        // Flip every byte in turn; decode must either error or produce
        // values (never panic / read out of bounds).
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xA5;
            let _ = decode_partition(&bad, 0, 64, &mut out);
        }
    }

    /// The oracle: the high bits read one at a time — a clear bit counts
    /// the high half up, a set bit is the next value — with the refusals of
    /// [`PartitionRef::read_into`].
    fn naive_read(part: &PartitionRef<'_>) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let mut bucket = 0u64;
        for bit in 0..part.high.len() * 8 {
            if part.high[bit / 8] & (1 << (bit % 8)) == 0 {
                bucket += 1;
                continue;
            }
            if out.len() == part.n {
                return Err(corrupt("extra high bits after last value"));
            }
            let low = low_field(part.low, out.len() * part.l as usize, part.l);
            let rel = (bucket << part.l) | low;
            if rel > part.universe {
                return Err(corrupt("value exceeds declared universe"));
            }
            out.push(part.base + rel);
        }
        if out.len() < part.n {
            return Err(corrupt("fewer high bits than values"));
        }
        Ok(out)
    }

    /// The word-at-a-time decoder's answer — its values or its refusal.
    fn word_read(part: &PartitionRef<'_>) -> Result<Vec<u64>> {
        let mut out = vec![0; part.n];
        part.read_into(&mut out).map(|()| out)
    }

    /// Random partitions at every low-bit width (0..=57) and at densities
    /// from one value to a full partition — values spread evenly, bunched
    /// at the ends, or repeated — decode to their values, the same as the
    /// bit-by-bit oracle; every byte flipped, and every high bit set or
    /// cleared, gives both decoders the same values or the same refusal.
    #[test]
    fn word_walk_equals_the_bit_by_bit_oracle_at_every_width_and_density() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut widths = [0usize; MAX_LOW_BITS as usize + 1];
        for l in 0..=MAX_LOW_BITS {
            for n in [1, 2, 3, 7, 31, 32, 33, 63, 64] {
                for shape in 0..3 {
                    // universe / n in [2^l, 2^(l+1)): this `l` low bits.
                    let per = (1u64 << l) + next() % (1u64 << l);
                    let universe = per.saturating_mul(n as u64);
                    let base = next() % (u64::MAX - universe).min(1 << 40);
                    let mut values: Vec<u64> = (0..n)
                        .map(|k| match shape {
                            0 => next() % (universe + 1),
                            1 if k < n / 2 => next() % (universe / 64 + 1),
                            1 => universe - next() % (universe / 64 + 1),
                            _ => universe / 2,
                        })
                        .map(|rel| base + rel)
                        .collect();
                    values[0] = base;
                    values[n - 1] = base + universe;
                    values.sort_unstable();
                    let mut buf = Vec::new();
                    encode_partition(&values, &mut buf);
                    let part = PartitionRef::parse(&buf, 0, n).unwrap();
                    widths[part.l as usize] += 1;
                    assert_eq!(word_read(&part).unwrap(), values, "l={l} n={n} shape {shape}");
                    assert_eq!(naive_read(&part).unwrap(), values, "l={l} n={n} shape {shape}");

                    let body = buf.len() - part.low.len() - part.high.len();
                    for byte in body..buf.len() {
                        for flip in [0xA5, 1 << (next() % 8)] {
                            let mut bad = buf.clone();
                            bad[byte] ^= flip;
                            let part = PartitionRef::parse(&bad, 0, n).unwrap();
                            let what = format!("l={l} n={n} byte {byte} ^ {flip:#x}");
                            assert_eq!(word_read(&part), naive_read(&part), "{what}");
                        }
                    }
                }
            }
        }
        assert!(widths.iter().all(|&w| w > 0), "every low-bit width decoded: {widths:?}");
    }

    /// The refusals, each on a partition built to trip it: a high bit
    /// past the last value's, a value past the universe, a missing value.
    #[test]
    fn corrupt_high_bits_are_refused_by_both_decoders() {
        let values: Vec<u64> = (0..10u64).map(|i| i * 3).collect();
        let mut buf = Vec::new();
        encode_partition(&values, &mut buf);
        let part = PartitionRef::parse(&buf, 0, values.len()).unwrap();
        let high = buf.len() - part.high.len();
        let last = (0..part.high.len() * 8).rev().find(|&b| part.high[b / 8] & (1 << (b % 8)) != 0);
        let last = high * 8 + last.unwrap();
        let refused = |bad: &[u8], reason: &str| {
            let part = PartitionRef::parse(bad, 0, values.len()).unwrap();
            let want = Err(corrupt(reason));
            assert_eq!(word_read(&part), want, "{reason}");
            assert_eq!(naive_read(&part), want, "{reason}");
        };
        // Another value's bit, past the last one (the same byte or later).
        for extra in [last + 1, (buf.len() * 8 - 1)] {
            let mut bad = buf.clone();
            bad[extra / 8] |= 1 << (extra % 8);
            refused(&bad, "extra high bits after last value");
        }
        // The last value's bit cleared: one value short.
        let mut bad = buf.clone();
        bad[last / 8] &= !(1 << (last % 8));
        refused(&bad, "fewer high bits than values");
        // The last value's bit moved up one: its high half past the universe.
        let mut bad = buf.clone();
        bad[last / 8] &= !(1 << (last % 8));
        bad[(last + 1) / 8] |= 1 << ((last + 1) % 8);
        refused(&bad, "value exceeds declared universe");
        let mut short = [0u64; 9];
        assert!(part.read_into(&mut short).is_err(), "an output buffer too small");
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            assert_eq!(get_varint(&buf, 0).unwrap(), (v, buf.len()));
        }
        assert!(get_varint(&[0xFF; 11], 0).is_err());
    }
}

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
//! [`PartitionRef::next_geq`] never fully decodes a partition: it first
//! compares the target against the header bounds (two varints — a whole
//! partition is skipped for the price of a dozen byte reads), then finds the
//! target's high bucket by counting zero bits bytewise and scans at most one
//! bucket's values. The only full decode is [`PartitionRef::read_into`]:
//! readers outside this module have the partition-aware accessors and
//! nothing else. The paged inverted index stores a posting list as
//! consecutive partitions spread across pages, with a bit-packed skip table.

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
    pub base: u64,
    /// `last − base`.
    pub universe: u64,
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

    /// The largest value in the partition.
    #[inline]
    pub fn last(&self) -> u64 {
        self.base + self.universe
    }

    /// Decodes every value into `out[..self.len()]`.
    pub fn read_into(&self, out: &mut [u64]) -> Result<()> {
        if out.len() < self.n {
            return Err(corrupt("output buffer too small"));
        }
        let mut i = 0usize; // values emitted (ones seen)
        let mut bucket = 0u64; // zeros seen = current high half
        for (byte_no, &b) in self.high.iter().enumerate() {
            if i == self.n {
                break;
            }
            if b == 0 {
                bucket += 8;
                continue;
            }
            for bit in 0..8 {
                if b & (1 << bit) == 0 {
                    bucket += 1;
                } else {
                    if i == self.n {
                        return Err(corrupt("extra high bits after last value"));
                    }
                    let low = low_field(self.low, i * self.l as usize, self.l);
                    let rel = (bucket << self.l) | low;
                    if rel > self.universe {
                        return Err(corrupt("value exceeds declared universe"));
                    }
                    out[i] = self.base + rel;
                    i += 1;
                }
                if i == self.n && byte_no == self.high.len() - 1 {
                    break;
                }
            }
        }
        if i < self.n {
            return Err(corrupt("fewer high bits than values"));
        }
        Ok(())
    }

    /// Smallest `(slot, value)` with `value >= target`, or `None` when every
    /// value is smaller. Operates on the compressed form: the header bound
    /// check rejects whole partitions, and only the target's high bucket
    /// onward is scanned.
    pub fn next_geq(&self, target: u64) -> Result<Option<(usize, u64)>> {
        if target <= self.base {
            // First value is base itself (rel 0 ⇒ low 0, bucket 0).
            let low = low_field(self.low, 0, self.l);
            debug_assert_eq!(low, 0);
            return Ok(Some((0, self.base)));
        }
        if target > self.last() {
            return Ok(None);
        }
        let t_rel = target - self.base;
        let t_bucket = t_rel >> self.l;
        // Skip whole bytes while every one-bit in them must belong to a
        // bucket strictly below the target's (a one after `k` in-byte zeros
        // has bucket `bucket + k`, so `bucket + zeros(byte) < t_bucket`
        // bounds them all away from the target).
        let mut i = 0usize;
        let mut bucket = 0u64;
        let mut byte_no = 0usize;
        while byte_no < self.high.len()
            && bucket + u64::from(8 - self.high[byte_no].count_ones()) < t_bucket
        {
            bucket += u64::from(8 - self.high[byte_no].count_ones());
            i += self.high[byte_no].count_ones() as usize;
            byte_no += 1;
        }
        // Bit-scan from here: emit values whose bucket ≥ t_bucket.
        while byte_no < self.high.len() {
            let b = self.high[byte_no];
            for bit in 0..8 {
                if b & (1 << bit) == 0 {
                    bucket += 1;
                } else {
                    if i >= self.n {
                        return Err(corrupt("extra high bits after last value"));
                    }
                    if bucket >= t_bucket {
                        let low = low_field(self.low, i * self.l as usize, self.l);
                        let rel = (bucket << self.l) | low;
                        if rel > self.universe {
                            return Err(corrupt("value exceeds declared universe"));
                        }
                        if rel >= t_rel {
                            return Ok(Some((i, self.base + rel)));
                        }
                    }
                    i += 1;
                }
            }
            byte_no += 1;
        }
        // target ≤ last ⇒ the scan must have found a value.
        Err(corrupt("high bits exhausted before reaching declared last value"))
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
    fn next_geq_matches_naive() {
        let values = clustered(700, 5);
        let buf = partitions(&values);
        let mut pos = 0;
        for part_values in values.chunks(PARTITION_LEN) {
            let part = PartitionRef::parse(&buf, pos, part_values.len()).unwrap();
            assert_eq!((part.base, part.last()), (part_values[0], *part_values.last().unwrap()));
            for target in (0..=part.last() + 2).step_by(7) {
                let naive = part_values.iter().enumerate().find(|&(_, &v)| v >= target);
                let got = part.next_geq(target).unwrap();
                assert_eq!(got, naive.map(|(i, &v)| (i, v)), "target {target}");
            }
            pos = part.end;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn partition_next_geq_scans_one_bucket() {
        let values: Vec<u64> = (0..64u64).map(|i| 100 + i * 9).collect();
        let mut buf = Vec::new();
        encode_partition(&values, &mut buf);
        let part = PartitionRef::parse(&buf, 0, 64).unwrap();
        for target in [0, 100, 101, 109, 350, 100 + 63 * 9] {
            let naive = values.iter().enumerate().find(|&(_, &v)| v >= target);
            let got = part.next_geq(target).unwrap();
            assert_eq!(got, naive.map(|(i, &v)| (i, v)), "target {target}");
        }
        assert_eq!(part.next_geq(100 + 63 * 9 + 1).unwrap(), None);
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
            if let Ok(part) = PartitionRef::parse(&bad, 0, 64) {
                let _ = part.next_geq(values[30]);
            }
        }
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

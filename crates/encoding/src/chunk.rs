//! Chunk geometry: fixed groups of 64 identifiers.
//!
//! The paper splits paged vectors into *chunks of exactly 64 identifiers*
//! (§3.1.1). At width `n`, a chunk occupies exactly `n` 64-bit words
//! (64 · n bits), so every chunk is an integral number of bytes regardless of
//! `n`, and no value ever spans a chunk boundary. Pages store an integral
//! number of chunks, which is what makes mapping a row position to a logical
//! page number pure arithmetic.

use crate::kernels::Packed;
use crate::simd::{self, Vbmi};
use crate::unaligned::fill_le_words;
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

/// Decodes a full chunk of 64 values into `out`: [`unpack_chunks`] of
/// the one chunk.
///
/// `words.len()` must equal `words_per_chunk(w)`.
pub fn decode_chunk(words: &[u64], w: BitWidth, out: &mut [u64; CHUNK_LEN]) {
    debug_assert_eq!(words.len(), w.bits() as usize);
    unpack_chunks(Packed::Words(words), w, 0, out);
}

/// Unpacks chunks `ci..` of the run `packed` at width `w` — as many whole
/// chunks as `out` holds, 64 values each — into `out`: the data vector's
/// `mget` over whole chunks, in either form (a resident vector's words, a
/// pinned page's bytes). Where the host has AVX-512 VBMI and its tier
/// serves the width (all of 2..=32 but 27, 29, 30 and 31), one kernel call
/// gathers every value of the chunks into an 8-, 16- or 32-bit lane and
/// widens it, reading the bytes where they lie; elsewhere each chunk
/// decodes through [`decode_chunk_portable`].
///
/// # Panics
/// If `out` is not whole chunks or they are not all in `packed`.
#[inline]
pub fn unpack_chunks(packed: Packed<'_>, w: BitWidth, ci: usize, out: &mut [u64]) {
    let n = w.bits() as usize;
    assert_eq!(out.len() % CHUNK_LEN, 0, "unpack whole chunks");
    if n == 0 {
        out.fill(0);
        return;
    }
    if let Some(vbmi) = vectorized(n) {
        vbmi.unpack(packed, w.bits(), ci, out);
        return;
    }
    let mut buf = [0u64; 64];
    for (i, dst) in out.as_chunks_mut::<CHUNK_LEN>().0.iter_mut().enumerate() {
        let words = match packed {
            Packed::Words(words) => &words[(ci + i) * n..][..n],
            Packed::Bytes(bytes) => {
                fill_le_words(&bytes[(ci + i) * n * 8..][..n * 8], &mut buf[..n]);
                &buf[..n]
            }
        };
        decode_chunk_portable(words, w, dst);
    }
}

/// The VBMI tier, where this host has it and it serves width `n`.
#[inline]
fn vectorized(n: usize) -> Option<Vbmi> {
    simd::LANE_BYTES.get(n).is_some_and(|&lane| lane != 0).then(Vbmi::detect).flatten()
}

/// [`decode_chunk`] without the VBMI tier: word-parallel at the widths
/// that divide 64, slot by slot at the rest — the portable path (a host
/// without VBMI, Miri, widths the tier does not serve) and the oracle the
/// unpack kernels are tested against.
pub(crate) fn decode_chunk_portable(words: &[u64], w: BitWidth, out: &mut [u64; CHUNK_LEN]) {
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
pub(crate) fn decode_chunk_generic(words: &[u64], n: usize, out: &mut [u64; CHUNK_LEN]) {
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

/// Decodes the value at every position of `rows` into `out` (same length):
/// the data vector's `mget` over a row list (§3.1.3), the one decoder both
/// forms of a data vector share — a resident vector's words (`first` 0)
/// and a pinned page's bytes (`first` the page's first row). `rows` ascend
/// and all lie in `packed`, whose first position is `first`, a chunk
/// boundary. A run of whole chunks of consecutive rows is unpacked straight
/// into `out` by one [`unpack_chunks`]; a chunk holding at least
/// `dense_chunk(w)` of the rows — every other row, all but a few, each row
/// twice — is unpacked once into a buffer and its rows read from there; any
/// other row decodes just its slot, from the one or two words holding it.
/// Width 0 writes zeroes and reads nothing.
#[inline]
pub fn decode_rows(packed: Packed<'_>, w: BitWidth, first: u64, rows: &[u64], out: &mut [u64]) {
    debug_assert_eq!(rows.len(), out.len());
    debug_assert_eq!(first % CHUNK_LEN as u64, 0, "a run starts on a chunk");
    let n = w.bits() as usize;
    let unpack = |ci: usize, out: &mut [u64]| unpack_chunks(packed, w, ci, out);
    match packed {
        _ if n == 0 => out.fill(0),
        Packed::Words(words) => {
            let slot = |ci: usize, slot| decode_slot(&words[ci * n..][..n], w, slot);
            decode_rows_in(w, first, rows, out, unpack, slot);
        }
        Packed::Bytes(bytes) => {
            let slot = |ci: usize, slot| decode_slot_bytes(&bytes[ci * n * 8..][..n * 8], w, slot);
            decode_rows_in(w, first, rows, out, unpack, slot);
        }
    }
}

/// [`decode_rows`] over one form of a run, compiled once per form:
/// `unpack(ci, out)` unpacks the whole chunks from `ci` on into `out`,
/// `slot(ci, slot)` decodes one value of chunk `ci`.
fn decode_rows_in(
    w: BitWidth,
    first: u64,
    rows: &[u64],
    out: &mut [u64],
    unpack: impl Fn(usize, &mut [u64]),
    slot: impl Fn(usize, usize) -> u64,
) {
    let dense = dense_chunk(w);
    // The values of a dense chunk, set up by the first one unpacked.
    let mut decoded: Option<[u64; CHUNK_LEN]> = None;
    let mut k = 0;
    while k < rows.len() {
        let at = rows[k] - first;
        let (ci, at_slot) = ((at / CHUNK_LEN as u64) as usize, (at % CHUNK_LEN as u64) as usize);
        let end = rows[k] - at_slot as u64 + CHUNK_LEN as u64;
        if rows.get(k + dense - 1).is_some_and(|&row| row < end) {
            // Whole chunks of consecutive rows, each starting where the one
            // before ended: unpacked straight into `out`, in one call.
            let mut whole = 0;
            while at_slot == 0
                && rows[k + whole..]
                    .first_chunk()
                    .is_some_and(|c| c[0] == rows[k] + whole as u64 && consecutive(c))
            {
                whole += CHUNK_LEN;
            }
            if whole > 0 {
                unpack(ci, &mut out[k..k + whole]);
                k += whole;
                continue;
            }
            let decoded = decoded.get_or_insert([0; CHUNK_LEN]);
            unpack(ci, decoded);
            let run = dense + rows[k + dense..].iter().take_while(|&&row| row < end).count();
            for (id, &row) in out[k..k + run].iter_mut().zip(&rows[k..k + run]) {
                *id = decoded[slot_of(row)];
            }
            k += run;
            continue;
        }
        out[k] = slot(ci, at_slot);
        k += 1;
    }
}

/// Fewest rows of one chunk that [`decode_rows`] unpacks the chunk whole
/// for: a quarter of it where the chunk unpacks vectorized — at a width the
/// VBMI tier serves on a host that has it, or word-parallel at a
/// power-of-two width — three quarters where it unpacks a slot at a time
/// (about the cost of decoding each slot on its own, less the reads of the
/// words holding it). On a 2-vCPU AVX-512 VBMI Xeon, one 4 KiB page at 13
/// bits decodes every other row in 2.0 ns a row this way against 5.7 by
/// slot, every 4th in 3.0 against 5.9.
fn dense_chunk(w: BitWidth) -> usize {
    if w.bits().is_power_of_two() || vectorized(w.bits() as usize).is_some() {
        CHUNK_LEN / 4
    } else {
        CHUNK_LEN * 3 / 4
    }
}

/// True when `rows` are `rows[0], rows[0] + 1, …` — one pass without an
/// early exit, so it vectorizes.
fn consecutive(rows: &[u64; CHUNK_LEN]) -> bool {
    rows.iter().zip(rows[0]..).fold(0, |diff, (&row, want)| diff | (row ^ want)) == 0
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

    /// `unpack_chunks` — the VBMI unpack where the host has it, the
    /// portable decode elsewhere and under Miri — against the generic
    /// decode, at every width 0..=33 and 64, over a run's words and its
    /// bytes read from an odd address, from each of its three chunks on
    /// (the last chunk's loads end at the run's end).
    #[test]
    fn unpack_chunks_equal_the_generic_decode_in_every_form() {
        for bits in (0..=33u32).chain([64]) {
            let w = BitWidth::new(bits).unwrap();
            let n = bits as usize;
            let values: Vec<u64> = (0..3 * CHUNK_LEN as u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 7).rotate_left(i as u32) & w.mask())
                .collect();
            let mut words = vec![0u64; 3 * n];
            for (vals, out) in values.chunks(CHUNK_LEN).zip(words.chunks_mut(n.max(1))) {
                encode_chunk(vals.try_into().unwrap(), w, &mut out[..n]);
            }
            let mut odd = vec![0xA5u8];
            odd.extend(words.iter().flat_map(|word| word.to_le_bytes()));
            for (form, packed) in [("words", Packed::Words(&words)), ("bytes", Packed::Bytes(&odd[1..]))] {
                for from in 0..3 {
                    let mut out = vec![u64::MAX; (3 - from) * CHUNK_LEN];
                    unpack_chunks(packed, w, from, &mut out);
                    let mut want = [0u64; CHUNK_LEN];
                    for (ci, got) in (from..3).zip(out.chunks(CHUNK_LEN)) {
                        if n == 0 {
                            want = [0; CHUNK_LEN];
                        } else {
                            decode_chunk_generic(&words[ci * n..][..n], n, &mut want);
                        }
                        assert_eq!(got, want, "{w}, {form}, chunks {from}.., chunk {ci}");
                        assert_eq!(got, &values[ci * CHUNK_LEN..][..CHUNK_LEN], "{w}, {form}: values");
                    }
                }
            }
        }
    }

    /// `decode_rows` against `BitPackedVec::get`, row by row, at every
    /// width 0..=32, over a vector's words and over its bytes (read from an
    /// odd address), from its first chunk and from a later one (a page
    /// starting mid-vector). The row lists take each path of the decoder:
    /// whole consecutive chunks, runs from chunk edges ±1, each chunk's
    /// first 15, 16, 47 and 48 rows (both whole-chunk thresholds, on either
    /// side), every row twice, 64 rows of one chunk that are not its 64
    /// rows (its first twice, its second missing), single and sparse rows.
    #[test]
    fn decode_rows_equals_get_at_every_width_in_both_forms() {
        use crate::{BitPackedVec, Packed};
        let len = 4 * CHUNK_LEN as u64 + 21;
        let mut lists: Vec<Vec<u64>> =
            vec![(0..len).collect(), (64..192).collect(), (0..len).step_by(7).collect()];
        for from in [63, 64, 65] {
            for to in [127, 128, 129, 191, 192, 193] {
                lists.push((from..to).collect());
            }
        }
        for k in [15, 16, 47, 48] {
            lists.push((0..len).filter(|row| row % 64 < k).collect());
        }
        lists.push((0..len).flat_map(|row| [row, row]).collect());
        lists.push([64, 64].into_iter().chain(66..192).collect());
        lists.extend([0, 63, 64, len - 1].map(|row| vec![row]));
        for bits in 0..=32u32 {
            let w = BitWidth::new(bits).unwrap();
            let values: Vec<u64> = (0..len)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1).rotate_left(i as u32) & w.mask())
                .collect();
            let vec = BitPackedVec::from_values_with_width(&values, w);
            let n = bits as usize;
            let mut odd = vec![0xA5u8];
            odd.extend(vec.words().iter().flat_map(|word| word.to_le_bytes()));
            let bytes = &odd[1..];
            for chunk in [0, 2] {
                let first = chunk as u64 * CHUNK_LEN as u64;
                let forms = [
                    ("words", Packed::Words(&vec.words()[chunk * n..])),
                    ("bytes", Packed::Bytes(&bytes[chunk * n * 8..])),
                ];
                for (form, packed) in forms {
                    for (i, list) in lists.iter().enumerate() {
                        let rows: Vec<u64> = list.iter().copied().filter(|&row| row >= first).collect();
                        let mut out = vec![u64::MAX; rows.len()];
                        decode_rows(packed, w, first, &rows, &mut out);
                        let want: Vec<u64> = rows.iter().map(|&row| vec.get(row)).collect();
                        assert_eq!(out, want, "{w}, {form} from row {first}, row list {i}");
                    }
                }
            }
        }
    }
}

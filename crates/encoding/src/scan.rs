//! Scan entry points over resident packed vectors.
//!
//! [`search`] and [`search_bitmap`] are the paper's range `search`
//! (§3.1.3) over a [`BitPackedVec`], materializing positions or a result
//! bitmap. Both evaluate through [`KernelPredicate`] — the same
//! width-specialized kernels the paged iterator hands its pinned pages to,
//! so a paged/resident comparison compares page access, not kernels.

use crate::chunk::CHUNK_LEN;
use crate::kernels::KernelPredicate;
use crate::{BitPackedVec, VidSet};

/// Pushes the row positions set in `bitmap` (relative to `base`) onto `out`,
/// restricted to positions in `from..to`.
#[inline]
pub fn push_bitmap_positions(mut bitmap: u64, base: u64, from: u64, to: u64, out: &mut Vec<u64>) {
    // Trim slots below `from` and at/above `to`.
    if base < from {
        let skip = from - base;
        if skip >= 64 {
            return;
        }
        bitmap &= u64::MAX << skip;
    }
    if base + 64 > to {
        if to <= base {
            return;
        }
        let keep = to - base;
        if keep < 64 {
            bitmap &= (1u64 << keep) - 1;
        }
    }
    // Saturated chunk (common on low-selectivity predicates): extend the
    // whole run instead of peeling 64 bits one at a time.
    if bitmap == u64::MAX {
        out.extend(base..base + 64);
        return;
    }
    while bitmap != 0 {
        let slot = bitmap.trailing_zeros() as u64;
        out.push(base + slot);
        bitmap &= bitmap - 1;
    }
}

/// Chunks evaluated per kernel call by [`search`]: bounds the transient
/// result bitmaps (4 KiB) whatever the range.
const SEARCH_BLOCK_CHUNKS: usize = 512;

/// Scans `vec[from..to]` for positions whose value is in `set`, appending
/// matches (ascending) to `out`. This is the resident-column `search`; it
/// evaluates through the same [`KernelPredicate`] the paged iterator hands
/// its pinned pages to.
pub fn search(vec: &BitPackedVec, from: u64, to: u64, set: &VidSet, out: &mut Vec<u64>) {
    assert!(from <= to && to <= vec.len(), "search range {from}..{to} out of bounds");
    if from == to || set.is_empty() {
        return;
    }
    let pred = KernelPredicate::new(vec.width(), set);
    if pred.never_matches() {
        return;
    }
    if pred.always_matches() {
        out.extend(from..to);
        return;
    }
    let n = vec.width().bits() as usize;
    let first = (from / CHUNK_LEN as u64) as usize;
    let last = ((to - 1) / CHUNK_LEN as u64) as usize;
    let mut bitmaps = Vec::with_capacity(SEARCH_BLOCK_CHUNKS.min(last - first + 1));
    let blocks = vec.words()[first * n..(last + 1) * n].chunks(SEARCH_BLOCK_CHUNKS * n);
    for (bi, words) in blocks.enumerate() {
        bitmaps.clear();
        pred.scan_chunks(words, &mut bitmaps);
        let base = first + bi * SEARCH_BLOCK_CHUNKS;
        for (k, &bm) in bitmaps.iter().enumerate() {
            if bm != 0 {
                push_bitmap_positions(bm, ((base + k) * CHUNK_LEN) as u64, from, to, out);
            }
        }
    }
}

/// Scans `vec[from..to]` producing a result **bitmap** (one bit per row,
/// relative to `from`, packed into `out`) instead of materializing
/// positions. This is the bandwidth-bound form the paper's Fig. 1 measures:
/// the output cost is constant per 64 rows regardless of selectivity, so
/// the scan is limited by how fast packed data streams from memory.
pub fn search_bitmap(vec: &BitPackedVec, from: u64, to: u64, set: &VidSet, out: &mut Vec<u64>) {
    assert!(from <= to && to <= vec.len(), "search range {from}..{to} out of bounds");
    out.clear();
    if from == to {
        return;
    }
    assert!(from.is_multiple_of(CHUNK_LEN as u64), "bitmap search starts on a chunk boundary");
    let pred = KernelPredicate::new(vec.width(), set);
    let first = (from / CHUNK_LEN as u64) as usize;
    let last = ((to - 1) / CHUNK_LEN as u64) as usize;
    out.reserve(last - first + 1);
    let n = vec.width().bits() as usize;
    if n == 0 {
        // No words to scan: every slot holds 0.
        let all = if pred.always_matches() { u64::MAX } else { 0 };
        out.resize(last - first + 1, all);
    } else {
        // The packed words are contiguous: the whole range is one kernel call.
        pred.scan_chunks(&vec.words()[first * n..(last + 1) * n], out);
    }
    let keep = to - (last * CHUNK_LEN) as u64;
    if keep < 64 {
        if let Some(bm) = out.last_mut() {
            *bm &= (1u64 << keep) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitPackedBuilder, BitWidth};

    fn sample_vec(len: usize, bits: u32, seed: u64) -> (Vec<u64>, BitPackedVec) {
        let w = BitWidth::new(bits).unwrap();
        let values: Vec<u64> = (0..len)
            .map(|i| {
                (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    >> 17)
                    & w.mask()
            })
            .collect();
        let mut b = BitPackedBuilder::new(w);
        for &v in &values {
            b.push(v);
        }
        (values.clone(), b.finish())
    }

    fn naive_search(values: &[u64], from: u64, to: u64, set: &VidSet) -> Vec<u64> {
        (from..to).filter(|&i| set.contains(values[i as usize])).collect()
    }

    #[test]
    fn eq_matches_naive_across_widths() {
        for bits in [0u32, 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 21, 32, 33, 64] {
            let (values, vec) = sample_vec(300, bits, u64::from(bits) + 1);
            // Probe both present and absent vids.
            let mut probes: Vec<u64> = values.iter().take(5).copied().collect();
            probes.push(BitWidth::new(bits).unwrap().mask() / 2 + 1);
            probes.push(0);
            for vid in probes {
                let set = VidSet::Single(vid);
                let mut got = Vec::new();
                search(&vec, 0, vec.len(), &set, &mut got);
                assert_eq!(got, naive_search(&values, 0, vec.len(), &set), "bits={bits} vid={vid}");
            }
        }
    }

    #[test]
    fn range_and_set_predicates_match_naive() {
        let (values, vec) = sample_vec(500, 6, 42);
        for set in [
            VidSet::range(3, 17),
            VidSet::range(0, 63),
            VidSet::from_vids(vec![1, 5, 9, 44]),
            VidSet::from_vids(vec![2, 3, 4, 6, 7, 8]),
            VidSet::from_vids(values.iter().take(20).copied().collect()),
        ] {
            let mut got = Vec::new();
            search(&vec, 0, vec.len(), &set, &mut got);
            assert_eq!(got, naive_search(&values, 0, vec.len(), &set), "{set:?}");
        }
    }

    #[test]
    fn sub_range_search_trims_boundary_chunks() {
        let (values, vec) = sample_vec(400, 5, 7);
        let set = VidSet::range(0, 15);
        for (from, to) in [(0u64, 1u64), (63, 65), (1, 399), (120, 121), (64, 128), (399, 400)] {
            let mut got = Vec::new();
            search(&vec, from, to, &set, &mut got);
            assert_eq!(got, naive_search(&values, from, to, &set), "{from}..{to}");
        }
    }

    #[test]
    fn zero_width_vectors() {
        let (_, vec) = sample_vec(100, 0, 1);
        let mut got = Vec::new();
        search(&vec, 10, 20, &VidSet::Single(0), &mut got);
        assert_eq!(got, (10..20).collect::<Vec<u64>>());
        got.clear();
        search(&vec, 10, 20, &VidSet::Single(1), &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn search_bitmap_matches_positions() {
        let (values, vec) = sample_vec(300, 5, 9);
        let set = VidSet::range(3, 12);
        let mut words = Vec::new();
        search_bitmap(&vec, 0, 300, &set, &mut words);
        assert_eq!(words.len(), 5);
        let mut positions = Vec::new();
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                positions.push(wi as u64 * 64 + w.trailing_zeros() as u64);
                w &= w - 1;
            }
        }
        assert_eq!(positions, naive_search(&values, 0, 300, &set));
        // Trailing bits beyond `to` are cleared.
        search_bitmap(&vec, 0, 70, &VidSet::range(0, 31), &mut words);
        assert_eq!(words.len(), 2);
        assert_eq!(words[1] >> 6, 0);
    }

    #[test]
    fn bitmap_position_trimming() {
        let mut out = Vec::new();
        push_bitmap_positions(u64::MAX, 64, 70, 74, &mut out);
        assert_eq!(out, vec![70, 71, 72, 73]);
        out.clear();
        push_bitmap_positions(u64::MAX, 64, 0, 64, &mut out);
        assert!(out.is_empty());
        out.clear();
        push_bitmap_positions(u64::MAX, 64, 200, 300, &mut out);
        assert!(out.is_empty());
    }
}

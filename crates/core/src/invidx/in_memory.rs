//! The fully-resident inverted index.

use crate::{CoreError, CoreResult};
use payg_encoding::{BitPackedVec, BitWidth};

/// Memory-resident inverted index: a packed postinglist (row positions
/// grouped by vid) plus, for non-unique columns, a packed directory of
/// per-vid start offsets (with one trailing sentinel = row count).
#[derive(Debug, Clone)]
pub struct InMemoryInvertedIndex {
    cardinality: u64,
    rows: u64,
    postinglist: BitPackedVec,
    /// `cardinality + 1` offsets; `None` for unique columns (identity).
    directory: Option<BitPackedVec>,
}

impl InMemoryInvertedIndex {
    /// Builds from the per-row value identifiers. `cardinality` is the
    /// dictionary size; every vid in `0..cardinality` must occur at least
    /// once (main dictionaries only contain present values).
    pub fn build(values: &[u64], cardinality: u64) -> Self {
        let rows = values.len() as u64;
        let unique = cardinality == rows;
        // Counting sort of row positions by vid (stable: ascending rpos
        // within each vid).
        let mut counts = vec![0u64; cardinality as usize];
        for &v in values {
            counts[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(cardinality as usize + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursors = offsets.clone();
        let mut postings = vec![0u64; values.len()];
        for (rpos, &v) in values.iter().enumerate() {
            postings[cursors[v as usize] as usize] = rpos as u64;
            cursors[v as usize] += 1;
        }
        let wp = BitWidth::for_cardinality(rows.max(1));
        let postinglist = BitPackedVec::from_values_with_width(&postings, wp);
        let directory = if unique {
            None
        } else {
            Some(BitPackedVec::from_values(&offsets))
        };
        InMemoryInvertedIndex { cardinality, rows, postinglist, directory }
    }

    /// Dictionary cardinality.
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// True when the directory is elided (unique column).
    pub fn is_unique(&self) -> bool {
        self.directory.is_none()
    }

    /// The postinglist offsets `start..end` for `vid`.
    pub fn posting_range(&self, vid: u64) -> CoreResult<(u64, u64)> {
        if vid >= self.cardinality {
            return Err(CoreError::VidOutOfBounds { vid, cardinality: self.cardinality });
        }
        Ok(match &self.directory {
            None => (vid, vid + 1),
            Some(dir) => (dir.get(vid), dir.get(vid + 1)),
        })
    }

    /// Reads the **posting run** of the vids `lo..=hi` into `out` (cleared
    /// first): postings are stored grouped by vid (§3.3), so the run is one
    /// contiguous slice of the postinglist and one decode — vid-major, and
    /// ascending within each vid. A single vid is the run `v..=v` (on a
    /// unique index, one slot). An empty range (`lo > hi`) is an empty run.
    pub fn posting_run(&self, lo: u64, hi: u64, out: &mut Vec<u64>) -> CoreResult<()> {
        out.clear();
        if lo > hi {
            return Ok(());
        }
        if hi >= self.cardinality {
            return Err(CoreError::VidOutOfBounds { vid: hi, cardinality: self.cardinality });
        }
        let (start, end) = match &self.directory {
            None => (lo, hi + 1),
            Some(dir) => (dir.get(lo), dir.get(hi + 1)),
        };
        self.postinglist.mget(start, end, out);
        Ok(())
    }

    /// Number of postings of `vid` (directory lookup only).
    pub fn posting_count(&self, vid: u64) -> CoreResult<u64> {
        let (start, end) = self.posting_range(vid)?;
        Ok(end - start)
    }

    /// Number of rows indexed.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.postinglist.heap_bytes()
            + self.directory.as_ref().map_or(0, |d| d.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(idx: &InMemoryInvertedIndex, lo: u64, hi: u64) -> CoreResult<Vec<u64>> {
        let mut out = vec![u64::MAX]; // stale content must be cleared
        idx.posting_run(lo, hi, &mut out)?;
        Ok(out)
    }

    #[test]
    fn posting_runs_match_naive() {
        let values = [2u64, 0, 1, 2, 2, 0, 3, 1];
        let idx = InMemoryInvertedIndex::build(&values, 4);
        assert!(!idx.is_unique());
        let naive = |vid: u64| -> Vec<u64> {
            (0..values.len() as u64).filter(|&i| values[i as usize] == vid).collect()
        };
        for lo in 0..4u64 {
            for hi in lo..4 {
                // A run is the per-vid lists back to back, vid-major.
                let expect: Vec<u64> = (lo..=hi).flat_map(naive).collect();
                assert_eq!(run(&idx, lo, hi).unwrap(), expect, "run {lo}..={hi}");
            }
        }
        assert_eq!(run(&idx, 3, 2).unwrap(), Vec::<u64>::new(), "lo > hi is the empty run");
        assert!(matches!(run(&idx, 4, 4), Err(CoreError::VidOutOfBounds { vid: 4, .. })));
        assert!(matches!(run(&idx, 1, 4), Err(CoreError::VidOutOfBounds { vid: 4, .. })));
    }

    #[test]
    fn unique_index_elides_directory() {
        // A permutation: every vid exactly once.
        let values = [3u64, 0, 2, 1, 4];
        let idx = InMemoryInvertedIndex::build(&values, 5);
        assert!(idx.is_unique());
        let rpos_of = |vid: u64| values.iter().position(|&v| v == vid).unwrap() as u64;
        for vid in 0..5u64 {
            assert_eq!(run(&idx, vid, vid).unwrap(), vec![rpos_of(vid)]);
        }
        // A vid range on a unique index is the postinglist slice itself.
        assert_eq!(run(&idx, 1, 3).unwrap(), (1..=3).map(rpos_of).collect::<Vec<_>>());
        // The unique index is postinglist-only.
        let non_unique = InMemoryInvertedIndex::build(&[0, 0, 1, 2, 2], 3);
        assert!(idx.heap_bytes() < non_unique.heap_bytes() * 2);
    }

    #[test]
    fn single_value_column() {
        let values = [0u64; 100];
        let idx = InMemoryInvertedIndex::build(&values, 1);
        assert_eq!(run(&idx, 0, 0).unwrap(), (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_index() {
        let idx = InMemoryInvertedIndex::build(&[], 0);
        assert_eq!(idx.rows(), 0);
        assert!(run(&idx, 0, 0).is_err());
    }
}

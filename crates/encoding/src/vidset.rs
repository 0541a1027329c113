//! Value-identifier predicates for scans.
//!
//! A scan over a data vector takes a predicate expressed as a *set of value
//! identifiers* (paper §3.1.2). [`VidSet`] is that set, with representations
//! tuned for the common shapes: a single identifier (point predicate), a
//! contiguous identifier range (range predicates on order-preserving
//! dictionaries stay contiguous), a small sorted list (IN-lists), and a dense
//! bitmap over the identifier space.

/// A set of value identifiers used as a scan predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VidSet {
    /// Exactly one identifier.
    Single(u64),
    /// All identifiers in `lo..=hi`. Because main dictionaries are
    /// order-preserving, a value range maps to exactly one vid range.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// A sorted, deduplicated list of identifiers.
    Sorted(Vec<u64>),
    /// A bitmap over identifiers `0..(64 * words.len())`.
    Bitmap(Vec<u64>),
}

impl VidSet {
    /// Builds the cheapest representation for an arbitrary list of ids.
    ///
    /// Sorts and deduplicates; collapses to `Single` or `Range` where
    /// possible; switches to a bitmap when the list is dense relative to its
    /// span.
    pub fn from_vids(mut vids: Vec<u64>) -> Self {
        vids.sort_unstable();
        vids.dedup();
        match vids.len() {
            0 => VidSet::Sorted(vids),
            1 => VidSet::Single(vids[0]),
            n => {
                let (lo, hi) = (vids[0], vids[n - 1]);
                if hi - lo + 1 == n as u64 {
                    return VidSet::Range { lo, hi };
                }
                // Dense relative to the span: a bitmap word costs 8 bytes and
                // covers 64 ids; the sorted list costs 8 bytes per id.
                let span_words = (hi / 64 + 1) as usize;
                if span_words <= n {
                    let mut words = vec![0u64; span_words];
                    for &v in &vids {
                        words[(v / 64) as usize] |= 1 << (v % 64);
                    }
                    VidSet::Bitmap(words)
                } else {
                    VidSet::Sorted(vids)
                }
            }
        }
    }

    /// Builds an inclusive range predicate. An empty range (`lo > hi`)
    /// becomes the empty set.
    pub fn range(lo: u64, hi: u64) -> Self {
        if lo > hi {
            VidSet::Sorted(Vec::new())
        } else if lo == hi {
            VidSet::Single(lo)
        } else {
            VidSet::Range { lo, hi }
        }
    }

    /// True when no identifier is in the set.
    pub fn is_empty(&self) -> bool {
        match self {
            VidSet::Single(_) | VidSet::Range { .. } => false,
            VidSet::Sorted(v) => v.is_empty(),
            VidSet::Bitmap(w) => w.iter().all(|&x| x == 0),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, vid: u64) -> bool {
        match self {
            VidSet::Single(v) => vid == *v,
            VidSet::Range { lo, hi } => vid >= *lo && vid <= *hi,
            VidSet::Sorted(v) => v.binary_search(&vid).is_ok(),
            VidSet::Bitmap(w) => {
                let wi = (vid / 64) as usize;
                wi < w.len() && (w[wi] >> (vid % 64)) & 1 == 1
            }
        }
    }

    /// True when the set contains any identifier in `lo..=hi`. Used by
    /// page-summary pruning: a page whose value range does not overlap the
    /// predicate is never loaded.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        if lo > hi {
            return false;
        }
        match self {
            VidSet::Single(v) => *v >= lo && *v <= hi,
            VidSet::Range { lo: a, hi: b } => *a <= hi && *b >= lo,
            VidSet::Sorted(v) => {
                let i = v.partition_point(|&x| x < lo);
                i < v.len() && v[i] <= hi
            }
            VidSet::Bitmap(w) => {
                let hi = hi.min(w.len() as u64 * 64 - 1);
                if lo > hi {
                    return false;
                }
                // Scan whole words, masking the partial boundary words.
                let (lw, hw) = ((lo / 64) as usize, (hi / 64) as usize);
                for (wi, &stored) in w.iter().enumerate().take(hw + 1).skip(lw) {
                    let mut word = stored;
                    if wi == lw {
                        word &= u64::MAX << (lo % 64);
                    }
                    if wi == hw && hi % 64 != 63 {
                        word &= (1u64 << (hi % 64 + 1)) - 1;
                    }
                    if word != 0 {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Iterates the identifiers in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            VidSet::Single(v) => Box::new(std::iter::once(*v)),
            VidSet::Range { lo, hi } => Box::new(*lo..=*hi),
            VidSet::Sorted(v) => Box::new(v.iter().copied()),
            VidSet::Bitmap(w) => Box::new(w.iter().enumerate().flat_map(|(i, &word)| {
                let base = i as u64 * 64;
                BitIter { word }.map(move |b| base + b)
            })),
        }
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vids_picks_representations() {
        assert!(matches!(VidSet::from_vids(vec![]), VidSet::Sorted(v) if v.is_empty()));
        assert_eq!(VidSet::from_vids(vec![7, 7]), VidSet::Single(7));
        assert_eq!(VidSet::from_vids(vec![3, 5, 4]), VidSet::Range { lo: 3, hi: 5 });
        // Dense but non-contiguous: bitmap.
        assert!(matches!(
            VidSet::from_vids(vec![0, 1, 2, 4, 5, 6]),
            VidSet::Bitmap(_)
        ));
        // Sparse over a huge span: sorted list.
        assert!(matches!(
            VidSet::from_vids(vec![1, 1_000_000]),
            VidSet::Sorted(_)
        ));
    }

    #[test]
    fn contains_and_iter_agree_across_representations() {
        let ids = vec![2u64, 3, 9, 64, 65, 130];
        for set in [
            VidSet::from_vids(ids.clone()),
            VidSet::Sorted(ids.clone()),
            {
                let mut w = vec![0u64; 3];
                for &v in &ids {
                    w[(v / 64) as usize] |= 1 << (v % 64);
                }
                VidSet::Bitmap(w)
            },
        ] {
            for v in 0..200 {
                assert_eq!(set.contains(v), ids.contains(&v), "{set:?} vid {v}");
            }
            let collected: Vec<u64> = set.iter().collect();
            assert_eq!(collected, ids);
        }
    }

    #[test]
    fn range_constructor() {
        assert!(VidSet::range(5, 4).is_empty());
        assert_eq!(VidSet::range(5, 5), VidSet::Single(5));
        assert_eq!(VidSet::range(1, 9), VidSet::Range { lo: 1, hi: 9 });
        let all: Vec<u64> = VidSet::range(1, 4).iter().collect();
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn overlaps_agrees_with_membership() {
        for set in [
            VidSet::Single(10),
            VidSet::range(5, 20),
            VidSet::from_vids(vec![3, 70, 140]),
            VidSet::Bitmap(vec![1 << 3, 1 << 6, 1 << 12]),
            VidSet::Sorted(vec![]),
        ] {
            for lo in 0..160u64 {
                for hi in [lo, lo + 1, lo + 7, lo + 63, lo + 64, lo + 100] {
                    let expect = (lo..=hi).any(|v| set.contains(v));
                    assert_eq!(set.overlaps(lo, hi), expect, "{set:?} [{lo},{hi}]");
                }
            }
            assert!(!set.overlaps(10, 9), "empty interval never overlaps");
        }
    }

    #[test]
    fn empty_set() {
        let e = VidSet::from_vids(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.iter().next(), None);
    }
}

//! The persisted parts of a column, shared by both load policies.

use crate::datavec::PagedDataVector;
use crate::dict::{BlockKeys, DictLookup};
use crate::invidx::PagedInvertedIndex;
use crate::{CoreError, CoreResult, DataType, KeyPredicate, PageConfig, Value};
use payg_encoding::VidSet;
use payg_storage::BufferPool;
use std::ops::Bound;

/// How a column's rows map to their identifiers, as the builder persisted
/// them — decided from the data at every build, never asked for.
pub(crate) enum StoredRows {
    /// Row `i` holds identifier `i`: a unique column whose keys ascend with
    /// row order. Neither a data vector nor postings are stored — the
    /// identifier at a row is the row, a vid's postings are that one row
    /// and a vid range is a row range. `indexed` records that the column
    /// was asked for an index, which the identity answers.
    Identity { indexed: bool },
    /// A data vector, and the inverted index the merge built if it was
    /// asked for one; no read path ever creates one.
    Plain { data: PagedDataVector, index: Option<PagedInvertedIndex> },
}

/// The persisted parts shared by both load policies: a column's type and
/// size, its page geometry, and its three structures' chains.
pub(crate) struct ColumnParts {
    pub data_type: DataType,
    pub len: u64,
    pub cardinality: u64,
    pub pool: BufferPool,
    pub config: PageConfig,
    pub dict: crate::dict::PagedDictionary,
    pub rows: StoredRows,
}

/// The rows in `from..to` whose identifier is in `set`, ascending, when row
/// `i` holds identifier `i`: a vid range is a row range, any other set its
/// members.
pub(crate) fn identity_rows(set: &VidSet, from: u64, to: u64, out: &mut Vec<u64>) {
    match *set {
        VidSet::Range { lo, hi } => out.extend(lo.max(from)..(hi + 1).min(to)),
        _ => out.extend(set.iter().filter(|rpos| (from..to).contains(rpos))),
    }
}

/// How many rows [`identity_rows`] finds.
pub(crate) fn identity_count(set: &VidSet, from: u64, to: u64) -> u64 {
    match *set {
        VidSet::Range { lo, hi } => (hi + 1).min(to).saturating_sub(lo.max(from)),
        _ => set.iter().filter(|rpos| (from..to).contains(rpos)).count() as u64,
    }
}

impl ColumnParts {
    /// The store chains backing this column, labeled by role.
    pub(crate) fn chains(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.dict.chains();
        if let StoredRows::Plain { data, index } = &self.rows {
            out.insert(0, ("data", data.chain_id()));
            if let Some(i) = index {
                out.push(("index", i.chain_id()));
            }
        }
        out
    }

    /// True when the column was asked for an inverted index: it stores
    /// postings, or its identity answers for them.
    pub(crate) fn has_index(&self) -> bool {
        match &self.rows {
            StoredRows::Identity { indexed } => *indexed,
            StoredRows::Plain { index, .. } => index.is_some(),
        }
    }

    /// A row search's range must lie inside the column — on every path of
    /// both load policies: index postings, directory count and scan.
    pub(crate) fn check_rows(&self, from: u64, to: u64) -> CoreResult<()> {
        if from > to || to > self.len {
            return Err(CoreError::RowOutOfBounds { rpos: to, len: self.len });
        }
        Ok(())
    }

    /// Translates `pred` to the identifiers it selects (order preservation
    /// keeps an interval contiguous), probing the dictionary through `find`
    /// — `findByValue` on whichever form of it the caller holds.
    pub(crate) fn vid_set(
        &self,
        pred: &KeyPredicate,
        mut find: impl FnMut(&[u8]) -> CoreResult<DictLookup>,
    ) -> CoreResult<VidSet> {
        Ok(match pred {
            // The identifiers of the keys present; an `=` collects its one
            // identifier without allocating.
            KeyPredicate::Points(keys) => {
                let mut vids = keys.iter().filter_map(|key| find(key).map(Result::ok).transpose());
                let first = vids.next().transpose()?;
                let rest: Vec<u64> = vids.collect::<CoreResult<_>>()?;
                match first {
                    Some(vid) if rest.is_empty() => VidSet::Single(vid),
                    first => VidSet::from_vids(first.into_iter().chain(rest).collect()),
                }
            }
            // The first identifier at or past each end, the upper one
            // stepping over an included key.
            KeyPredicate::Range(range) => {
                let lo = find(&range.lo)?.unwrap_or_else(|v| v);
                let hi = match &range.hi {
                    Bound::Included(key) => find(key)?.map_or_else(|v| v, |v| v + 1),
                    Bound::Excluded(key) => find(key)?.unwrap_or_else(|v| v),
                    Bound::Unbounded => self.cardinality,
                };
                if lo < hi {
                    VidSet::range(lo, hi - 1)
                } else {
                    VidSet::from_vids(Vec::new())
                }
            }
        })
    }

    /// The value identifier `vid` encodes, decoded by `keys`, a reader of
    /// a resident image's dictionary: ascending identifiers walk each block
    /// once.
    pub(crate) fn value_of(&self, keys: &mut BlockKeys<'_>, vid: u64) -> CoreResult<Value> {
        Value::from_key(self.data_type, self.key_of(keys, vid)?)
    }

    /// The key `vid` encodes, read by `keys` as [`Self::value_of`] reads it.
    pub(crate) fn key_of<'k>(&self, keys: &'k mut BlockKeys<'_>, vid: u64) -> CoreResult<&'k [u8]> {
        if vid >= self.cardinality {
            return Err(CoreError::VidOutOfBounds { vid, cardinality: self.cardinality });
        }
        keys.key(vid)
    }
}

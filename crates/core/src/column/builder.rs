//! Column construction: one persisted format, two access modes.
//!
//! A column is built from its rows in the encoded domain ([`EncodedRows`]:
//! a sorted dictionary plus one identifier per row). Building from values
//! is "encode, then that build"; a delta merge never leaves the encoded
//! domain — it sorts each delta's dictionary, merges it with the old main's,
//! and remaps identifiers (paper §2).

use crate::column::paged::{ColumnParts, StoredRows};
use crate::column::{Column, LoadPolicy, PagedColumn, ResidentColumn};
use crate::datavec::PagedDataVector;
use crate::dict::{InMemoryDict, PagedDictBuildStats, PagedDictionary, UnsortedDict};
use crate::invidx::PagedInvertedIndex;
use crate::{CoreError, CoreResult, DataType, PageConfig, Value};
use payg_encoding::{BitPackedVec, BitWidth};
use payg_resman::Disposition;
use payg_storage::{BufferPool, ChainId};
use std::sync::Arc;

/// A column's rows in the encoded domain: a sorted dictionary and every
/// row's identifier in it (each below the dictionary's cardinality).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct EncodedRows {
    keys: InMemoryDict,
    vids: Vec<u64>,
}

impl EncodedRows {
    /// Rows over `keys`; fails when an identifier is not below its
    /// cardinality.
    pub(crate) fn new(keys: InMemoryDict, vids: Vec<u64>) -> CoreResult<Self> {
        check_vids(keys.cardinality(), &vids)?;
        Ok(EncodedRows { keys, vids })
    }

    /// Dictionary-encodes `values`, all of type `data_type`.
    pub fn encode(data_type: DataType, values: &[Value]) -> CoreResult<Self> {
        let mut keys = UnsortedDict::default();
        let vids = values
            .iter()
            .map(|v| {
                v.check_type(data_type)?;
                keys.intern(v).map(u64::from)
            })
            .collect::<CoreResult<_>>()?;
        Self::sort(&keys, vids)
    }

    /// Sorts an unsorted dictionary: `vids` index into `keys`. The result
    /// holds the keys some row uses, ascending, and the rows' identifiers
    /// among them.
    pub fn sort(keys: &UnsortedDict, mut vids: Vec<u64>) -> CoreResult<Self> {
        let ids = keys.cardinality() as usize;
        check_vids(ids as u64, &vids)?;
        let used = used(ids, &vids);
        let entries = keys.keys().enumerate().filter(|&(id, _)| used[id]);
        let (keys, map) = dictionary_of(entries.map(|(id, k)| (k, id)).collect(), ids)?;
        for vid in &mut vids {
            *vid = map[*vid as usize];
        }
        Ok(EncodedRows { keys, vids })
    }

    /// The rows of every run, in run order, over one dictionary: the keys
    /// the runs' rows use, merged in key order, so a key no row uses is
    /// dropped and every identifier is remapped.
    pub fn merge(runs: &[EncodedRows]) -> CoreResult<Self> {
        let mut entries: Vec<(&[u8], usize)> = Vec::new();
        let mut bases = Vec::with_capacity(runs.len());
        let mut ids = 0;
        for run in runs {
            bases.push(ids);
            let used = used(run.keys.cardinality() as usize, &run.vids);
            let keys = run.keys.keys().enumerate().filter(|&(vid, _)| used[vid]);
            entries.extend(keys.map(|(vid, k)| (k, ids + vid)));
            ids += run.keys.cardinality() as usize;
        }
        let (keys, map) = dictionary_of(entries, ids)?;
        let vids = runs
            .iter()
            .zip(bases)
            .flat_map(|(run, base)| run.vids.iter().map(move |&vid| base + vid as usize))
            .map(|id| map[id])
            .collect();
        Ok(EncodedRows { keys, vids })
    }

    /// Every row's identifier.
    pub fn vids(&self) -> &[u64] {
        &self.vids
    }
}

fn check_vids(cardinality: u64, vids: &[u64]) -> CoreResult<()> {
    match vids.iter().find(|&&vid| vid >= cardinality) {
        Some(&vid) => Err(CoreError::VidOutOfBounds { vid, cardinality }),
        None => Ok(()),
    }
}

/// Which of `ids` identifiers some row of `vids` (each below `ids`) uses.
fn used(ids: usize, vids: &[u64]) -> Vec<bool> {
    let mut used = vec![false; ids];
    for &vid in vids {
        used[vid as usize] = true;
    }
    used
}

/// Sorts `(key, id)` entries into one dictionary; returns it and, for each
/// of `ids` input identifiers, the identifier of its key there (0 for an id
/// no entry names). The sort is stable, so entries that arrive as sorted
/// runs — an old main's dictionary, a sorted delta — merge in linear passes.
fn dictionary_of(
    mut entries: Vec<(&[u8], usize)>,
    ids: usize,
) -> CoreResult<(InMemoryDict, Vec<u64>)> {
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut dict = InMemoryDict::with_capacity(entries.len());
    let mut map = vec![0u64; ids];
    for (key, id) in entries {
        if dict.is_empty() || dict.key(dict.cardinality() - 1) != key {
            dict.push(key)?;
        }
        map[id] = dict.cardinality() - 1;
    }
    dict.shrink_to_fit();
    Ok((dict, map))
}

/// Configures and builds one column (this is the engine's equivalent of the
/// `PAGE LOADABLE` clause at column creation).
pub struct ColumnBuilder {
    data_type: DataType,
    policy: LoadPolicy,
    with_index: bool,
    resident_disposition: Disposition,
}

/// The result of a build: the column plus layout statistics.
pub struct ColumnBuild {
    /// The constructed column.
    pub column: Column,
    /// Dictionary-chain statistics.
    pub dict_stats: PagedDictBuildStats,
    /// Pages in the data-vector chain (0 when rows are their identifiers).
    pub datavec_pages: u64,
    /// Pages in the inverted-index chain (0 when no index was requested or
    /// rows are their identifiers).
    pub index_pages: u64,
}

impl ColumnBuilder {
    /// A builder for a column of `data_type`; defaults to a fully resident
    /// column without an inverted index.
    pub fn new(data_type: DataType) -> Self {
        ColumnBuilder {
            data_type,
            policy: LoadPolicy::FullyResident,
            with_index: false,
            resident_disposition: Disposition::MidTerm,
        }
    }

    /// Sets the load policy.
    pub fn policy(mut self, policy: LoadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Requests an inverted index, built here with the data vector and the
    /// dictionary (paper §3.3), or none. Fixed for the column's lifetime.
    pub fn with_index(mut self, with_index: bool) -> Self {
        self.with_index = with_index;
        self
    }

    /// Sets the eviction disposition a *resident* column registers with (the
    /// "higher unload priority" knob data aging uses for cold default
    /// columns, §4.1). Ignored for page-loadable columns, whose pages always
    /// use the paged-attribute disposition.
    pub fn resident_disposition(mut self, d: Disposition) -> Self {
        self.resident_disposition = d;
        self
    }

    /// Encodes, persists and constructs the column from row values.
    ///
    /// All values must match the builder's data type. The main-fragment
    /// invariants hold on the result: the dictionary is sorted and contains
    /// exactly the distinct values present; identifiers are assigned in key
    /// order.
    pub fn build(
        self,
        pool: &BufferPool,
        config: &PageConfig,
        values: &[Value],
    ) -> CoreResult<ColumnBuild> {
        let rows = EncodedRows::encode(self.data_type, values)?;
        self.build_encoded(pool, config, &rows)
    }

    /// Persists and constructs the column from rows already encoded as keys
    /// of the builder's data type. Every dictionary key is persisted, so the
    /// main-fragment invariants hold when every key is used — as after
    /// [`EncodedRows::encode`], [`EncodedRows::sort`] or
    /// [`EncodedRows::merge`].
    ///
    /// When every row's identifier is its position — a unique column whose
    /// keys ascend with row order — the dictionary is all that is persisted:
    /// the data vector and the postings would both be the identity. Each
    /// build decides from its rows, so a merge after DML that broke the
    /// order writes the plain layout again.
    pub fn build_encoded(
        self,
        pool: &BufferPool,
        config: &PageConfig,
        rows: &EncodedRows,
    ) -> CoreResult<ColumnBuild> {
        let cardinality = rows.keys.cardinality();
        let keys: Vec<&[u8]> = rows.keys.keys().collect();

        // Persist the structures (shared by both access modes). Each
        // sub-build cleans up after its own failure; the scratch adopts the
        // ones that succeeded so a *later* failure reclaims them too.
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let (dict, dict_stats) = PagedDictionary::build(pool, config, self.data_type, &keys)?;
        for (_, chain) in dict.chains() {
            scratch.adopt(ChainId(chain));
        }
        let identity = rows.vids.iter().zip(0..).all(|(&vid, rpos)| vid == rpos);
        let stored = if identity {
            StoredRows::Identity { indexed: self.with_index }
        } else {
            let width = BitWidth::for_cardinality(cardinality);
            let packed = BitPackedVec::from_values_with_width(&rows.vids, width);
            let data = PagedDataVector::build(pool, config, &packed)?;
            scratch.adopt(ChainId(data.chain_id()));
            let index = if self.with_index {
                Some(PagedInvertedIndex::build(pool, config, &rows.vids, cardinality)?)
            } else {
                None
            };
            StoredRows::Plain { data, index }
        };
        scratch.commit();
        let (datavec_pages, index_pages) = match &stored {
            StoredRows::Identity { .. } => (0, 0),
            StoredRows::Plain { data, index } => {
                (data.pages(), index.as_ref().map_or(0, |i| i.pages()))
            }
        };

        let parts = Arc::new(ColumnParts {
            data_type: self.data_type,
            len: rows.vids.len() as u64,
            cardinality,
            pool: pool.clone(),
            config: *config,
            dict,
            rows: stored,
        });
        let column = match self.policy {
            LoadPolicy::PageLoadable => Column::Paged(PagedColumn::new(parts)),
            LoadPolicy::FullyResident => {
                Column::Resident(ResidentColumn::new(parts, self.resident_disposition))
            }
        };
        Ok(ColumnBuild { column, dict_stats, datavec_pages, index_pages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[i64]) -> EncodedRows {
        let values: Vec<Value> = values.iter().map(|&v| Value::Integer(v)).collect();
        EncodedRows::encode(DataType::Integer, &values).unwrap()
    }

    fn keys(rows: &EncodedRows) -> Vec<Vec<u8>> {
        rows.keys.keys().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn encode_sorts_and_dedups() {
        let r = rows(&[5, -1, 5, 3]);
        assert_eq!(keys(&r), keys(&rows(&[-1, 3, 5])));
        assert_eq!(r.vids(), &[2, 0, 2, 1]);
        assert!(EncodedRows::encode(DataType::Integer, &[Value::Double(1.0)]).is_err());
    }

    #[test]
    fn sort_drops_unused_keys_and_rejects_stray_ids() {
        let mut dict = UnsortedDict::default();
        for s in ["echo", "alpha", "unused", "bravo"] {
            dict.intern(&Value::from(s)).unwrap();
        }
        let r = EncodedRows::sort(&dict, vec![0, 3, 1, 0]).unwrap();
        assert_eq!(keys(&r), vec![b"alpha".to_vec(), b"bravo".to_vec(), b"echo".to_vec()]);
        assert_eq!(r.vids(), &[2, 1, 0, 2]);
        assert!(matches!(
            EncodedRows::sort(&dict, vec![4]),
            Err(CoreError::VidOutOfBounds { vid: 4, cardinality: 4 })
        ));
    }

    /// A merge keeps run order, shares keys across runs, and drops a key
    /// no row of any run uses.
    #[test]
    fn merge_remaps_runs_onto_one_dictionary() {
        let main = EncodedRows::new(rows(&[1, 4, 9]).keys, vec![0, 2, 2]).unwrap();
        let merged = EncodedRows::merge(&[main, rows(&[9, 2]), EncodedRows::default()]).unwrap();
        assert_eq!(keys(&merged), keys(&rows(&[1, 2, 9])));
        assert_eq!(merged.vids(), &[0, 2, 2, 2, 1]);
        assert_eq!(keys(&EncodedRows::merge(&[]).unwrap()), Vec::<Vec<u8>>::new());
    }
}

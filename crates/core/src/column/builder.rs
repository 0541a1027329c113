//! Column construction: one persisted format, two access modes.

use crate::column::paged::ColumnParts;
use crate::column::{Column, LoadPolicy, PagedColumn, ResidentColumn};
use crate::datavec::PagedDataVector;
use crate::dict::{PagedDictBuildStats, PagedDictionary};
use crate::invidx::PagedInvertedIndex;
use crate::{CoreResult, DataType, PageConfig, Value};
use payg_encoding::{BitPackedVec, BitWidth};
use payg_resman::Disposition;
use payg_storage::{BufferPool, ChainId};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Pages in the data-vector chain.
    pub datavec_pages: u64,
    /// Pages in the inverted-index chain (0 when no index was requested).
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
        for v in values {
            v.check_type(self.data_type)?;
        }
        // Dictionary-encode: sorted distinct keys, then per-row vids.
        let mut keys: Vec<Vec<u8>> = values.iter().map(Value::to_key).collect();
        keys.sort();
        keys.dedup();
        let vid_of: HashMap<&[u8], u64> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_slice(), i as u64))
            .collect();
        let width = BitWidth::for_cardinality(keys.len() as u64);
        let vids: Vec<u64> = values.iter().map(|v| vid_of[v.to_key().as_slice()]).collect();
        let packed = BitPackedVec::from_values_with_width(&vids, width);

        // Persist the three structures (shared by both access modes). Each
        // sub-build cleans up after its own failure; the scratch adopts the
        // ones that succeeded so a *later* failure reclaims them too.
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let (dict, dict_stats) = PagedDictionary::build(pool, config, self.data_type, &keys)?;
        for (_, chain) in dict.chains() {
            scratch.adopt(ChainId(chain));
        }
        let data = PagedDataVector::build(pool, config, &packed)?;
        scratch.adopt(ChainId(data.chain_id()));
        let index = if self.with_index {
            Some(PagedInvertedIndex::build(pool, config, &vids, keys.len() as u64)?)
        } else {
            None
        };
        scratch.commit();
        let datavec_pages = data.pages();
        let index_pages = index.as_ref().map_or(0, |i| i.pages());

        let parts = Arc::new(ColumnParts {
            data_type: self.data_type,
            len: values.len() as u64,
            cardinality: keys.len() as u64,
            pool: pool.clone(),
            config: *config,
            data,
            dict,
            index,
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

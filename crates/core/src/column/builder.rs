//! Column construction: one persisted format, two access modes.

use crate::column::paged::{ColumnParts, IndexSlot};
use crate::column::{Column, IndexMode, LoadPolicy, PagedColumn, ResidentColumn};
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
    index_mode: IndexMode,
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
            index_mode: IndexMode::None,
            resident_disposition: Disposition::MidTerm,
        }
    }

    /// Sets the load policy.
    pub fn policy(mut self, policy: LoadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Requests an eagerly built inverted index (or none).
    pub fn with_index(mut self, with_index: bool) -> Self {
        self.index_mode = if with_index { IndexMode::Eager } else { IndexMode::None };
        self
    }

    /// Sets the full index policy, including the adaptive (workload-driven)
    /// mode of the paper's §8. Adaptive mode applies to page-loadable
    /// columns; a fully resident column treats it as eager (its image is
    /// rebuilt wholesale on every load anyway).
    pub fn index_mode(mut self, mode: IndexMode) -> Self {
        self.index_mode = mode;
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
        let effective_mode = match (self.index_mode, self.policy) {
            // Resident columns rebuild their whole image on load; adaptive
            // building degenerates to eager there.
            (IndexMode::Adaptive { .. }, LoadPolicy::FullyResident) => IndexMode::Eager,
            (m, _) => m,
        };
        let index = match effective_mode {
            IndexMode::None => IndexSlot::None,
            IndexMode::Eager => IndexSlot::Eager(PagedInvertedIndex::build(
                pool,
                config,
                &vids,
                keys.len() as u64,
            )?),
            IndexMode::Adaptive { threshold } => IndexSlot::Adaptive {
                threshold,
                searches: Default::default(),
                built: Default::default(),
            },
        };
        scratch.commit();
        let datavec_pages = data.pages();
        let index_pages = match &index {
            IndexSlot::Eager(i) => i.pages(),
            _ => 0,
        };

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

//! What a fully-resident (default) column holds beside its parts: the
//! image a full load reads, and the state that registers and drops it.

use crate::column::parts::{ColumnParts, StoredRows};
use crate::dict::BlockDict;
use crate::invidx::InMemoryInvertedIndex;
use crate::sync::{LockRank, Mutex};
use crate::CoreResult;
use payg_encoding::chunk::decode_rows;
use payg_encoding::{BitPackedVec, Packed};
use payg_obs::{names, Counter};
use payg_resman::{Disposition, ResourceHandle};
use std::sync::Arc;

/// The contiguous in-memory image of a loaded column: what its chains
/// store, read whole. Where the column stores no data vector — its rows
/// are their identifiers ([`StoredRows::Identity`]) — the image is its
/// dictionary alone and `data` is empty; the row layout is the parts'.
pub(crate) struct Image {
    pub(crate) dict: BlockDict,
    /// The packed data vector.
    pub(crate) data: BitPackedVec,
    /// The inverted index rebuilt from the data vector when the column
    /// stores postings.
    pub(crate) index: Option<InMemoryInvertedIndex>,
}

impl Image {
    /// Phase (a) over the image: the identifier at every row of `sorted`
    /// (ascending, in bounds) into `out`, one [`decode_rows`] over the
    /// packed words.
    pub(crate) fn decode_rows(&self, sorted: &[u64], out: &mut [u64]) {
        decode_rows(Packed::Words(self.data.words()), self.data.width(), 0, sorted, out)
    }

    fn heap_bytes(&self) -> usize {
        let index = self.index.as_ref().map_or(0, |i| i.heap_bytes());
        self.data.heap_bytes() + index + self.dict.heap_bytes()
    }
}

struct Loaded {
    image: Arc<Image>,
    /// Touched on every access — an atomic store, no manager lock.
    resource: ResourceHandle,
}

/// A default column's load state: the entire column loads into memory on
/// first access (direct store reads — the paper's expensive full-column
/// load) and registers as **one** resource. The resource manager may evict
/// it whole; the next access reloads it whole. This is the comparator
/// (`T_b`) for every experiment.
pub(crate) struct Resident {
    disposition: Disposition,
    state: Arc<Mutex<Option<Loaded>>>,
    /// Detached per-column counter behind [`Resident::load_count`]; the
    /// registry's `column_full_loads` series (shared by every column on the
    /// pool's registry) is bumped alongside it.
    load_count: Counter,
    full_loads: Counter,
}

impl Resident {
    pub(crate) fn new(parts: &ColumnParts, disposition: Disposition) -> Self {
        Resident {
            disposition,
            state: Arc::new(Mutex::with_rank(None, LockRank::CoreColumn)),
            load_count: Counter::new(),
            full_loads: parts.pool.registry().counter(names::COLUMN_FULL_LOADS),
        }
    }

    /// Loads `parts` if not loaded; returns the resident image.
    pub(crate) fn image(&self, parts: &ColumnParts) -> CoreResult<Arc<Image>> {
        let mut st = self.state.lock();
        if let Some(l) = st.as_ref() {
            l.resource.touch();
            return Ok(Arc::clone(&l.image));
        }
        // Full column load: every structure is read in its entirety.
        let (data, index) = match &parts.rows {
            StoredRows::Identity { .. } => (BitPackedVec::from_values(&[]), None),
            StoredRows::Plain { data, index } => {
                let data = data.decode_all_direct()?;
                let index = index.as_ref().map(|_| {
                    // Non-critical data: rebuilt from the critical
                    // structures (§8).
                    let vids: Vec<u64> = data.iter().collect();
                    InMemoryInvertedIndex::build(&vids, parts.cardinality)
                });
                (data, index)
            }
        };
        let dict = parts.dict.blocks_all_direct()?;
        let image = Arc::new(Image { dict, data, index });
        let state_weak = Arc::downgrade(&self.state);
        let resman = parts.pool.resource_manager();
        let resource = resman.register(image.heap_bytes(), self.disposition, move || {
            if let Some(state) = state_weak.upgrade() {
                *state.lock() = None;
            }
        });
        *st = Some(Loaded { image: Arc::clone(&image), resource });
        self.load_count.inc();
        self.full_loads.inc();
        Ok(image)
    }

    pub(crate) fn disposition(&self) -> Disposition {
        self.disposition
    }

    pub(crate) fn is_loaded(&self) -> bool {
        self.state.lock().is_some()
    }

    pub(crate) fn loaded_bytes(&self) -> Option<usize> {
        self.state.lock().as_ref().map(|l| l.image.heap_bytes())
    }

    /// Drops the image and deregisters its resource from `parts`' manager.
    pub(crate) fn unload(&self, parts: &ColumnParts) {
        let mut st = self.state.lock();
        if let Some(l) = st.take() {
            parts.pool.resource_manager().deregister(&l.resource);
        }
    }

    pub(crate) fn load_count(&self) -> u64 {
        self.load_count.get()
    }
}

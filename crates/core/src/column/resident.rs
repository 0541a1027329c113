//! The fully-resident (default) column.

use crate::column::materialize::{self, get_values, vid_counts, Source};
use crate::column::paged::{identity_count, identity_rows, ColumnParts, StoredRows};
use crate::column::read::ColumnRead;
use crate::dict::{BlockDict, BlockKeys};
use crate::invidx::{for_each_run, InMemoryInvertedIndex};
use crate::sync::{LockRank, Mutex};
use crate::{CoreError, CoreResult, DataType, KeyPredicate, Sum, Value, ValuePredicate};
use payg_encoding::chunk::decode_rows;
use payg_encoding::scan;
use payg_encoding::{BitPackedVec, Packed, VidSet};
use payg_obs::{names, Counter};
use payg_resman::{Disposition, ResourceHandle};
use std::sync::Arc;

/// The contiguous in-memory image of a loaded column.
pub(crate) struct Image {
    rows: ImageRows,
    dict: BlockDict,
}

/// How the image maps rows to identifiers: as the column stores them.
enum ImageRows {
    /// Row `i` holds identifier `i` ([`StoredRows::Identity`]): the image
    /// is its dictionary alone.
    Identity,
    /// The packed data vector, and the inverted index rebuilt from it when
    /// the column has one.
    Plain { data: BitPackedVec, index: Option<InMemoryInvertedIndex> },
}

impl Image {
    /// The dictionary, as the chain's value blocks.
    pub(crate) fn dict(&self) -> &BlockDict {
        &self.dict
    }

    /// Phase (a) over the image: the identifier at every row of `sorted`
    /// (ascending, in bounds) into `out` — one [`decode_rows`] over the
    /// packed words, or a copy of the rows where row `i` holds identifier `i`.
    pub(crate) fn decode_rows(&self, sorted: &[u64], out: &mut [u64]) {
        match &self.rows {
            ImageRows::Identity => out.copy_from_slice(sorted),
            ImageRows::Plain { data, .. } => decode_rows(Packed::Words(data.words()), data.width(), 0, sorted, out),
        }
    }

    fn heap_bytes(&self) -> usize {
        let rows = match &self.rows {
            ImageRows::Identity => 0,
            ImageRows::Plain { data, index } => {
                data.heap_bytes() + index.as_ref().map_or(0, |i| i.heap_bytes())
            }
        };
        rows + self.dict.heap_bytes()
    }
}

struct Loaded {
    image: Arc<Image>,
    /// Touched on every access — an atomic store, no manager lock.
    resource: ResourceHandle,
}

/// A default column: the entire column loads into memory on first access
/// (direct store reads — the paper's expensive full-column load) and
/// registers as **one** resource. The resource manager may evict it whole;
/// the next access reloads it whole. This is the comparator (`T_b`) for
/// every experiment.
pub struct ResidentColumn {
    parts: Arc<ColumnParts>,
    disposition: Disposition,
    state: Arc<Mutex<Option<Loaded>>>,
    /// Detached per-column counter behind [`ResidentColumn::load_count`];
    /// the registry's `column_full_loads` series (shared by every column on
    /// the pool's registry) is bumped alongside it.
    load_count: Counter,
    full_loads: Counter,
}

impl ResidentColumn {
    pub(crate) fn new(parts: Arc<ColumnParts>, disposition: Disposition) -> Self {
        let full_loads = parts.pool.registry().counter(names::COLUMN_FULL_LOADS);
        ResidentColumn {
            parts,
            disposition,
            state: Arc::new(Mutex::with_rank(None, LockRank::CoreColumn)),
            load_count: Counter::new(),
            full_loads,
        }
    }

    /// Loads the column if not loaded; returns the resident image.
    pub(crate) fn image(&self) -> CoreResult<Arc<Image>> {
        let mut st = self.state.lock();
        if let Some(l) = st.as_ref() {
            l.resource.touch();
            return Ok(Arc::clone(&l.image));
        }
        // Full column load: every structure is read in its entirety.
        let rows = match &self.parts.rows {
            StoredRows::Identity { .. } => ImageRows::Identity,
            StoredRows::Plain { data, index } => {
                let data = data.decode_all_direct()?;
                let index = index.as_ref().map(|_| {
                    // Non-critical data: rebuilt from the critical
                    // structures (§8).
                    let vids: Vec<u64> = data.iter().collect();
                    InMemoryInvertedIndex::build(&vids, self.parts.cardinality)
                });
                ImageRows::Plain { data, index }
            }
        };
        let dict = self.parts.dict.blocks_all_direct()?;
        let image = Arc::new(Image { rows, dict });
        let state_weak = Arc::downgrade(&self.state);
        let resman = self.parts.pool.resource_manager();
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

    pub(crate) fn parts(&self) -> &ColumnParts {
        &self.parts
    }

    pub(crate) fn disposition(&self) -> Disposition {
        self.disposition
    }

    /// Forces the full load now.
    pub fn load(&self) -> CoreResult<()> {
        self.image().map(|_| ())
    }

    /// True when the column is currently memory resident.
    pub fn is_loaded(&self) -> bool {
        self.state.lock().is_some()
    }

    /// Heap bytes of the loaded image, summed now from its structures — the
    /// figure the load registered with the resource manager. `None`
    /// while the column is not loaded.
    pub fn loaded_bytes(&self) -> Option<usize> {
        self.state.lock().as_ref().map(|l| l.image.heap_bytes())
    }

    /// Drops the resident image voluntarily (reloaded on next access).
    pub fn unload(&self) {
        let mut st = self.state.lock();
        if let Some(l) = st.take() {
            self.parts.pool.resource_manager().deregister(&l.resource);
        }
    }

    /// How many times the column has been (re)loaded — each one is the
    /// paper's expensive whole-column load.
    pub fn load_count(&self) -> u64 {
        self.load_count.get()
    }

    /// The value identifier `vid` encodes, decoded by `keys`, a reader of
    /// the image's dictionary: ascending identifiers walk each block once.
    pub(crate) fn value_of(&self, keys: &mut BlockKeys<'_>, vid: u64) -> CoreResult<Value> {
        Value::from_key(self.parts.data_type, self.key_of(keys, vid)?)
    }

    /// The key `vid` encodes, read by `keys` as [`Self::value_of`] reads it.
    pub(crate) fn key_of<'k>(&self, keys: &'k mut BlockKeys<'_>, vid: u64) -> CoreResult<&'k [u8]> {
        if vid >= self.parts.cardinality {
            return Err(CoreError::VidOutOfBounds { vid, cardinality: self.parts.cardinality });
        }
        keys.key(vid)
    }

    fn vid_set_from_image(&self, image: &Image, pred: &KeyPredicate) -> CoreResult<VidSet> {
        self.parts.vid_set(pred, |key| image.dict.find(key))
    }

    /// The rows in `from..to` (already checked) whose identifier is in `set`,
    /// ascending: arithmetic when row and identifier coincide; a vid range is
    /// one posting run of the index — one decode of the contiguous
    /// postinglist slice — else the packed vector is scanned.
    fn rows_in(image: &Image, set: &VidSet, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        let mut out = Vec::new();
        if set.is_empty() {
            return Ok(out);
        }
        match &image.rows {
            ImageRows::Identity => identity_rows(set, from, to, &mut out),
            ImageRows::Plain { index: Some(index), .. } => {
                let mut run = Vec::new();
                for_each_run(set, |lo, hi| {
                    index.posting_run(lo, hi, &mut run)?;
                    out.extend(run.iter().copied().filter(|&rpos| rpos >= from && rpos < to));
                    Ok(())
                })?;
                out.sort_unstable();
            }
            ImageRows::Plain { data, index: None } => scan::search(data, from, to, set, &mut out),
        }
        Ok(out)
    }
}

impl Drop for ResidentColumn {
    /// Deregisters the resident image's budget when the column is dropped
    /// while loaded — retired main fragments must not strand resman bytes.
    fn drop(&mut self) {
        self.unload();
    }
}

impl ColumnRead for ResidentColumn {
    fn len(&self) -> u64 {
        self.parts.len
    }

    fn data_type(&self) -> DataType {
        self.parts.data_type
    }

    fn cardinality(&self) -> u64 {
        self.parts.cardinality
    }

    fn has_index(&self) -> bool {
        self.parts.has_index()
    }

    fn get_values(&self, rposs: &[u64]) -> CoreResult<Vec<Value>> {
        // The paged column's steps over the resident image: rows →
        // identifiers, distinct identifiers → values, each written to its rows.
        get_values(Source::Resident(self), rposs)
    }

    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
        vid_counts(Source::Resident(self), rposs)
    }

    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>> {
        let image = self.image()?;
        let mut buf = Vec::new();
        let mut keys = image.dict.keys(&mut buf);
        vids.iter().map(|&vid| self.value_of(&mut keys, vid)).collect()
    }

    fn sum(&self, rposs: &[u64], sum: &mut Sum) -> CoreResult<()> {
        materialize::sum(Source::Resident(self), rposs, sum)
    }

    fn vid_set_for(&self, pred: &ValuePredicate) -> CoreResult<VidSet> {
        let pred = KeyPredicate::compile(pred, self.parts.data_type)?;
        self.vid_set_from_image(&*self.image()?, &pred)
    }

    fn find_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        self.parts.check_rows(from, to)?;
        let image = self.image()?;
        let set = self.vid_set_from_image(&image, pred)?;
        Self::rows_in(&image, &set, from, to)
    }

    /// Arithmetic when row and identifier coincide; else a full-range count
    /// with an index reads the directory, and without one COUNT never
    /// materializes positions — the scan kernel popcounts per-chunk result
    /// bitmaps in place.
    fn count_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<u64> {
        self.parts.check_rows(from, to)?;
        let image = self.image()?;
        let set = self.vid_set_from_image(&image, pred)?;
        match &image.rows {
            ImageRows::Identity => Ok(identity_count(&set, from, to)),
            ImageRows::Plain { index: Some(index), .. } if from == 0 && to == self.parts.len => {
                set.iter().map(|vid| index.posting_count(vid)).sum()
            }
            ImageRows::Plain { index: Some(_), .. } => {
                Ok(Self::rows_in(&image, &set, from, to)?.len() as u64)
            }
            ImageRows::Plain { data, index: None } => {
                Ok(payg_encoding::kernels::count_matches(data, from, to, &set))
            }
        }
    }
}

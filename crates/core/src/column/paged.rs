//! The page-loadable column.

use crate::column::materialize::Source;
use crate::column::read::ColumnRead;
use crate::datavec::ScanOptions;
use crate::dict::{DictLookup, HandleCache};
use crate::invidx::{for_each_run, PagedInvertedIndex};
use crate::{CoreError, CoreResult, DataType, KeyPredicate, PageConfig, Value, ValuePredicate};
use payg_encoding::dispatch::ScanPath;
use payg_encoding::VidSet;
use payg_storage::BufferPool;
use std::ops::Bound;
use std::sync::Arc;

/// The index traversal for `pred`, picked from its shape alone: point keys
/// (`=`, `IN`) seek each vid's postings in the compressed domain —
/// `next_row_pos_geq` leapfrogs every partition below the row range on its
/// two-varint header — while a key interval is one vid range, hence one
/// posting run, decoded and drained whole.
fn index_path(pred: &KeyPredicate) -> ScanPath {
    match pred {
        KeyPredicate::Points(_) => ScanPath::CompressedDomain,
        KeyPredicate::Range(_) => ScanPath::DecodeThenScan,
    }
}

/// The persisted parts shared by both access modes.
pub(crate) struct ColumnParts {
    pub data_type: DataType,
    pub len: u64,
    pub cardinality: u64,
    pub pool: BufferPool,
    pub config: PageConfig,
    pub data: crate::datavec::PagedDataVector,
    pub dict: crate::dict::PagedDictionary,
    /// The inverted index the merge built, if it was asked for one; no read
    /// path ever creates one.
    pub index: Option<PagedInvertedIndex>,
}

impl ColumnParts {
    /// The store chains backing this column, labeled by role.
    pub(crate) fn chains(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![("data", self.data.chain_id())];
        out.extend(self.dict.chains());
        if let Some(i) = &self.index {
            out.push(("index", i.chain_id()));
        }
        out
    }

    /// A row search's range must lie inside the column — on every path of
    /// both kinds: index postings, directory count and scan.
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
}

/// A column whose structures are loaded page by page on demand. Its
/// mandatory memory footprint is metadata only; everything else is pinned
/// through the buffer pool for exactly the duration of each access.
pub struct PagedColumn {
    parts: Arc<ColumnParts>,
}

impl PagedColumn {
    pub(crate) fn new(parts: Arc<ColumnParts>) -> Self {
        PagedColumn { parts }
    }

    pub(crate) fn parts(&self) -> &ColumnParts {
        &self.parts
    }

    fn cache(&self) -> HandleCache {
        HandleCache::new(self.parts.pool.clone())
    }

    /// The strategy a row search for `pred` runs with: the index traversal
    /// its shape selects when an index exists, decode-then-scan (the data
    /// vector kernels) otherwise. (Dictionary probes decide independently:
    /// FSST equality probes always compare compressed bytes inside `find`.)
    pub fn scan_path(&self, pred: &KeyPredicate) -> ScanPath {
        match self.parts.index {
            Some(_) => index_path(pred),
            None => ScanPath::DecodeThenScan,
        }
    }

    /// Translates `pred` through the paged dictionary; the pages it pins stay
    /// in `cache` for the caller's search.
    fn vid_set_cached(&self, pred: &KeyPredicate, cache: &mut HandleCache) -> CoreResult<VidSet> {
        self.parts.vid_set(pred, |key| self.parts.dict.find(key, cache))
    }

    /// The rows in `from..to` (already checked) whose identifier is in `set`,
    /// ascending: from the inverted index when there is one (Alg. 5), by a
    /// scan of the paged data vector otherwise (Alg. 1).
    fn rows_in(
        &self,
        pred: &KeyPredicate,
        set: &VidSet,
        from: u64,
        to: u64,
    ) -> CoreResult<Vec<u64>> {
        let mut out = Vec::new();
        if set.is_empty() {
            return Ok(out);
        }
        let Some(index) = &self.parts.index else {
            // Loads only the pages that overlap the row range and survive
            // page-summary pruning.
            self.parts.data.iter().search(from, to, set, &mut out)?;
            return Ok(out);
        };
        let path = index_path(pred);
        // Flight recorder: one chunk-dispatch span covers the whole index
        // traversal; `detail` records which path it took (1 =
        // compressed-domain, 0 = decode-then-scan).
        let _span = self.parts.pool.registry().tracer().span(
            payg_obs::SpanKind::ChunkDispatch,
            matches!(path, ScanPath::CompressedDomain) as u64,
        );
        let mut it = index.iter();
        match path {
            ScanPath::CompressedDomain => {
                for vid in set.iter() {
                    let mut cur = it.next_row_pos_geq(vid, from)?;
                    while let Some(rpos) = cur {
                        if rpos >= to {
                            break;
                        }
                        out.push(rpos);
                        cur = it.get_next_row_pos()?;
                    }
                }
            }
            // A vid range is one posting run: two directory reads, then one
            // drain of the contiguous postinglist slice.
            ScanPath::DecodeThenScan => for_each_run(set, |lo, hi| {
                it.position_run(lo, hi)?;
                while let Some(rpos) = it.get_next_row_pos()? {
                    if rpos >= from && rpos < to {
                        out.push(rpos);
                    }
                }
                Ok(())
            })?,
        }
        out.sort_unstable();
        Ok(out)
    }
}

impl ColumnRead for PagedColumn {
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
        self.parts.index.is_some()
    }

    fn get_values(&self, rposs: &[u64]) -> CoreResult<Vec<Value>> {
        // The one-column case of phased late materialization.
        super::materialize::get_values(Source::Paged(&self.parts), rposs)
    }

    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
        super::materialize::vid_counts_paged(&self.parts, rposs)
    }

    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>> {
        super::materialize::values_of_paged(&self.parts, vids)
    }

    fn vid_set_for(&self, pred: &ValuePredicate) -> CoreResult<VidSet> {
        self.vid_set_cached(&KeyPredicate::compile(pred, self.parts.data_type)?, &mut self.cache())
    }

    fn find_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        self.parts.check_rows(from, to)?;
        let set = self.vid_set_cached(pred, &mut self.cache())?;
        self.rows_in(pred, &set, from, to)
    }

    /// COUNT never materializes positions without an index: each page
    /// contributes popcounts of its result bitmaps. With one, a full-range
    /// count comes straight from the directory — no postinglist page loads.
    fn count_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<u64> {
        self.parts.check_rows(from, to)?;
        let set = self.vid_set_cached(pred, &mut self.cache())?;
        match &self.parts.index {
            Some(index) if from == 0 && to == self.parts.len => {
                let mut it = index.iter();
                set.iter().map(|vid| it.posting_count(vid)).sum()
            }
            Some(_) => Ok(self.rows_in(pred, &set, from, to)?.len() as u64),
            None if set.is_empty() => Ok(0),
            None => self.parts.data.iter().count(from, to, &set),
        }
    }

    /// The probe behind `core.scan_ns_per_row_par2`: an index-less count
    /// split over `opts.workers` threads; anything else is
    /// [`ColumnRead::count_rows`].
    fn count_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        if opts.workers <= 1 || self.parts.index.is_some() {
            return self.count_rows(pred, from, to);
        }
        self.parts.check_rows(from, to)?;
        let pred = KeyPredicate::compile(pred, self.parts.data_type)?;
        let set = self.vid_set_cached(&pred, &mut self.cache())?;
        self.parts.data.par_count(from, to, &set, opts)
    }
}

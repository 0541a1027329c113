//! The page-loadable column.

use crate::column::read::ColumnRead;
use crate::datavec::ScanOptions;
use crate::dict::HandleCache;
use crate::invidx::{for_each_run, PagedInvertedIndex};
use crate::{CoreResult, DataType, PageConfig, Value, ValuePredicate};
use payg_encoding::dispatch::{CodecKind, ScanPath};
use payg_encoding::VidSet;
use payg_storage::BufferPool;
use std::sync::{Arc, OnceLock};

/// When (and whether) a column's inverted index exists (paper §8: the
/// inverted index is *non-critical* data — recoverable from the data
/// vector — so it can be built adaptively, driven by the workload, instead
/// of eagerly at every delta merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// No inverted index; searches scan the data vector (Alg. 1).
    None,
    /// Built eagerly at delta merge (the paper's §3 default).
    Eager,
    /// Built lazily, from the paged data vector, once the column has served
    /// `threshold` searches — the paper's future-work proposal.
    Adaptive {
        /// Searches before the index is built.
        threshold: u64,
    },
}

/// The index traversal for `pred`, picked from its shape alone: point and
/// set probes (`Eq`, `In`) seek each vid's postings in the compressed
/// domain — `next_row_pos_geq` leapfrogs every partition below the row
/// range on its two-varint header — while the ordered predicates
/// (`Between`, prefix) are one vid range, hence one posting run, decoded
/// and drained whole.
fn index_path(pred: &ValuePredicate) -> ScanPath {
    match pred {
        ValuePredicate::Eq(_) | ValuePredicate::In(_) => ScanPath::CompressedDomain,
        ValuePredicate::Between(..) | ValuePredicate::StartsWith(_) => ScanPath::DecodeThenScan,
    }
}

/// The index slot of a column under a given [`IndexMode`].
pub(crate) enum IndexSlot {
    None,
    Eager(PagedInvertedIndex),
    Adaptive {
        threshold: u64,
        /// Detached [`payg_obs::Counter`] (not a registry series): the count
        /// drives the build decision, it is not exported.
        searches: payg_obs::Counter,
        built: OnceLock<PagedInvertedIndex>,
    },
}

impl IndexSlot {
    /// The index if it currently exists (never triggers a build).
    pub(crate) fn current(&self) -> Option<&PagedInvertedIndex> {
        match self {
            IndexSlot::None => None,
            IndexSlot::Eager(i) => Some(i),
            IndexSlot::Adaptive { built, .. } => built.get(),
        }
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
    pub index: IndexSlot,
}

impl ColumnParts {
    /// The index for a search: counts the search, and builds the adaptive
    /// index from the data vector (critical data) once the threshold is
    /// crossed.
    pub(crate) fn index_for_search(&self) -> CoreResult<Option<&PagedInvertedIndex>> {
        match &self.index {
            IndexSlot::None => Ok(None),
            IndexSlot::Eager(i) => Ok(Some(i)),
            IndexSlot::Adaptive { threshold, searches, built } => {
                if let Some(i) = built.get() {
                    return Ok(Some(i));
                }
                let n = searches.add(1);
                if n < *threshold {
                    return Ok(None);
                }
                // Rebuild non-critical data from critical data (§8): decode
                // the whole data vector once and persist a fresh index chain.
                let vids: Vec<u64> = self.data.decode_all_direct()?.iter().collect();
                let index =
                    PagedInvertedIndex::build(&self.pool, &self.config, &vids, self.cardinality)?;
                Ok(Some(built.get_or_init(|| index)))
            }
        }
    }

    /// The store chains backing this column, labeled by role.
    pub(crate) fn chains(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![("data", self.data.chain_id())];
        out.extend(self.dict.chains());
        if let Some(i) = self.index.current() {
            out.push(("index", i.chain_id()));
        }
        out
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

    /// Heap bytes of the always-resident metadata.
    pub fn meta_heap_bytes(&self) -> usize {
        self.parts.dict.meta_heap_bytes()
    }

    /// The codec of the dictionary chain.
    pub fn dict_codec(&self) -> CodecKind {
        self.parts.dict.codec_kind()
    }

    /// The codec of the inverted index's posting chain, if an index
    /// currently exists (adaptive indexes report `None` until built).
    pub fn index_codec(&self) -> Option<CodecKind> {
        self.parts.index.current().map(|i| i.codec_kind())
    }

    /// The strategy a row search for `pred` runs with: the index traversal
    /// its shape selects when an index exists, decode-then-scan (the data
    /// vector kernels) otherwise. (Dictionary probes decide independently:
    /// FSST equality probes always compare compressed bytes inside `find`.)
    pub fn scan_path(&self, pred: &ValuePredicate) -> ScanPath {
        match self.parts.index.current() {
            Some(_) => index_path(pred),
            None => ScanPath::DecodeThenScan,
        }
    }

    /// The store chains backing this column, labeled by role (`data`,
    /// `dict*`, `index`) — lets EXPLAIN ANALYZE group traced page events
    /// back to the structure that owns the touched pages.
    pub fn chains(&self) -> Vec<(&'static str, u64)> {
        self.parts.chains()
    }

    fn vid_set_cached(&self, pred: &ValuePredicate, cache: &mut HandleCache) -> CoreResult<VidSet> {
        Ok(match pred {
            ValuePredicate::Eq(v) => {
                v.check_type(self.parts.data_type)?;
                match self.parts.dict.find(&v.to_key(), cache)? {
                    Ok(vid) => VidSet::Single(vid),
                    Err(_) => VidSet::from_vids(Vec::new()),
                }
            }
            ValuePredicate::Between(lo, hi) => {
                lo.check_type(self.parts.data_type)?;
                hi.check_type(self.parts.data_type)?;
                match self.parts.dict.vid_range(&lo.to_key(), &hi.to_key(), cache)? {
                    Some((lo, hi)) => VidSet::range(lo, hi),
                    None => VidSet::from_vids(Vec::new()),
                }
            }
            ValuePredicate::In(vs) => {
                let mut vids = Vec::new();
                for v in vs {
                    v.check_type(self.parts.data_type)?;
                    if let Ok(vid) = self.parts.dict.find(&v.to_key(), cache)? {
                        vids.push(vid);
                    }
                }
                VidSet::from_vids(vids)
            }
            ValuePredicate::StartsWith(prefix) => {
                Value::Varchar(String::new()).check_type(self.parts.data_type)?;
                let lo = match self.parts.dict.find(prefix.as_bytes(), cache)? {
                    Ok(v) | Err(v) => v,
                };
                let hi = match crate::value::prefix_successor(prefix.as_bytes()) {
                    Some(succ) => match self.parts.dict.find(&succ, cache)? {
                        Ok(v) | Err(v) => v,
                    },
                    None => self.parts.cardinality,
                };
                if lo < hi {
                    VidSet::range(lo, hi - 1)
                } else {
                    VidSet::from_vids(Vec::new())
                }
            }
        })
    }

    /// Shared body of `find_rows` / `find_rows_par`: translate the predicate,
    /// then answer from the index (always sequential — postings are vid-major,
    /// not row-major) or scan the data vector, segmented when `opts` allows.
    fn find_rows_impl(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<Vec<u64>> {
        let mut cache = self.cache();
        let set = self.vid_set_cached(pred, &mut cache)?;
        let mut out = Vec::new();
        if set.is_empty() {
            return Ok(out);
        }
        match self.parts.index_for_search()? {
            // Alg. 5: answer from the paged inverted index.
            Some(index) => {
                let path = index_path(pred);
                // Flight recorder: one chunk-dispatch span covers the whole
                // index traversal; `detail` records which path it took
                // (1 = compressed-domain, 0 = decode-then-scan).
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
                    // A vid range is one posting run: two directory reads,
                    // then one drain of the contiguous postinglist slice.
                    ScanPath::DecodeThenScan => for_each_run(&set, |lo, hi| {
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
            }
            // Alg. 1: scan the paged data vector, loading only the pages
            // that overlap the row range — segmented across workers when
            // `opts` allows.
            None => {
                let to = to.min(self.parts.len);
                if opts.workers > 1 {
                    out = self.parts.data.par_search(from, to, &set, opts)?;
                } else {
                    self.parts.data.iter().search(from, to, &set, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// COUNT body for the no-index case: translate the predicate, then run
    /// the non-materializing count kernel over the data vector — positions
    /// are never collected, each page contributes popcounts of its result
    /// bitmaps. Falls back to an index-driven `find_rows` when an index
    /// exists (postings are already positional).
    fn count_rows_impl(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        if let Some(n) = self.count_from_directory(pred, from, to)? {
            return Ok(n);
        }
        if self.parts.index_for_search()?.is_some() {
            return Ok(self.find_rows_impl(pred, from, to, opts)?.len() as u64);
        }
        let mut cache = self.cache();
        let set = self.vid_set_cached(pred, &mut cache)?;
        if set.is_empty() {
            return Ok(0);
        }
        let to = to.min(self.parts.len);
        if from >= to {
            return Ok(0);
        }
        if opts.workers > 1 {
            self.parts.data.par_count(from, to, &set, opts)
        } else {
            self.parts.data.iter().count(from, to, &set)
        }
    }

    /// Full-range counts with an inverted index come straight from the
    /// directory — no postinglist pages load. `None` when the shortcut does
    /// not apply.
    fn count_from_directory(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
    ) -> CoreResult<Option<u64>> {
        if let Some(index) = self.parts.index_for_search()? {
            if from == 0 && to >= self.parts.len {
                let mut cache = self.cache();
                let set = self.vid_set_cached(pred, &mut cache)?;
                let mut it = index.iter();
                let mut n = 0u64;
                for vid in set.iter() {
                    n += it.posting_count(vid)?;
                }
                return Ok(Some(n));
            }
        }
        Ok(None)
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
        self.parts.index.current().is_some()
    }

    fn get_value(&self, rpos: u64) -> CoreResult<Value> {
        let vid = self.parts.data.iter().get(rpos)?;
        let mut cache = self.cache();
        let key = self.parts.dict.key_by_vid(vid, &mut cache)?;
        Value::from_key(self.parts.data_type, &key)
    }

    fn get_values(&self, rposs: &[u64]) -> CoreResult<Vec<Value>> {
        // The one-column case of phased late materialization.
        let mut columns =
            super::materialize::materialize_paged(&self.parts.pool, &[&*self.parts], rposs)?;
        Ok(columns.pop().unwrap_or_default())
    }

    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
        super::materialize::vid_counts_paged(&self.parts, rposs)
    }

    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>> {
        let mut columns = super::materialize::values_by_vid_paged(
            &self.parts.pool,
            &[&*self.parts],
            &[vids],
            &mut Default::default(),
        )?;
        Ok(columns.pop().unwrap_or_default())
    }

    fn get_vids(&self, from: u64, to: u64, out: &mut Vec<u64>) -> CoreResult<()> {
        self.parts.data.iter().mget(from, to, out)
    }

    fn vid_set_for(&self, pred: &ValuePredicate) -> CoreResult<VidSet> {
        let mut cache = self.cache();
        self.vid_set_cached(pred, &mut cache)
    }

    fn find_rows(&self, pred: &ValuePredicate, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        self.find_rows_impl(pred, from, to, ScanOptions::sequential())
    }

    fn find_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<Vec<u64>> {
        self.find_rows_impl(pred, from, to, opts)
    }

    fn count_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        self.count_rows_impl(pred, from, to, opts)
    }

    fn key_by_vid(&self, vid: u64) -> CoreResult<Vec<u8>> {
        let mut cache = self.cache();
        self.parts.dict.key_by_vid(vid, &mut cache)
    }

    fn count_rows(&self, pred: &ValuePredicate, from: u64, to: u64) -> CoreResult<u64> {
        self.count_rows_impl(pred, from, to, ScanOptions::sequential())
    }
}

//! The page-loadable column.

use crate::column::materialize::Source;
use crate::column::read::ColumnRead;
use crate::datavec::{PagedDataVector, ScanOptions};
use crate::dict::{DictLookup, HandleCache};
use crate::invidx::{for_each_run, PagedInvertedIndex};
use crate::{CoreError, CoreResult, DataType, KeyPredicate, PageConfig, Sum, Value, ValuePredicate};
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

/// The persisted parts shared by both access modes.
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
        if self.parts.has_index() {
            index_path(pred)
        } else {
            ScanPath::DecodeThenScan
        }
    }

    /// Translates `pred` through the paged dictionary; the pages it pins stay
    /// in `cache` for the caller's search.
    fn vid_set_cached(&self, pred: &KeyPredicate, cache: &mut HandleCache) -> CoreResult<VidSet> {
        self.parts.vid_set(pred, |key| self.parts.dict.find(key, cache))
    }

    /// The rows in `from..to` (already checked) whose identifier is in `set`,
    /// ascending: by arithmetic when row and identifier coincide, from the
    /// inverted index when there is one (Alg. 5), by a scan of the paged
    /// data vector otherwise (Alg. 1).
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
        let index = match &self.parts.rows {
            StoredRows::Identity { .. } => {
                identity_rows(set, from, to, &mut out);
                return Ok(out);
            }
            StoredRows::Plain { data, index: None } => {
                // Loads only the pages that overlap the row range and
                // survive page-summary pruning.
                data.iter().search(from, to, set, &mut out)?;
                return Ok(out);
            }
            StoredRows::Plain { index: Some(index), .. } => index,
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
        self.parts.has_index()
    }

    fn get_values(&self, rposs: &[u64]) -> CoreResult<Vec<Value>> {
        // The one-column case of phased late materialization.
        super::materialize::get_values(Source::Paged(&self.parts), rposs)
    }

    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
        super::materialize::vid_counts(Source::Paged(&self.parts), rposs)
    }

    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>> {
        super::materialize::values_of_paged(&self.parts, vids)
    }

    fn sum(&self, rposs: &[u64], sum: &mut Sum) -> CoreResult<()> {
        super::materialize::sum(Source::Paged(&self.parts), rposs, sum)
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
    /// When row and identifier coincide it is arithmetic.
    fn count_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<u64> {
        self.parts.check_rows(from, to)?;
        let set = self.vid_set_cached(pred, &mut self.cache())?;
        match &self.parts.rows {
            StoredRows::Identity { .. } => Ok(identity_count(&set, from, to)),
            StoredRows::Plain { index: Some(index), .. } if from == 0 && to == self.parts.len => {
                let mut it = index.iter();
                set.iter().map(|vid| it.posting_count(vid)).sum()
            }
            StoredRows::Plain { index: Some(_), .. } => {
                Ok(self.rows_in(pred, &set, from, to)?.len() as u64)
            }
            StoredRows::Plain { index: None, .. } if set.is_empty() => Ok(0),
            StoredRows::Plain { data, index: None } => data.iter().count(from, to, &set),
        }
    }

    /// The probe behind `core.scan_ns_per_row_par2`: a count over a data
    /// vector without an index, split over `opts.workers` threads; anything
    /// else is [`ColumnRead::count_rows`].
    fn count_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        match &self.parts.rows {
            StoredRows::Plain { data, index: None } if opts.workers > 1 => {
                self.parts.check_rows(from, to)?;
                let pred = KeyPredicate::compile(pred, self.parts.data_type)?;
                let set = self.vid_set_cached(&pred, &mut self.cache())?;
                data.par_count(from, to, &set, opts)
            }
            _ => self.count_rows(pred, from, to),
        }
    }
}

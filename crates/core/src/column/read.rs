//! The read interface, and its one implementation: each operation is
//! written once for both load policies, and only its innermost step reads
//! the resident image or pinned pages.

use super::materialize;
use super::parts::{identity_count, identity_rows, StoredRows};
use super::resident::Image;
use super::Column;
use crate::datavec::ScanOptions;
use crate::dict::HandleCache;
use crate::invidx::for_each_run;
use crate::{CoreResult, DataType, KeyPredicate, Sum, Value, ValuePredicate};
use payg_encoding::{kernels, scan, VidSet};

/// Read operations every column supports regardless of load policy. Methods
/// mirror the paper's logical accesses: value decode (late materialization,
/// a point read being its one-row case), predicate-to-vid translation via
/// the dictionary, and row search via the data vector or the inverted index.
pub trait ColumnRead {
    /// Number of rows.
    fn len(&self) -> u64;

    /// True when the column holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's value type.
    fn data_type(&self) -> DataType;

    /// Dictionary cardinality (distinct values).
    fn cardinality(&self) -> u64;

    /// True when the column has an inverted index.
    fn has_index(&self) -> bool;

    /// Materializes the values at the given rows (late materialization:
    /// decode vids first, then look each distinct vid up once). A point
    /// read is `get_values(&[rpos])`.
    fn get_values(&self, rposs: &[u64]) -> CoreResult<Vec<Value>>;

    /// The value identifiers at the given rows (any order, duplicates
    /// allowed) as `(identifier, count)` pairs, ascending by identifier —
    /// the first half of late materialization, and all an aggregate needs
    /// of the rows: the dictionary preserves order, so the first / last
    /// pair is the minimum / maximum and the pairs are the distinct set.
    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>>;

    /// The values of `vids`, in that order: the second half of late
    /// materialization, each dictionary entry decoded once — a repeated
    /// identifier's values share one string. Identifiers in any order,
    /// duplicates included, are answered; strictly ascending ones — what
    /// the first half yields — are the fast path.
    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>>;

    /// Adds the values at the given rows (any order, duplicates allowed)
    /// to `sum`: [`ColumnRead::vid_counts`], then each distinct
    /// identifier's key times its count, read straight off the dictionary
    /// — a numeric page, or the resident image — into the sum's number, in
    /// identifier order. What `SUM` folds a main fragment with: no value,
    /// values-table entry or list is made per distinct identifier. A sum
    /// of another type than the column's is a `TypeMismatch`; a DECIMAL sum
    /// past 128 bits is [`crate::CoreError::SumOverflow`].
    fn sum(&self, rposs: &[u64], sum: &mut Sum) -> CoreResult<()>;

    /// Translates a value predicate to the matching identifier set via the
    /// dictionary (order preservation keeps ranges contiguous).
    fn vid_set_for(&self, pred: &ValuePredicate) -> CoreResult<VidSet>;

    /// Returns the ascending row positions in `from..to` matching `pred`,
    /// compiled against this column's type, answered from the inverted
    /// index when one exists (Alg. 5) and by a data-vector scan otherwise
    /// (Alg. 1).
    fn find_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<Vec<u64>>;

    /// [`ColumnRead::find_key_rows`] of `pred` compiled to keys.
    fn find_rows(&self, pred: &ValuePredicate, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        self.find_key_rows(&KeyPredicate::compile(pred, self.data_type())?, from, to)
    }

    /// The order-preserving key `vid` encodes: the one-identifier batch of
    /// [`ColumnRead::values_by_vid`], re-keyed — lossless, since every key
    /// codec round-trips its keys bit for bit. Kept for `payg-perf`'s
    /// `core.dict_value_by_vid_us` probe; queries call `values_by_vid`.
    fn key_by_vid(&self, vid: u64) -> CoreResult<Vec<u8>> {
        Ok(self.values_by_vid(&[vid])?.remove(0).to_key())
    }

    /// Counts rows in `from..to` matching `pred`, compiled against this
    /// column's type.
    fn count_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<u64>;

    /// [`ColumnRead::count_key_rows`] of `pred` compiled to keys.
    fn count_rows(&self, pred: &ValuePredicate, from: u64, to: u64) -> CoreResult<u64> {
        self.count_key_rows(&KeyPredicate::compile(pred, self.data_type())?, from, to)
    }

    /// [`ColumnRead::count_rows`] split over up to `opts.workers` threads —
    /// what `payg-perf` times as `core.scan_ns_per_row_par2`; queries never
    /// call it. Only an index-less paged column splits; the rest count on
    /// the calling thread.
    fn count_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64>;
}

impl Column {
    /// Translates `pred` to the identifiers it selects through the
    /// dictionary: the image's value blocks, or the paged dictionary's
    /// pages, released when the set is made.
    fn vid_set(&self, image: Option<&Image>, pred: &KeyPredicate) -> CoreResult<VidSet> {
        match image {
            Some(image) => self.parts.vid_set(pred, |key| image.dict.find(key)),
            None => {
                let mut cache = HandleCache::new(self.parts.pool.clone());
                self.parts.vid_set(pred, |key| self.parts.dict.find(key, &mut cache))
            }
        }
    }

    /// The rows in `from..to` (already checked) whose identifier is in `set`,
    /// ascending: by arithmetic when row and identifier coincide, from the
    /// inverted index when there is one (Alg. 5) — a vid range is one
    /// posting run — and by a scan of the data vector otherwise (Alg. 1),
    /// which a paged column reads only on the pages that overlap the row
    /// range and survive page-summary pruning.
    fn rows_in(&self, image: Option<&Image>, set: &VidSet, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        let mut out = Vec::new();
        if set.is_empty() {
            return Ok(out);
        }
        match (&self.parts.rows, image) {
            (StoredRows::Identity { .. }, _) => identity_rows(set, from, to, &mut out),
            (StoredRows::Plain { index: Some(index), .. }, _) => {
                let resident = image.and_then(|i| i.index.as_ref());
                // Flight recorder: one chunk-dispatch span covers a paged
                // index traversal.
                let tracer = self.parts.pool.registry().tracer();
                let _span = resident.is_none().then(|| tracer.span(payg_obs::SpanKind::ChunkDispatch, 0));
                // One iterator for every run: the runs of an `IN` probe
                // re-pin nothing they share.
                let mut it = index.iter();
                let mut run = Vec::new();
                for_each_run(set, |lo, hi| {
                    match resident {
                        Some(index) => index.posting_run(lo, hi, &mut run)?,
                        None => it.posting_run(lo, hi, &mut run)?,
                    }
                    out.extend(run.iter().copied().filter(|rpos| (from..to).contains(rpos)));
                    Ok(())
                })?;
                out.sort_unstable();
            }
            (StoredRows::Plain { .. }, Some(image)) => scan::search(&image.data, from, to, set, &mut out),
            (StoredRows::Plain { data, .. }, None) => data.iter().search(from, to, set, &mut out)?,
        }
        Ok(out)
    }
}

impl ColumnRead for Column {
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
        materialize::get_values(self, rposs)
    }

    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
        materialize::vid_counts(self, rposs)
    }

    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>> {
        materialize::values_by_vid(self, vids)
    }

    fn sum(&self, rposs: &[u64], sum: &mut Sum) -> CoreResult<()> {
        materialize::sum(self, rposs, sum)
    }

    fn vid_set_for(&self, pred: &ValuePredicate) -> CoreResult<VidSet> {
        let pred = KeyPredicate::compile(pred, self.parts.data_type)?;
        self.vid_set(self.image()?.as_deref(), &pred)
    }

    fn find_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        self.parts.check_rows(from, to)?;
        let image = self.image()?;
        let set = self.vid_set(image.as_deref(), pred)?;
        self.rows_in(image.as_deref(), &set, from, to)
    }

    /// Arithmetic when row and identifier coincide. With an index, a
    /// full-range count comes straight from the directory — no postinglist
    /// page loads. Without one, COUNT never materializes positions: the
    /// scan kernel popcounts per-chunk result bitmaps in place, a page
    /// at a time on a paged column.
    fn count_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<u64> {
        self.parts.check_rows(from, to)?;
        let image = self.image()?;
        let image = image.as_deref();
        let set = self.vid_set(image, pred)?;
        match (&self.parts.rows, image) {
            (StoredRows::Identity { .. }, _) => Ok(identity_count(&set, from, to)),
            (StoredRows::Plain { index: Some(index), .. }, _) if from == 0 && to == self.parts.len => {
                match image.and_then(|i| i.index.as_ref()) {
                    Some(index) => set.iter().map(|vid| index.posting_count(vid)).sum(),
                    None => {
                        let mut it = index.iter();
                        set.iter().map(|vid| it.posting_count(vid)).sum()
                    }
                }
            }
            (StoredRows::Plain { index: Some(_), .. }, _) => {
                Ok(self.rows_in(image, &set, from, to)?.len() as u64)
            }
            (StoredRows::Plain { .. }, _) if set.is_empty() => Ok(0),
            (StoredRows::Plain { .. }, Some(image)) => {
                Ok(kernels::count_matches(&image.data, from, to, &set))
            }
            (StoredRows::Plain { data, .. }, None) => data.iter().count(from, to, &set),
        }
    }

    fn count_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        match (&self.parts.rows, self.paged()) {
            (StoredRows::Plain { data, index: None }, Some(_)) if opts.workers > 1 => {
                self.parts.check_rows(from, to)?;
                let pred = KeyPredicate::compile(pred, self.parts.data_type)?;
                data.par_count(from, to, &self.vid_set(None, &pred)?, opts)
            }
            _ => self.count_rows(pred, from, to),
        }
    }
}

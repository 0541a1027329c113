//! The uniform read interface over both column kinds.

use crate::datavec::ScanOptions;
use crate::{CoreResult, DataType, KeyPredicate, Sum, Value, ValuePredicate};
use payg_encoding::VidSet;

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
    /// materialization, each dictionary entry decoded once. Identifiers in
    /// any order, duplicates included, are answered; strictly ascending
    /// ones — what the first half yields — are the fast path.
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
    ) -> CoreResult<u64> {
        let _ = opts;
        self.count_rows(pred, from, to)
    }
}

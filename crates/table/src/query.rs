//! A small query executor covering the paper's Table 2 workloads.
//!
//! Queries are single-table, single-predicate selections with a projection:
//! exactly the shapes the evaluation uses (`SELECT C FROM T WHERE pk = v`,
//! `SELECT COUNT(*) …`, `SELECT SUM(c) … WHERE v1 <= pk <= v2`,
//! `SELECT ROWID() …`, `SELECT * …`). Execution evaluates the predicate
//! independently on the main and the delta fragment of every (non-pruned)
//! partition, unions the results after visibility filtering (§2), and
//! projects with late materialization — row positions first, then one
//! dictionary lookup per distinct identifier per projected column. The
//! answer stays in that form ([`Rows`]): per column, the values tables of
//! the distinct identifiers and each row's rank in them. An aggregate folds
//! distinct identifiers with their counts, a main fragment's through its
//! dictionary and a delta's as keys, and decodes only the answer.
//!
//! The executor runs on a [`Snapshot`]: every query pins one table version
//! at entry and evaluates entirely against it, so an online delta merge
//! publishing mid-query can never mix pre- and post-merge fragments into
//! one answer. [`Table::execute`] is a convenience that opens a session
//! per call.

use crate::schema::Row;
use crate::table::{Snapshot, Table};
use crate::{TableError, TableResult};
use payg_core::column::ColumnRead;
use payg_core::{Column, CoreError, DataType, Sum, Value, ValuePredicate};
pub use payg_core::{RowRef, Rows};

/// What a query returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`.
    All,
    /// `SELECT c1, c2, …`.
    Columns(Vec<String>),
    /// `SELECT COUNT(*)`.
    Count,
    /// `SELECT SUM(col)`.
    Sum(String),
    /// `SELECT MIN(col)` — O(1) on an unfiltered main fragment with no
    /// deleted rows: the order-preserving dictionary's first key is the
    /// minimum.
    Min(String),
    /// `SELECT MAX(col)` — O(1) as `MIN`.
    Max(String),
    /// `SELECT DISTINCT col` — on an unfiltered main fragment with no
    /// deleted rows the dictionary *is* the distinct set (every vid occurs
    /// at least once after a merge), so no data-vector page is touched.
    Distinct(String),
    /// `SELECT ROWID()`.
    RowIds,
}

/// A single-table selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Optional predicate: `(column name, predicate)`.
    pub filter: Option<(String, ValuePredicate)>,
    /// The projection.
    pub projection: Projection,
}

impl Query {
    /// `SELECT <projection> FROM t WHERE <col> <pred>`.
    pub fn filtered(col: impl Into<String>, pred: ValuePredicate, projection: Projection) -> Self {
        Query { filter: Some((col.into(), pred)), projection }
    }

    /// `SELECT <projection> FROM t`.
    pub fn full(projection: Projection) -> Self {
        Query { filter: None, projection }
    }
}

/// A query's result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Materialized rows (for [`Projection::All`], [`Projection::Columns`]
    /// and [`Projection::Distinct`]), in columns: values tables and ranks.
    Rows(Rows),
    /// A count.
    Count(u64),
    /// A sum (type follows the summed column; integer sums widen to
    /// DECIMAL when they overflow `i64`).
    Sum(Value),
    /// A minimum or maximum (`None` when no row matched).
    Extreme(Option<Value>),
    /// Opaque row identifiers.
    RowIds(Vec<u64>),
}

impl QueryResult {
    /// The rows, a `Vec` a row ([`Rows::into_rows`]), panicking on other
    /// variants.
    pub fn into_rows(self) -> Vec<Row> {
        match self {
            QueryResult::Rows(r) => r.into_rows(),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// The count, panicking on other variants.
    pub fn count(&self) -> u64 {
        match self {
            QueryResult::Count(c) => *c,
            other => panic!("expected count, got {other:?}"),
        }
    }
}

/// The visible rows one fragment matched: a partition's main fragment or
/// its delta, and the row positions, ascending.
struct Run {
    partition: usize,
    in_delta: bool,
    rposs: Vec<u64>,
}

impl Run {
    /// The opaque `ROWID` of each row.
    fn row_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let fragment = ((self.partition as u64) << 48) | ((self.in_delta as u64) << 47);
        self.rposs.iter().map(move |&rpos| fragment | rpos)
    }
}

impl Table {
    /// Executes a query on a fresh snapshot (one coherent table version).
    pub fn execute(&self, q: &Query) -> TableResult<QueryResult> {
        self.session()?.execute(q)
    }
}

impl Snapshot<'_> {
    /// Executes a query against this snapshot's pinned version.
    pub fn execute(&self, q: &Query) -> TableResult<QueryResult> {
        let cols: Vec<usize> = match &q.projection {
            // COUNT avoids materializing row positions when the inverted
            // index's directory can answer directly (Alg. 5's counting
            // shortcut).
            Projection::Count => return Ok(QueryResult::Count(self.count(&q.filter)?)),
            Projection::RowIds => {
                let runs = self.matching_rows(&q.filter)?;
                return Ok(QueryResult::RowIds(runs.iter().flat_map(Run::row_ids).collect()));
            }
            Projection::All => (0..self.schema().arity()).collect(),
            Projection::Columns(names) => {
                names.iter().map(|n| self.schema().column_index(n)).collect::<TableResult<_>>()?
            }
            Projection::Sum(name)
            | Projection::Min(name)
            | Projection::Max(name)
            | Projection::Distinct(name) => {
                let col = self.schema().column_index(name)?;
                let ty = self.schema().columns()[col].data_type;
                let mut fold = Fold::new(&q.projection, ty)?;
                self.for_each_run(&q.filter, |pi, in_delta, rposs| {
                    let p = &self.partitions()[pi];
                    match rposs {
                        Some(rposs) if in_delta => {
                            p.delta_view().key_counts(col, &rposs, |key, n| fold.key(key, n))
                        }
                        rposs => fold.main_rows(p.main_frag().column(col), rposs.as_deref()),
                    }
                })?;
                return fold.finish(ty);
            }
        };
        Ok(QueryResult::Rows(self.project(&self.matching_rows(&q.filter)?, &cols)?))
    }

    /// Counts visible matching rows, using the index-directory shortcut
    /// for fragments without deleted rows.
    fn count(&self, filter: &Option<(String, ValuePredicate)>) -> TableResult<u64> {
        let Some((name, pred)) = filter else {
            return Ok(self.visible_rows());
        };
        let (col, key_pred) = self.schema().compile(name, pred)?;
        let mut n = 0u64;
        for p in self.partitions() {
            if self.schema().prunes(col, &key_pred, &p.bounds) {
                continue;
            }
            let main = p.main_frag();
            if main.visible_rows() == main.rows() {
                n += main.column(col).count_key_rows(&key_pred, 0, main.rows())?;
            } else {
                n += main.find_rows(col, &key_pred)?.len() as u64;
            }
            n += p.delta_view().find_rows(col, &key_pred).len() as u64;
        }
        Ok(n)
    }

    /// Calls `f(partition, in_delta, rposs)` with the visible rows, ascending,
    /// the filter matches in each fragment that has any, partition by
    /// partition (partitions pruned when the filter is on the partition
    /// column), main fragment before delta within each partition. Without a
    /// filter, a main fragment with no deleted rows comes whole, as `None`:
    /// its positions are not materialized.
    fn for_each_run(
        &self,
        filter: &Option<(String, ValuePredicate)>,
        mut f: impl FnMut(usize, bool, Option<Vec<u64>>) -> TableResult<()>,
    ) -> TableResult<()> {
        let filter = filter.as_ref().map(|(name, pred)| self.schema().compile(name, pred));
        let filter = filter.transpose()?;
        for (pi, p) in self.partitions().iter().enumerate() {
            let (main, delta) = (p.main_frag(), p.delta_view());
            let (main_rows, delta_rows) = match &filter {
                Some((col, pred)) if self.schema().prunes(*col, pred, &p.bounds) => continue,
                Some((col, pred)) => {
                    (Some(main.find_rows(*col, pred)?), delta.find_rows(*col, pred))
                }
                None if main.visible_rows() == main.rows() => (None, delta.visible_positions()),
                None => (Some(main.visible_positions()), delta.visible_positions()),
            };
            if main_rows.as_ref().map_or(main.rows() > 0, |r| !r.is_empty()) {
                f(pi, false, main_rows)?;
            }
            if !delta_rows.is_empty() {
                f(pi, true, Some(delta_rows))?;
            }
        }
        Ok(())
    }

    /// The visible rows matching the filter, one run per fragment that has
    /// any, in [`Snapshot::for_each_run`]'s order.
    fn matching_rows(&self, filter: &Option<(String, ValuePredicate)>) -> TableResult<Vec<Run>> {
        let mut runs = Vec::with_capacity(2 * self.partitions().len());
        self.for_each_run(filter, |partition, in_delta, rposs| {
            let every = || (0..self.partitions()[partition].main_frag().rows()).collect();
            runs.push(Run { partition, in_delta, rposs: rposs.unwrap_or_else(every) });
            Ok(())
        })?;
        Ok(runs)
    }

    /// Late materialization of the columns `cols` (schema indices, resolved
    /// once by the caller) into one answer: each run's rows are read in one
    /// batch covering *all* projected columns and appended to the same
    /// values tables and ranks — a main fragment's through one
    /// [`payg_core::column::materialize`] call, so its page accesses are
    /// planned and pinned phase by phase rather than column by column, and
    /// a delta's through `DeltaView::materialize`, under one lock per cell.
    fn project(&self, runs: &[Run], cols: &[usize]) -> TableResult<Rows> {
        let n = runs.iter().map(|r| r.rposs.len()).sum();
        let mut rows = Rows::new(cols.len(), n);
        for run in runs {
            let p = &self.partitions()[run.partition];
            if run.in_delta {
                p.delta_view().materialize(cols, &run.rposs, &mut rows)?;
            } else {
                payg_core::column::materialize(p.main_frag().columns(), cols, &run.rposs, &mut rows)?;
            }
        }
        Ok(rows)
    }
}

/// An aggregate's running state. A main fragment's rows fold in the vid
/// domain and a delta's as distinct keys with their counts; each distinct
/// main value is keyed at most once to compare across fragments, and only
/// the answer is decoded.
enum Fold {
    /// `SUM`: the running total.
    Sum(SumAcc),
    /// `MIN` / `MAX`: the best key so far.
    Extreme {
        want_max: bool,
        best: Option<Vec<u8>>,
    },
    /// `DISTINCT`: the keys seen, duplicates included.
    Distinct(Vec<Vec<u8>>),
}

impl Fold {
    /// The fold of the aggregate `projection` over a column of type `ty`.
    fn new(projection: &Projection, ty: DataType) -> TableResult<Self> {
        Ok(match projection {
            Projection::Sum(_) => Fold::Sum(SumAcc::new(ty)?),
            Projection::Distinct(_) => Fold::Distinct(Vec::new()),
            p => Fold::Extreme { want_max: matches!(p, Projection::Max(_)), best: None },
        })
    }

    /// Folds `column` of a main fragment at `rposs`, or at every row
    /// (`None`) of a fragment with no deleted rows. Such a fragment's
    /// distinct identifiers are `0..cardinality`, since every identifier
    /// occurs after a merge, and its extremes the first and last of them:
    /// `MIN`, `MAX` and `DISTINCT` read its dictionary alone. `SUM` adds
    /// each distinct key times its count as a typed number; `MIN` / `MAX`
    /// decode one value, the first / last identifier, because the
    /// dictionary preserves order.
    fn main_rows(&mut self, column: &Column, rposs: Option<&[u64]>) -> TableResult<()> {
        match self {
            Fold::Sum(acc) => {
                let every: Vec<u64> =
                    if rposs.is_none() { (0..column.len()).collect() } else { Vec::new() };
                column.sum(rposs.unwrap_or(&every), &mut acc.0).map_err(overflow)
            }
            Fold::Extreme { want_max, .. } => {
                let want_max = *want_max;
                let vid = match rposs {
                    None => {
                        column.cardinality().checked_sub(1).map(|n| if want_max { n } else { 0 })
                    }
                    Some(rposs) => {
                        let counts = column.vid_counts(rposs)?;
                        if want_max { counts.last() } else { counts.first() }.map(|&(vid, _)| vid)
                    }
                };
                let Some(vid) = vid else { return Ok(()) };
                let key = column.values_by_vid(&[vid])?[0].to_key();
                self.key(&key, 1)
            }
            Fold::Distinct(keys) => {
                let vids: Vec<u64> = match rposs {
                    None => (0..column.cardinality()).collect(),
                    Some(rposs) => {
                        column.vid_counts(rposs)?.into_iter().map(|(vid, _)| vid).collect()
                    }
                };
                keys.extend(column.values_by_vid(&vids)?.iter().map(Value::to_key));
                Ok(())
            }
        }
    }

    /// Folds `count` rows holding `key`: `SUM` adds it as a number once,
    /// `MIN`, `MAX` and `DISTINCT` compare keys.
    fn key(&mut self, key: &[u8], count: u64) -> TableResult<()> {
        match self {
            Fold::Sum(acc) => acc.0.add_key(key, count).map_err(overflow)?,
            Fold::Extreme { want_max, best } => {
                if best.as_deref().is_none_or(|b| (key > b) == *want_max) {
                    *best = Some(key.to_vec());
                }
            }
            Fold::Distinct(keys) => keys.push(key.to_vec()),
        }
        Ok(())
    }

    /// The answer, its keys decoded: `DISTINCT` is one column whose values
    /// table is the distinct keys, ascending in key order, each decoded
    /// once, and whose ranks are `0..n`.
    fn finish(self, ty: DataType) -> TableResult<QueryResult> {
        let decode = |key: &[u8]| Value::from_key(ty, key);
        Ok(match self {
            Fold::Sum(acc) => QueryResult::Sum(acc.finish()),
            Fold::Extreme { best, .. } => {
                QueryResult::Extreme(best.as_deref().map(decode).transpose()?)
            }
            Fold::Distinct(mut keys) => {
                keys.sort_unstable();
                keys.dedup();
                let mut rows = Rows::new(1, keys.len());
                rows.append(keys.len(), |_, values, ranks| {
                    for (rank, key) in ranks.iter_mut().zip(&keys) {
                        *rank = values.len() as u32;
                        values.push(decode(key)?);
                    }
                    Ok(())
                })?;
                QueryResult::Rows(rows)
            }
        })
    }
}

/// Typed sum accumulator: the running [`Sum`] a main fragment's rows add
/// into ([`ColumnRead::sum`]) and a delta's keys add to, and the answer's
/// type.
struct SumAcc(Sum);

impl SumAcc {
    fn new(ty: DataType) -> TableResult<Self> {
        Sum::zero(ty)
            .map(SumAcc)
            .ok_or_else(|| TableError::Invalid("SUM over a VARCHAR column".into()))
    }

    fn finish(self) -> Value {
        match self.0 {
            Sum::Integer(a) => i64::try_from(a)
                .map(Value::Integer)
                // An integer sum beyond i64 widens to DECIMAL (scale 2).
                .unwrap_or(Value::Decimal(a.saturating_mul(100))),
            Sum::Decimal(a) => Value::Decimal(a),
            Sum::Double(a) => Value::Double(a),
        }
    }
}

/// A sum's overflow as the query error it is; any other failure as is.
fn overflow(e: CoreError) -> TableError {
    match e {
        CoreError::SumOverflow => TableError::Invalid(e.to_string()),
        e => TableError::Core(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use crate::schema::{ColumnSpec, Schema};
    use payg_core::{LoadPolicy, PageConfig};
    use payg_resman::ResourceManager;
    use payg_storage::{BufferPool, MemStore};
    use std::sync::Arc;

    fn table(policy: LoadPolicy) -> Table {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("region", DataType::Varchar),
            ColumnSpec::new("amount", DataType::Decimal),
            ColumnSpec::new("score", DataType::Double),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema,
            vec![PartitionSpec::single(policy)],
        )
        .unwrap();
        for i in 0..300i64 {
            t.insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("region-{}", i % 5).into()),
                Value::Decimal(i as i128 * 100),
                Value::Double(i as f64 / 2.0),
            ])
            .unwrap();
        }
        // Leave some rows in the delta to exercise the union path.
        t.delta_merge_all().unwrap();
        for i in 300..320i64 {
            t.insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("region-{}", i % 5).into()),
                Value::Decimal(i as i128 * 100),
                Value::Double(i as f64 / 2.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn point_query_projects_one_column() {
        for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
            let t = table(policy);
            // From the main fragment.
            let q = Query::filtered(
                "id",
                ValuePredicate::Eq(Value::Integer(123)),
                Projection::Columns(vec!["region".into()]),
            );
            let rows = t.execute(&q).unwrap().into_rows();
            assert_eq!(rows, vec![vec![Value::Varchar("region-3".into())]]);
            // From the delta fragment.
            let q = Query::filtered(
                "id",
                ValuePredicate::Eq(Value::Integer(310)),
                Projection::Columns(vec!["region".into()]),
            );
            let rows = t.execute(&q).unwrap().into_rows();
            assert_eq!(rows, vec![vec![Value::Varchar("region-0".into())]]);
        }
    }

    #[test]
    fn select_star_unions_main_and_delta() {
        let t = table(LoadPolicy::PageLoadable);
        let q = Query::filtered(
            "region",
            ValuePredicate::Eq(Value::Varchar("region-1".into())),
            Projection::All,
        );
        let rows = t.execute(&q).unwrap().into_rows();
        // 60 in the main (ids 1,6,…,296) + 4 in the delta (301,306,311,316).
        assert_eq!(rows.len(), 64);
        assert!(rows.iter().all(|r| r[1] == Value::Varchar("region-1".into())));
        assert!(rows.iter().any(|r| r[0] == Value::Integer(311)));
    }

    #[test]
    fn count_and_rowids() {
        let t = table(LoadPolicy::PageLoadable);
        let q = Query::filtered(
            "region",
            ValuePredicate::Eq(Value::Varchar("region-2".into())),
            Projection::Count,
        );
        assert_eq!(t.execute(&q).unwrap().count(), 64);
        let q = Query::filtered(
            "id",
            ValuePredicate::Eq(Value::Integer(42)),
            Projection::RowIds,
        );
        match t.execute(&q).unwrap() {
            QueryResult::RowIds(ids) => assert_eq!(ids, vec![42]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn session_reuses_one_version_for_many_queries() {
        let t = table(LoadPolicy::PageLoadable);
        let s = t.session().unwrap();
        let count_all = Query::full(Projection::Count);
        assert_eq!(s.execute(&count_all).unwrap().count(), 320);
        // Concurrent write + merge: the session's answers do not move.
        t.insert(vec![
            Value::Integer(999),
            Value::Varchar("region-9".into()),
            Value::Decimal(1),
            Value::Double(0.5),
        ])
        .unwrap();
        t.delta_merge_all().unwrap();
        assert_eq!(s.execute(&count_all).unwrap().count(), 320);
        // A fresh session sees the new row.
        assert_eq!(t.execute(&count_all).unwrap().count(), 321);
    }

    #[test]
    fn indexed_and_scanned_columns_answer_alike() {
        // Same rows through an indexed table and one that scans its data
        // vector: every query shape returns identical results.
        let build = |indexed: bool| {
            let id = if indexed { ColumnSpec::indexed } else { ColumnSpec::new };
            let schema = Schema::new(vec![
                id("id", DataType::Integer),
                ColumnSpec::new("region", DataType::Varchar),
            ])
            .unwrap();
            let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
            let t = Table::create(
                pool,
                PageConfig::tiny(),
                schema,
                vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
            )
            .unwrap();
            for i in 0..400i64 {
                t.insert(vec![Value::Integer(i % 50), Value::Varchar(format!("r-{}", i % 3).into())])
                    .unwrap();
            }
            t.delta_merge_all().unwrap();
            t
        };
        let (indexed, scan) = (build(true), build(false));
        let queries = [
            Query::filtered("id", ValuePredicate::Eq(Value::Integer(17)), Projection::All),
            Query::filtered(
                "id",
                ValuePredicate::In(vec![Value::Integer(3), Value::Integer(42)]),
                Projection::RowIds,
            ),
            Query::filtered(
                "id",
                ValuePredicate::Between(Value::Integer(10), Value::Integer(20)),
                Projection::Count,
            ),
        ];
        for q in &queries {
            assert_eq!(indexed.execute(q).unwrap(), scan.execute(q).unwrap());
        }
    }

    #[test]
    fn sums_per_type() {
        let t = table(LoadPolicy::FullyResident);
        let q = Query::filtered(
            "id",
            ValuePredicate::Between(Value::Integer(0), Value::Integer(9)),
            Projection::Sum("amount".into()),
        );
        assert_eq!(t.execute(&q).unwrap(), QueryResult::Sum(Value::Decimal(4500)));
        let q = Query::filtered(
            "id",
            ValuePredicate::Between(Value::Integer(0), Value::Integer(9)),
            Projection::Sum("score".into()),
        );
        assert_eq!(t.execute(&q).unwrap(), QueryResult::Sum(Value::Double(22.5)));
        let q = Query::filtered(
            "id",
            ValuePredicate::Between(Value::Integer(0), Value::Integer(9)),
            Projection::Sum("id".into()),
        );
        assert_eq!(t.execute(&q).unwrap(), QueryResult::Sum(Value::Integer(45)));
        // SUM over VARCHAR is rejected.
        let q = Query::full(Projection::Sum("region".into()));
        assert!(t.execute(&q).is_err());
    }

    #[test]
    fn sum_overflow_is_a_typed_error() {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("amount", DataType::Decimal),
        ])
        .unwrap();
        for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
            let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
            let t = Table::create(pool, PageConfig::tiny(), schema.clone(), vec![PartitionSpec::single(policy)])
                .unwrap();
            for i in 0..2 {
                t.insert(vec![Value::Integer(i), Value::Decimal(i128::MAX / 2)]).unwrap();
            }
            let sum = Query::full(Projection::Sum("amount".into()));
            // Twice fits, as one (value, count) pair in the main fragment …
            t.delta_merge_all().unwrap();
            assert_eq!(t.execute(&sum).unwrap(), QueryResult::Sum(Value::Decimal(i128::MAX - 1)));
            // … a third occurrence, read from the delta, does not.
            t.insert(vec![Value::Integer(2), Value::Decimal(i128::MAX / 2)]).unwrap();
            let overflows = |r: TableResult<QueryResult>| {
                matches!(r, Err(TableError::Invalid(m)) if m.starts_with("SUM overflows"))
            };
            assert!(overflows(t.execute(&sum)), "{policy:?}: product fits, sum does not");
            t.delta_merge_all().unwrap();
            assert!(overflows(t.execute(&sum)), "{policy:?}: value × 3 does not fit");

            // A dictionary of three pages (48 16-byte keys a page) whose
            // sum overflows at identifier 103 of 130, in the middle of its
            // last page: the first 100 values are small, the rest a quarter
            // of the range each.
            let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
            let t = Table::create(pool, PageConfig::tiny(), schema.clone(), vec![PartitionSpec::single(policy)])
                .unwrap();
            let amount = |i: i64| if i < 100 { i128::from(i) } else { i128::MAX / 4 + i128::from(i) };
            for i in 0..130 {
                t.insert(vec![Value::Integer(i), Value::Decimal(amount(i))]).unwrap();
            }
            t.delta_merge_all().unwrap();
            assert!(overflows(t.execute(&sum)), "{policy:?}: overflow mid-page");
            let three = Query::filtered(
                "id",
                ValuePredicate::Between(Value::Integer(0), Value::Integer(102)),
                Projection::Sum("amount".into()),
            );
            let want = (0..103).map(amount).sum();
            assert_eq!(t.execute(&three).unwrap(), QueryResult::Sum(Value::Decimal(want)), "{policy:?}");
        }
    }

    #[test]
    fn unfiltered_scan_sees_everything_visible() {
        let t = table(LoadPolicy::PageLoadable);
        assert_eq!(t.execute(&Query::full(Projection::Count)).unwrap().count(), 320);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table(LoadPolicy::PageLoadable);
        let q = Query::filtered("nope", ValuePredicate::Eq(Value::Integer(1)), Projection::Count);
        assert!(matches!(t.execute(&q), Err(TableError::UnknownColumn(_))));
    }
}

#[cfg(test)]
mod minmax_tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use crate::schema::{ColumnSpec, Schema};
    use payg_core::{LoadPolicy, PageConfig};
    use payg_resman::ResourceManager;
    use payg_storage::{BufferPool, MemStore};
    use std::sync::Arc;

    fn minmax_table() -> Table {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("name", DataType::Varchar),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema,
            vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
        )
        .unwrap();
        for i in 0..200i64 {
            t.insert(vec![
                Value::Integer((i * 37) % 199 - 50),
                Value::Varchar(format!("n-{:03}", (i * 13) % 97).into()),
            ])
            .unwrap();
        }
        t.delta_merge_all().unwrap();
        // Leave a few rows in the delta so the union path is exercised.
        t.insert(vec![Value::Integer(-999), Value::Varchar("zzz-top".into())]).unwrap();
        t.insert(vec![Value::Integer(500), Value::Varchar("aaa-bottom".into())]).unwrap();
        t
    }

    #[test]
    fn unfiltered_min_max_use_dictionary_and_delta() {
        let t = minmax_table();
        assert_eq!(
            t.execute(&Query::full(Projection::Min("id".into()))).unwrap(),
            QueryResult::Extreme(Some(Value::Integer(-999))),
            "delta row is the minimum"
        );
        assert_eq!(
            t.execute(&Query::full(Projection::Max("id".into()))).unwrap(),
            QueryResult::Extreme(Some(Value::Integer(500)))
        );
        assert_eq!(
            t.execute(&Query::full(Projection::Max("name".into()))).unwrap(),
            QueryResult::Extreme(Some(Value::Varchar("zzz-top".into())))
        );
    }

    #[test]
    fn filtered_min_max_respect_the_predicate() {
        let t = minmax_table();
        let q = Query::filtered(
            "id",
            ValuePredicate::Between(Value::Integer(0), Value::Integer(50)),
            Projection::Max("name".into()),
        );
        // Brute force over the same filter.
        let all = t
            .execute(&Query::filtered(
                "id",
                ValuePredicate::Between(Value::Integer(0), Value::Integer(50)),
                Projection::All,
            ))
            .unwrap()
            .into_rows();
        let expect = all
            .iter()
            .map(|r| r[1].clone())
            .max_by(|a, b| a.to_key().cmp(&b.to_key()));
        assert_eq!(t.execute(&q).unwrap(), QueryResult::Extreme(expect));
    }

    #[test]
    fn empty_match_yields_none() {
        let t = minmax_table();
        let q = Query::filtered(
            "id",
            ValuePredicate::Eq(Value::Integer(123_456)),
            Projection::Min("id".into()),
        );
        assert_eq!(t.execute(&q).unwrap(), QueryResult::Extreme(None));
    }

    #[test]
    fn distinct_uses_dictionary_and_respects_filters() {
        let t = minmax_table();
        // Unfiltered: the dictionary is the distinct set (+ the delta rows).
        let rows = t
            .execute(&Query::full(Projection::Distinct("name".into())))
            .unwrap()
            .into_rows();
        // 97 generated names + "zzz-top" + "aaa-bottom".
        assert_eq!(rows.len(), 99);
        // Sorted ascending by key order.
        assert_eq!(rows[0][0], Value::Varchar("aaa-bottom".into()));
        assert_eq!(rows[98][0], Value::Varchar("zzz-top".into()));
        // Filtered distinct goes through projection and deduplicates.
        let q = Query::filtered(
            "name",
            ValuePredicate::StartsWith("n-00".into()),
            Projection::Distinct("name".into()),
        );
        let filtered = t.execute(&q).unwrap().into_rows();
        assert!(!filtered.is_empty());
        assert!(filtered
            .iter()
            .all(|r| matches!(&r[0], Value::Varchar(s) if s.starts_with("n-00"))));
        let mut sorted = filtered.clone();
        sorted.dedup();
        assert_eq!(sorted, filtered, "already deduplicated");

        // A multi-page string dictionary, then main deletes and delta rows,
        // under both load policies — against a plain fold over the rows.
        for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
            let (t, mut rows) = distinct_table(policy);
            let name = t.partitions()[0].main().column(1).chains();
            let store = t.pool().store();
            let dict_pages: u64 = name
                .iter()
                .filter(|(role, _)| role.starts_with("dict"))
                .map(|&(_, chain)| store.chain_len(payg_storage::ChainId(chain)).unwrap())
                .sum();
            let dict_chain = name.iter().find(|(role, _)| *role == "dict").unwrap().1;
            assert!(store.chain_len(payg_storage::ChainId(dict_chain)).unwrap() > 1, "multi-page");
            assert!(dict_pages < 300, "more distinct values than dictionary pages");
            // An unfiltered DISTINCT reads the dictionary as one batch: each
            // of its pages at most once, not one pin per identifier.
            if policy == LoadPolicy::PageLoadable {
                let pins = || {
                    let m = t.pool().metrics();
                    m.hits + m.misses
                };
                let before = pins();
                t.execute(&Query::full(Projection::Distinct("name".into()))).unwrap();
                let pinned = pins() - before;
                assert!(
                    pinned > 0 && pinned <= dict_pages,
                    "{pinned} pins for {dict_pages} dictionary pages"
                );
            }
            assert_distinct_matches_fold(&t, &rows);

            // Move every row of some names away (their dictionary entries
            // are orphaned), and add fresh delta rows.
            let moved = ValuePredicate::Between(Value::Integer(50), Value::Integer(120));
            let n =
                t.update_rows("id", &moved, "name", &Value::Varchar("zz-moved".into())).unwrap();
            assert_eq!(n, 71);
            for row in rows.iter_mut().filter(|r| moved.matches(&r[0])) {
                row[1] = Value::Varchar("zz-moved".into());
            }
            for i in 400..410i64 {
                let row = vec![Value::Integer(i), Value::Varchar(format!("a-fresh-{i}").into())];
                t.insert(row.clone()).unwrap();
                rows.push(row);
            }
            assert_distinct_matches_fold(&t, &rows);
            t.delta_merge_all().unwrap();
            assert_distinct_matches_fold(&t, &rows);
        }
    }

    /// 400 rows over 300 names that share a long prefix, on tiny pages: the
    /// name dictionary spans many pages. Returns the table and its rows.
    fn distinct_table(policy: LoadPolicy) -> (Table, Vec<Row>) {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("name", DataType::Varchar),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t =
            Table::create(pool, PageConfig::tiny(), schema, vec![PartitionSpec::single(policy)])
                .unwrap();
        let rows: Vec<Row> = (0..400i64)
            .map(|i| {
                vec![Value::Integer(i), Value::Varchar(format!("customer-{:05}", i * 7 % 300).into())]
            })
            .collect();
        t.insert_all(rows.clone()).unwrap();
        t.delta_merge_all().unwrap();
        (t, rows)
    }

    /// Unfiltered and filtered `DISTINCT name` equal the distinct names of
    /// `rows` (and of those matching the filter), ascending.
    fn assert_distinct_matches_fold(t: &Table, rows: &[Row]) {
        let fold = |keep: &dyn Fn(&Value) -> bool| {
            let mut names: Vec<Value> = rows.iter().map(|r| r[1].clone()).filter(keep).collect();
            names.sort_by_key(Value::to_key);
            names.dedup();
            names.into_iter().map(|v| vec![v]).collect::<Vec<Row>>()
        };
        let all = t.execute(&Query::full(Projection::Distinct("name".into()))).unwrap();
        assert_eq!(all.into_rows(), fold(&|_| true));
        let prefix = ValuePredicate::StartsWith("customer-001".into());
        let q = Query::filtered("name", prefix.clone(), Projection::Distinct("name".into()));
        assert_eq!(t.execute(&q).unwrap().into_rows(), fold(&|v| prefix.matches(v)));
    }

    #[test]
    fn min_max_after_deletes_falls_back_correctly() {
        let t = minmax_table();
        // Delete the extreme delta rows by moving... the engine has no bare
        // delete; emulate by updating them out through update_rows on a
        // non-partitioned table (update keeps them). Instead: delete via
        // main-fragment deletion path using update_rows to rewrite the max.
        let n = t
            .update_rows(
                "id",
                &ValuePredicate::Eq(Value::Integer(500)),
                "id",
                &Value::Integer(7),
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            t.execute(&Query::full(Projection::Max("id".into()))).unwrap(),
            QueryResult::Extreme(Some(Value::Integer(148))),
            "max of the generated mains after the rewrite"
        );
    }
}

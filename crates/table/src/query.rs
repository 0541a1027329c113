//! A small query executor covering the paper's Table 2 workloads.
//!
//! Queries are single-table, single-predicate selections with a projection:
//! exactly the shapes the evaluation uses (`SELECT C FROM T WHERE pk = v`,
//! `SELECT COUNT(*) …`, `SELECT SUM(c) … WHERE v1 <= pk <= v2`,
//! `SELECT ROWID() …`, `SELECT * …`). Execution evaluates the predicate
//! independently on the main and the delta fragment of every (non-pruned)
//! partition, unions the results after visibility filtering (§2), and
//! projects with late materialization — row positions first, then one
//! dictionary lookup per distinct identifier per projected column.
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
use payg_core::{DataType, ScanPath, Value, ValuePredicate};

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
    /// `SELECT MIN(col)` — O(1) on unfiltered main fragments: the
    /// order-preserving dictionary's first key is the minimum.
    Min(String),
    /// `SELECT MAX(col)` — O(1) on unfiltered main fragments.
    Max(String),
    /// `SELECT DISTINCT col` — on unfiltered main fragments the dictionary
    /// *is* the distinct set (every vid occurs at least once after a merge),
    /// so no data-vector page is touched.
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
    /// Materialized rows (for [`Projection::All`] / [`Projection::Columns`]).
    Rows(Vec<Row>),
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
    /// The rows, panicking on other variants (test convenience).
    pub fn into_rows(self) -> Vec<Row> {
        match self {
            QueryResult::Rows(r) => r,
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

/// An address of one visible matched row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowAddr {
    partition: usize,
    in_delta: bool,
    rpos: u64,
}

impl RowAddr {
    /// Encodes as an opaque `ROWID`.
    fn row_id(self) -> u64 {
        ((self.partition as u64) << 48) | ((self.in_delta as u64) << 47) | self.rpos
    }
}

impl Table {
    /// Executes a query against a fresh snapshot and returns the
    /// [`payg_obs::ScanProfile`] of the work it caused, measured as the
    /// registry delta around execution (every layer under this table —
    /// datavec iterators, buffer pool, columns — reports into the table's
    /// registry). The profile is exact when no other work drives the same
    /// registry concurrently.
    pub fn execute_profiled(
        &self,
        q: &Query,
    ) -> TableResult<(QueryResult, payg_obs::ScanProfile)> {
        let session = self.session()?;
        let before = payg_obs::ObsSnapshot::collect(self.registry());
        let started = std::time::Instant::now();
        // Flight recorder: the whole execution runs under one query span,
        // so page-wait / io-batch / chunk-dispatch children parent to it.
        let span = self.registry().tracer().span(payg_obs::SpanKind::Query, 0);
        let result = session.execute(q)?;
        drop(span);
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let after = payg_obs::ObsSnapshot::collect(self.registry());
        let counters = payg_obs::ObsSnapshot::delta(&after, &before);
        let mut profile = payg_obs::ScanProfile::from_delta(&counters);
        profile.elapsed_ns = elapsed_ns;
        Ok((result, profile))
    }

    /// [`Snapshot::scan_plan`] on a fresh snapshot.
    pub fn scan_plan(&self, q: &Query) -> TableResult<Vec<ScanPath>> {
        self.session()?.scan_plan(q)
    }

    /// Executes a query on a fresh snapshot (one coherent table version).
    pub fn execute(&self, q: &Query) -> TableResult<QueryResult> {
        self.session()?.execute(q)
    }
}

impl Snapshot<'_> {
    /// The scan strategy `q`'s filter resolves to on each partition's main
    /// fragment: [`ScanPath::CompressedDomain`] where the index
    /// probe seeks compressed postings (`next_geq` over Elias-Fano
    /// partitions), [`ScanPath::DecodeThenScan`] otherwise (resident
    /// columns, unindexed columns, range shapes, no filter). Purely
    /// informational — [`Snapshot::execute`] takes the same path; this
    /// surfaces it for tests and benches.
    pub fn scan_plan(&self, q: &Query) -> TableResult<Vec<ScanPath>> {
        let Some((name, pred)) = &q.filter else {
            return Ok(vec![ScanPath::DecodeThenScan; self.partitions().len()]);
        };
        let col = self.schema().column_index(name)?;
        Ok(self
            .partitions()
            .iter()
            .map(|p| p.main_frag().column(col).scan_path(pred))
            .collect())
    }

    /// Executes a query against this snapshot's pinned version.
    pub fn execute(&self, q: &Query) -> TableResult<QueryResult> {
        // COUNT avoids materializing row positions when the inverted index's
        // directory can answer directly (Alg. 5's counting shortcut).
        if matches!(q.projection, Projection::Count) {
            return Ok(QueryResult::Count(self.count(&q.filter)?));
        }
        if q.filter.is_none() {
            if let Projection::Min(name) | Projection::Max(name) = &q.projection {
                let want_max = matches!(&q.projection, Projection::Max(_));
                return Ok(QueryResult::Extreme(self.extreme_unfiltered(name, want_max)?));
            }
            if let Projection::Distinct(name) = &q.projection {
                return Ok(QueryResult::Rows(self.distinct_unfiltered(name)?));
            }
        }
        let addrs = self.matching_rows(&q.filter)?;
        match &q.projection {
            Projection::Count => unreachable!("handled above"),
            Projection::RowIds => {
                Ok(QueryResult::RowIds(addrs.iter().map(|a| a.row_id()).collect()))
            }
            Projection::All => {
                let cols: Vec<usize> = (0..self.schema().arity()).collect();
                Ok(QueryResult::Rows(self.project(&addrs, &cols)?))
            }
            Projection::Columns(names) => {
                let cols: Vec<usize> = names
                    .iter()
                    .map(|n| self.schema().column_index(n))
                    .collect::<TableResult<_>>()?;
                Ok(QueryResult::Rows(self.project(&addrs, &cols)?))
            }
            // Aggregates fold over (value, count) pairs in the vid domain:
            // each distinct value of a main fragment is decoded once, never
            // one `Value` per row.
            Projection::Sum(name) => {
                let col = self.schema().column_index(name)?;
                let mut acc = SumAcc::new(self.schema().columns()[col].data_type)?;
                self.for_each_segment(&addrs, col, |segment| match segment {
                    Segment::Main(column, rposs) => column
                        .value_counts(rposs)?
                        .iter()
                        .try_for_each(|(v, count)| acc.add(v, *count)),
                    Segment::Delta(v) => acc.add(&v, 1),
                })?;
                Ok(QueryResult::Sum(acc.finish()))
            }
            Projection::Distinct(name) => {
                let col = self.schema().column_index(name)?;
                let mut keys: Vec<(Vec<u8>, Value)> = Vec::new();
                self.for_each_segment(&addrs, col, |segment| {
                    match segment {
                        Segment::Main(column, rposs) => {
                            keys.extend(main_distinct(column, rposs)?.into_iter().map(keyed))
                        }
                        Segment::Delta(v) => keys.push(keyed(v)),
                    }
                    Ok(())
                })?;
                keys.sort_by(|a, b| a.0.cmp(&b.0));
                keys.dedup_by(|a, b| a.0 == b.0);
                Ok(QueryResult::Rows(keys.into_iter().map(|(_, v)| vec![v]).collect()))
            }
            Projection::Min(name) | Projection::Max(name) => {
                let col = self.schema().column_index(name)?;
                let mut best = Extreme::new(matches!(&q.projection, Projection::Max(_)));
                self.for_each_segment(&addrs, col, |segment| {
                    match segment {
                        Segment::Main(column, rposs) => best.offer_main(column, rposs)?,
                        Segment::Delta(v) => best.offer(v),
                    }
                    Ok(())
                })?;
                Ok(QueryResult::Extreme(best.finish()))
            }
        }
    }

    /// `SELECT MIN/MAX(col)` without a filter: answered from the
    /// order-preserving dictionaries in O(partitions) — the dictionary's
    /// first/last key is the fragment's extreme — plus a delta scan.
    fn extreme_unfiltered(&self, name: &str, want_max: bool) -> TableResult<Option<Value>> {
        let col = self.schema().column_index(name)?;
        let mut best = Extreme::new(want_max);
        for p in self.partitions() {
            let main = p.main_frag();
            let c = main.column(col);
            // Deleted rows may hide the extreme: fall back to the visible
            // rows' identifiers (rare; only between a delete and its merge).
            if main.visible_rows() != main.rows() {
                let vis: Vec<u64> = (0..main.rows()).filter(|&r| main.is_visible(r)).collect();
                best.offer_main(c, &vis)?;
            } else if main.rows() > 0 {
                best.offer_vid(c, if want_max { c.cardinality() - 1 } else { 0 })?;
            }
            let delta = p.delta_view();
            for rpos in 0..delta.rows() {
                if delta.is_visible(rpos) {
                    best.offer(delta.value(rpos, col, self.schema())?);
                }
            }
        }
        Ok(best.finish())
    }

    /// Counts visible matching rows, using the index-directory shortcut
    /// for fragments without deleted rows.
    fn count(&self, filter: &Option<(String, ValuePredicate)>) -> TableResult<u64> {
        let Some((name, pred)) = filter else {
            return Ok(self.visible_rows());
        };
        let col = self.schema().column_index(name)?;
        let mut n = 0u64;
        for p in self.partitions() {
            if !p.spec().range.may_match_on(col, self.schema().partition_column(), pred) {
                continue;
            }
            let main = p.main_frag();
            if main.visible_rows() == main.rows() {
                n += main.column(col).count_rows(pred, 0, main.rows())?;
            } else {
                n += main.find_rows(col, pred)?.len() as u64;
            }
            n += p.delta_view().find_rows(col, pred, self.schema())?.len() as u64;
        }
        Ok(n)
    }

    /// `SELECT DISTINCT col` without a filter: the union of the (merged)
    /// dictionaries plus the delta's distinct values — no data-vector pages.
    fn distinct_unfiltered(&self, name: &str) -> TableResult<Vec<Row>> {
        let col = self.schema().column_index(name)?;
        let ty = self.schema().columns()[col].data_type;
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for p in self.partitions() {
            let main = p.main_frag();
            if main.visible_rows() != main.rows() {
                // Deleted rows can orphan dictionary entries: take the
                // visible rows' distinct identifiers.
                let vis: Vec<u64> = (0..main.rows()).filter(|&r| main.is_visible(r)).collect();
                for v in main_distinct(main.column(col), &vis)? {
                    keys.push(v.to_key());
                }
            } else {
                let c = main.column(col);
                for vid in 0..payg_core::column::ColumnRead::cardinality(c) {
                    keys.push(payg_core::column::ColumnRead::key_by_vid(c, vid)?);
                }
            }
            let delta = p.delta_view();
            for rpos in 0..delta.rows() {
                if delta.is_visible(rpos) {
                    keys.push(delta.value(rpos, col, self.schema())?.to_key());
                }
            }
        }
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|k| Ok(vec![Value::from_key(ty, &k).map_err(TableError::Core)?]))
            .collect()
    }

    /// Addresses of visible rows matching the filter, partition by
    /// partition (partitions pruned when the filter is on the partition
    /// column), main fragment before delta within each partition.
    fn matching_rows(
        &self,
        filter: &Option<(String, ValuePredicate)>,
    ) -> TableResult<Vec<RowAddr>> {
        let mut addrs = Vec::new();
        match filter {
            Some((name, pred)) => {
                let col = self.schema().column_index(name)?;
                for (pi, p) in self.partitions().iter().enumerate() {
                    if !p.spec().range.may_match_on(col, self.schema().partition_column(), pred) {
                        continue;
                    }
                    for rpos in p.main_frag().find_rows(col, pred)? {
                        addrs.push(RowAddr { partition: pi, in_delta: false, rpos });
                    }
                    for rpos in p.delta_view().find_rows(col, pred, self.schema())? {
                        addrs.push(RowAddr { partition: pi, in_delta: true, rpos });
                    }
                }
            }
            None => {
                for (pi, p) in self.partitions().iter().enumerate() {
                    let main = p.main_frag();
                    for rpos in 0..main.rows() {
                        if main.is_visible(rpos) {
                            addrs.push(RowAddr { partition: pi, in_delta: false, rpos });
                        }
                    }
                    let delta = p.delta_view();
                    for rpos in 0..delta.rows() {
                        if delta.is_visible(rpos) {
                            addrs.push(RowAddr { partition: pi, in_delta: true, rpos });
                        }
                    }
                }
            }
        }
        Ok(addrs)
    }

    /// Late materialization of the columns `cols` (schema indices, resolved
    /// once by the caller): each partition's main-fragment rows go through
    /// one [`payg_core::column::materialize`] call covering *all* projected
    /// columns, so their page accesses are planned and pinned phase by phase
    /// rather than column by column; delta rows are read in place.
    fn project(&self, addrs: &[RowAddr], cols: &[usize]) -> TableResult<Vec<Row>> {
        let mut rows: Vec<Row> = vec![Vec::with_capacity(cols.len()); addrs.len()];
        // One pass: the output slots of every partition's main fragment.
        let mut main_slots: Vec<Vec<usize>> = vec![Vec::new(); self.partitions().len()];
        for (i, addr) in addrs.iter().enumerate() {
            if addr.in_delta {
                let delta = self.partitions()[addr.partition].delta_view();
                for &c in cols {
                    rows[i].push(delta.value(addr.rpos, c, self.schema())?);
                }
            } else {
                main_slots[addr.partition].push(i);
            }
        }
        for (p, slots) in self.partitions().iter().zip(&main_slots) {
            if slots.is_empty() {
                continue;
            }
            let rposs: Vec<u64> = slots.iter().map(|&i| addrs[i].rpos).collect();
            let columns: Vec<&payg_core::Column> =
                cols.iter().map(|&c| p.main_frag().column(c)).collect();
            for values in payg_core::column::materialize(&columns, &rposs)? {
                for (&slot, v) in slots.iter().zip(values) {
                    rows[slot].push(v);
                }
            }
        }
        Ok(rows)
    }

    /// Walks `addrs` as what an aggregate over column `col` folds: every run
    /// of main-fragment rows of one partition (all of them, as
    /// [`Self::matching_rows`] orders addresses) is one [`Segment::Main`] —
    /// the column and the run's row positions, to be reduced in the vid
    /// domain — and every delta row is read in place as a
    /// [`Segment::Delta`] value.
    fn for_each_segment(
        &self,
        addrs: &[RowAddr],
        col: usize,
        mut f: impl FnMut(Segment<'_>) -> TableResult<()>,
    ) -> TableResult<()> {
        let mut rest = addrs;
        while let Some(&a) = rest.first() {
            let p = &self.partitions()[a.partition];
            if a.in_delta {
                f(Segment::Delta(p.delta_view().value(a.rpos, col, self.schema())?))?;
                rest = &rest[1..];
                continue;
            }
            let run = rest.iter().take_while(|b| !b.in_delta && b.partition == a.partition).count();
            let rposs: Vec<u64> = rest[..run].iter().map(|b| b.rpos).collect();
            f(Segment::Main(p.main_frag().column(col), &rposs))?;
            rest = &rest[run..];
        }
        Ok(())
    }
}

/// One piece of an aggregate's input (see [`Snapshot::for_each_segment`]).
enum Segment<'a> {
    /// Rows of one main fragment's column.
    Main(&'a payg_core::Column, &'a [u64]),
    /// The value of one delta row.
    Delta(Value),
}

/// The distinct values of `column` at `rposs`, ascending: the rows'
/// distinct identifiers, each decoded once.
fn main_distinct(column: &payg_core::Column, rposs: &[u64]) -> TableResult<Vec<Value>> {
    let vids: Vec<u64> = column.vid_counts(rposs)?.into_iter().map(|(vid, _)| vid).collect();
    Ok(column.values_by_vid(&vids)?)
}

/// A value with its order-preserving key, for comparing across fragments.
fn keyed(v: Value) -> (Vec<u8>, Value) {
    (v.to_key(), v)
}

/// `MIN` / `MAX` accumulator: the best value offered so far, by key order.
struct Extreme {
    want_max: bool,
    best: Option<(Vec<u8>, Value)>,
}

impl Extreme {
    fn new(want_max: bool) -> Self {
        Extreme { want_max, best: None }
    }

    fn offer(&mut self, v: Value) {
        let (k, v) = keyed(v);
        let replace = match &self.best {
            None => true,
            Some((bk, _)) => (&k > bk) == self.want_max,
        };
        if replace {
            self.best = Some((k, v));
        }
    }

    /// Offers the extreme of `column` over `rposs`: the dictionary preserves
    /// order, so it is the first / last distinct identifier of the rows, and
    /// only that one is decoded.
    fn offer_main(&mut self, column: &payg_core::Column, rposs: &[u64]) -> TableResult<()> {
        let counts = column.vid_counts(rposs)?;
        match if self.want_max { counts.last() } else { counts.first() } {
            Some(&(vid, _)) => self.offer_vid(column, vid),
            None => Ok(()),
        }
    }

    /// Offers the one value `vid` encodes in `column`.
    fn offer_vid(&mut self, column: &payg_core::Column, vid: u64) -> TableResult<()> {
        self.offer(column.values_by_vid(&[vid])?.remove(0));
        Ok(())
    }

    fn finish(self) -> Option<Value> {
        self.best.map(|(_, v)| v)
    }
}

/// Typed sum accumulator.
enum SumAcc {
    Int(i128),
    Dec(i128),
    Dbl(f64),
}

impl SumAcc {
    fn new(ty: DataType) -> TableResult<Self> {
        Ok(match ty {
            DataType::Integer => SumAcc::Int(0),
            DataType::Decimal => SumAcc::Dec(0),
            DataType::Double => SumAcc::Dbl(0.0),
            DataType::Varchar => {
                return Err(TableError::Invalid("SUM over a VARCHAR column".into()))
            }
        })
    }

    /// Adds `count` occurrences of `v`.
    fn add(&mut self, v: &Value, count: u64) -> TableResult<()> {
        let exact = |acc: &i128, x: i128| {
            x.checked_mul(i128::from(count))
                .and_then(|product| acc.checked_add(product))
                .ok_or_else(|| TableError::Invalid("SUM overflows its 128-bit accumulator".into()))
        };
        match (self, v) {
            (SumAcc::Int(a), Value::Integer(x)) => *a = exact(a, i128::from(*x))?,
            (SumAcc::Dec(a), Value::Decimal(x)) => *a = exact(a, *x)?,
            (SumAcc::Dbl(a), Value::Double(x)) => *a += x * count as f64,
            _ => unreachable!("sum accumulator type checked at construction"),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            SumAcc::Int(a) => i64::try_from(a)
                .map(Value::Integer)
                // An integer sum beyond i64 widens to DECIMAL (scale 2).
                .unwrap_or(Value::Decimal(a.saturating_mul(100))),
            SumAcc::Dec(a) => Value::Decimal(a),
            SumAcc::Dbl(a) => Value::Double(a),
        }
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
                Value::Varchar(format!("region-{}", i % 5)),
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
                Value::Varchar(format!("region-{}", i % 5)),
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
    fn scan_plan_reports_compressed_domain_per_codec() {
        // An indexed column under the default config carries PEF postings:
        // point and set probes run in the compressed domain, ranges decode.
        let schema = Schema::new(vec![
            ColumnSpec::indexed("id", DataType::Integer),
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
        for i in 0..500i64 {
            t.insert(vec![Value::Integer(i), Value::Varchar(format!("r-{}", i % 7))]).unwrap();
        }
        t.delta_merge_all().unwrap();
        let point = Query::filtered("id", ValuePredicate::Eq(Value::Integer(7)), Projection::Count);
        assert_eq!(t.scan_plan(&point).unwrap(), vec![ScanPath::CompressedDomain]);
        let set = Query::filtered(
            "id",
            ValuePredicate::In(vec![Value::Integer(3), Value::Integer(11)]),
            Projection::Count,
        );
        assert_eq!(t.scan_plan(&set).unwrap(), vec![ScanPath::CompressedDomain]);
        let range = Query::filtered(
            "id",
            ValuePredicate::Between(Value::Integer(3), Value::Integer(9)),
            Projection::Count,
        );
        assert_eq!(t.scan_plan(&range).unwrap(), vec![ScanPath::DecodeThenScan]);
        // Unindexed columns and missing filters always decode-then-scan.
        let unindexed = Query::filtered(
            "region",
            ValuePredicate::Eq(Value::Varchar("r-1".into())),
            Projection::Count,
        );
        assert_eq!(t.scan_plan(&unindexed).unwrap(), vec![ScanPath::DecodeThenScan]);
        let full = Query::full(Projection::Count);
        assert_eq!(t.scan_plan(&full).unwrap(), vec![ScanPath::DecodeThenScan]);
    }

    #[test]
    fn compressed_domain_execution_matches_decode_then_scan() {
        // Same rows through an indexed table and one that scans its data
        // vector: every query shape returns identical results, while the
        // plans differ on point probes.
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
                t.insert(vec![Value::Integer(i % 50), Value::Varchar(format!("r-{}", i % 3))])
                    .unwrap();
            }
            t.delta_merge_all().unwrap();
            t
        };
        let (seek, scan) = (build(true), build(false));
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
        assert_eq!(t_plan(&seek, &queries[0]), ScanPath::CompressedDomain);
        assert_eq!(t_plan(&scan, &queries[0]), ScanPath::DecodeThenScan);
        for q in &queries {
            assert_eq!(seek.execute(q).unwrap(), scan.execute(q).unwrap());
        }
    }

    fn t_plan(t: &Table, q: &Query) -> ScanPath {
        t.scan_plan(q).unwrap()[0]
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
        }
    }

    #[test]
    fn unfiltered_scan_sees_everything_visible() {
        let t = table(LoadPolicy::PageLoadable);
        assert_eq!(t.execute(&Query::full(Projection::Count)).unwrap().count(), 320);
    }

    #[test]
    fn execute_profiled_reports_scan_work() {
        let t = table(LoadPolicy::PageLoadable);
        let q = Query::filtered(
            "region",
            ValuePredicate::Eq(Value::Varchar("region-1".into())),
            Projection::Count,
        );
        let (result, profile) = t.execute_profiled(&q).unwrap();
        assert_eq!(result.count(), 64);
        assert!(profile.chunks_scanned > 0, "paged scan evaluated chunks: {profile:?}");
        assert!(profile.elapsed_ns > 0);
        // The same result again is warm: no new cold loads.
        let (result2, profile2) = t.execute_profiled(&q).unwrap();
        assert_eq!(result2.count(), 64);
        assert_eq!(profile2.cold_loads, 0, "second run is warm: {profile2:?}");
        assert!(profile2.warm_hits > 0);
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
                Value::Varchar(format!("n-{:03}", (i * 13) % 97)),
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

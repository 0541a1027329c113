//! The read-optimized main fragment.
//!
//! Built by delta merge and immutable until the next one (§2). Holds one
//! [`payg_core::column::Column`] per schema column — fully resident or page
//! loadable depending on the owning partition's load policy — plus a
//! deleted-row bitmap: deletes (e.g. rows aged out to a cold partition) only
//! flip visibility; the rows physically disappear at the next delta merge.
//!
//! The deleted bitmap is interior-mutable (`RwLock`): fragments are shared
//! across table versions by the serving layer, and row deletes are
//! read-committed — they flip visibility in every version holding the
//! fragment, while structural changes go through version publication.

use crate::bitmap::RowBitmap;
use crate::schema::{Row, Schema};
use crate::{TableError, TableResult};
use payg_core::column::{Column, ColumnRead};
use payg_core::{ColumnBuilder, EncodedRows, KeyPredicate, LoadPolicy, PageConfig, Rows};
use payg_obs::SpanKind;
use payg_resman::Disposition;
use payg_storage::{BufferPool, ChainId};
use std::sync::{RwLock, RwLockReadGuard};

/// The main fragment of one partition.
pub struct MainFragment {
    columns: Vec<Column>,
    rows: u64,
    deleted: RwLock<RowBitmap>,
}

impl MainFragment {
    /// Builds a main fragment of `rows` rows one column at a time (the
    /// delta-merge output path): `encoded_of(c)` reads column `c`'s rows in
    /// row order in the encoded domain — a sorted dictionary of exactly the
    /// keys they use, and one identifier per row — the column is persisted
    /// and constructed per `policy`, and its rows are dropped before the
    /// next column is read. Each column is one `merge-column` span.
    ///
    /// Crash-safe: when reading or building any column fails (storage
    /// fault, budget, corruption), the page chains of the columns already
    /// built are discarded from the pool and the store before the error
    /// propagates — an aborted merge leaves nothing behind.
    pub fn build(
        pool: &BufferPool,
        config: &PageConfig,
        schema: &Schema,
        rows: u64,
        mut encoded_of: impl FnMut(usize) -> TableResult<EncodedRows>,
        policy: LoadPolicy,
        disposition: Disposition,
    ) -> TableResult<Self> {
        let mut columns: Vec<Column> = Vec::with_capacity(schema.arity());
        for (c, spec) in schema.columns().iter().enumerate() {
            let _span = pool.registry().tracer().span(SpanKind::MergeColumn, c as u64);
            let built = encoded_of(c).and_then(|encoded| {
                if encoded.vids().len() as u64 != rows {
                    return Err(TableError::Invalid(format!(
                        "column {c}: {} values for {rows} rows",
                        encoded.vids().len()
                    )));
                }
                Ok(ColumnBuilder::new(spec.data_type)
                    .policy(spec.load_policy.unwrap_or(policy))
                    .with_index(spec.with_index)
                    .resident_disposition(disposition)
                    .build_encoded(pool, config, &encoded)?)
            });
            match built {
                Ok(b) => columns.push(b.column),
                Err(e) => {
                    // Sibling columns of the failed read or build are
                    // side-built state nothing references yet: reclaim
                    // their chains.
                    for col in &columns {
                        for (_, chain) in col.chains() {
                            pool.discard_chain(ChainId(chain));
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(MainFragment { columns, rows, deleted: RwLock::new(RowBitmap::new()) })
    }

    /// Reassembles a fragment from reopened columns (catalog restore).
    /// Checkpoints require merged fragments, so the deleted bitmap is empty.
    pub(crate) fn from_columns(columns: Vec<Column>, rows: u64) -> Self {
        MainFragment { columns, rows, deleted: RwLock::new(RowBitmap::new()) }
    }

    fn deleted(&self) -> RwLockReadGuard<'_, RowBitmap> {
        match self.deleted.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Total rows (including deleted).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Visible rows.
    pub fn visible_rows(&self) -> u64 {
        self.rows - self.deleted().count()
    }

    /// The columns (schema order).
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The ids of every page chain the columns own.
    pub(crate) fn chains(&self) -> Vec<u64> {
        self.columns.iter().flat_map(|c| c.chains().into_iter().map(|(_, id)| id)).collect()
    }

    /// One column.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Marks a row deleted. `&self`: visibility is shared by every table
    /// version holding this fragment (read-committed deletes).
    pub fn delete(&self, rpos: u64) {
        debug_assert!(rpos < self.rows);
        match self.deleted.write() {
            Ok(mut g) => g.set(rpos),
            Err(p) => p.into_inner().set(rpos),
        }
    }

    /// Materializes the rows at `rposs` (any order), in that order: one
    /// phased late materialization over every column, a point read being
    /// the one-row case.
    pub fn rows_at(&self, rposs: &[u64]) -> TableResult<Vec<Row>> {
        let which: Vec<usize> = (0..self.columns.len()).collect();
        let mut rows = Rows::new(which.len(), rposs.len());
        payg_core::column::materialize(&self.columns, &which, rposs, &mut rows)?;
        Ok(rows.into_rows())
    }

    /// The visible row positions, ascending.
    pub(crate) fn visible_positions(&self) -> Vec<u64> {
        let deleted = self.deleted();
        (0..self.rows).filter(|&r| !deleted.get(r)).collect()
    }

    /// Visible row positions matching `pred` on `col`, ascending.
    pub fn find_rows(&self, col: usize, pred: &KeyPredicate) -> TableResult<Vec<u64>> {
        let mut rows = self.columns[col].find_key_rows(pred, 0, self.rows)?;
        let deleted = self.deleted();
        if !deleted.is_empty() {
            rows.retain(|&r| !deleted.get(r));
        }
        Ok(rows)
    }

    /// Unloads all fully-resident columns (cold restart simulation).
    pub fn unload(&self) {
        for c in &self.columns {
            c.unload();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSpec;
    use payg_core::{DataType, Value, ValuePredicate};
    use payg_resman::ResourceManager;
    use payg_storage::{MemStore, PageStore};
    use std::sync::Arc;

    fn setup(policy: LoadPolicy) -> (Schema, MainFragment) {
        let schema = Schema::new(vec![
            ColumnSpec::indexed("id", DataType::Integer),
            ColumnSpec::new("grade", DataType::Varchar),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Varchar(format!("grade-{}", i % 7).into()),
                ]
            })
            .collect();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let main = MainFragment::build(
            &pool,
            &PageConfig::tiny(),
            &schema,
            rows.len() as u64,
            |c| {
                let values: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                Ok(EncodedRows::encode(schema.columns()[c].data_type, &values)?)
            },
            policy,
            Disposition::MidTerm,
        )
        .unwrap();
        (schema, main)
    }

    #[test]
    fn build_and_read_both_policies() {
        for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
            let (_, main) = setup(policy);
            assert_eq!(main.rows(), 200);
            assert_eq!(
                main.rows_at(&[13, 7, 13]).unwrap(),
                vec![
                    vec![Value::Integer(13), Value::Varchar("grade-6".into())],
                    vec![Value::Integer(7), Value::Varchar("grade-0".into())],
                    vec![Value::Integer(13), Value::Varchar("grade-6".into())],
                ]
            );
            assert!(main.rows_at(&[]).unwrap().is_empty());
        }
    }

    #[test]
    fn deletes_hide_rows_from_scans() {
        let (_, main) = setup(LoadPolicy::PageLoadable);
        let pred = ValuePredicate::Eq(Value::Varchar("grade-3".into()));
        let pred = KeyPredicate::compile(&pred, DataType::Varchar).unwrap();
        let before = main.find_rows(1, &pred).unwrap();
        assert!(before.contains(&3));
        main.delete(3);
        let after = main.find_rows(1, &pred).unwrap();
        assert!(!after.contains(&3));
        assert_eq!(after.len(), before.len() - 1);
        assert_eq!(main.visible_rows(), 199);
        assert!(!main.visible_positions().contains(&3));
    }

    /// A read of a later column that fails, or returns the wrong number of
    /// rows (`Invalid`), reclaims the chains of the columns already built.
    #[test]
    fn a_failed_column_read_reclaims_the_columns_already_built() {
        let schema = Schema::new(vec![
            ColumnSpec::indexed("id", DataType::Integer),
            ColumnSpec::new("grade", DataType::Varchar),
        ])
        .unwrap();
        let second_reads: [fn() -> TableResult<EncodedRows>; 2] = [
            || Err(TableError::Invalid("read failed".into())),
            || Ok(EncodedRows::encode(DataType::Varchar, &[Value::Varchar("short".into())])?),
        ];
        for second in second_reads {
            let store = Arc::new(MemStore::new());
            let pool = BufferPool::new(store.clone(), ResourceManager::new());
            let built = MainFragment::build(
                &pool,
                &PageConfig::tiny(),
                &schema,
                3,
                |c| match c {
                    0 => {
                        let ids: Vec<Value> = (0..3).map(Value::Integer).collect();
                        Ok(EncodedRows::encode(DataType::Integer, &ids)?)
                    }
                    _ => second(),
                },
                LoadPolicy::PageLoadable,
                Disposition::MidTerm,
            );
            assert!(matches!(built, Err(TableError::Invalid(_))));
            assert!(store.chains().is_empty(), "column 0's chains leaked");
        }
    }

    #[test]
    fn visible_positions_skip_deleted_rows() {
        let (_, main) = setup(LoadPolicy::FullyResident);
        main.delete(0);
        main.delete(199);
        let rows = main.rows_at(&main.visible_positions()).unwrap();
        assert_eq!(rows.len(), 198);
        assert_eq!(rows[0][0], Value::Integer(1));
        assert_eq!(rows[197][0], Value::Integer(198));
    }
}

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
use crate::TableResult;
use payg_core::column::{Column, ColumnRead};
use payg_core::{ColumnBuilder, LoadPolicy, PageConfig, Value, ValuePredicate};
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
    /// Builds a main fragment from materialized rows (the delta-merge
    /// output path). Columns are persisted and constructed per `policy`.
    ///
    /// Crash-safe: when any column build fails (storage fault, budget,
    /// corruption), the page chains of the columns already built are
    /// discarded from the pool and the store before the error propagates —
    /// an aborted merge leaves nothing behind.
    pub fn build(
        pool: &BufferPool,
        config: &PageConfig,
        schema: &Schema,
        rows: &[Row],
        policy: LoadPolicy,
        disposition: Disposition,
    ) -> TableResult<Self> {
        let mut columns = Vec::with_capacity(schema.arity());
        for (c, spec) in schema.columns().iter().enumerate() {
            let values: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            let built = ColumnBuilder::new(spec.data_type)
                .policy(spec.load_policy.unwrap_or(policy))
                .with_index(spec.with_index)
                .resident_disposition(disposition)
                .build(pool, config, &values);
            match built {
                Ok(b) => columns.push(b.column),
                Err(e) => {
                    // Sibling columns of the failed build are side-built
                    // state nothing references yet: reclaim their chains.
                    for col in &columns {
                        for (_, chain) in col.chains() {
                            pool.discard_chain(ChainId(chain));
                        }
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(MainFragment {
            columns,
            rows: rows.len() as u64,
            deleted: RwLock::new(RowBitmap::new()),
        })
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

    /// True when `rpos` is visible.
    pub fn is_visible(&self, rpos: u64) -> bool {
        !self.deleted().get(rpos)
    }

    /// Materializes the rows at `rposs` (any order), in that order: one
    /// late materialization per column, a point read being the one-row
    /// case. Column by column, so a caller reading every row (a merge)
    /// holds one column's values besides the rows, not all of them.
    pub fn rows_at(&self, rposs: &[u64]) -> TableResult<Vec<Row>> {
        let mut rows: Vec<Row> = vec![Vec::with_capacity(self.columns.len()); rposs.len()];
        for col in &self.columns {
            for (row, v) in rows.iter_mut().zip(col.get_values(rposs)?) {
                row.push(v);
            }
        }
        Ok(rows)
    }

    /// The visible row positions, ascending.
    pub(crate) fn visible_positions(&self) -> Vec<u64> {
        let deleted = self.deleted();
        (0..self.rows).filter(|&r| !deleted.get(r)).collect()
    }

    /// Visible row positions matching `pred` on `col`, ascending.
    pub fn find_rows(&self, col: usize, pred: &ValuePredicate) -> TableResult<Vec<u64>> {
        let mut rows = self.columns[col].find_rows(pred, 0, self.rows)?;
        let deleted = self.deleted();
        if !deleted.is_empty() {
            rows.retain(|&r| !deleted.get(r));
        }
        Ok(rows)
    }

    /// Materializes every visible row (the delta-merge input path).
    pub fn visible_row_values(&self) -> TableResult<Vec<Row>> {
        self.rows_at(&self.visible_positions())
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
    use payg_core::DataType;
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;
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
                    Value::Varchar(format!("grade-{}", i % 7)),
                ]
            })
            .collect();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let main = MainFragment::build(
            &pool,
            &PageConfig::tiny(),
            &schema,
            &rows,
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
        let before = main.find_rows(1, &pred).unwrap();
        assert!(before.contains(&3));
        main.delete(3);
        let after = main.find_rows(1, &pred).unwrap();
        assert!(!after.contains(&3));
        assert_eq!(after.len(), before.len() - 1);
        assert_eq!(main.visible_rows(), 199);
        assert!(!main.is_visible(3));
    }

    #[test]
    fn visible_row_values_roundtrip() {
        let (_, main) = setup(LoadPolicy::FullyResident);
        main.delete(0);
        main.delete(199);
        let rows = main.visible_row_values().unwrap();
        assert_eq!(rows.len(), 198);
        assert_eq!(rows[0][0], Value::Integer(1));
        assert_eq!(rows[197][0], Value::Integer(198));
    }
}

//! Observability: per-table / per-partition / per-column statistics.
//!
//! The paper's evaluation turns on exactly these numbers — rows per
//! fragment, storage mode per column, dictionary cardinalities — so the
//! engine exposes them as a first-class snapshot (HANA surfaces the same
//! through its monitoring views).

use crate::table::Table;
use payg_core::column::ColumnRead;
use payg_core::{DataType, LoadPolicy};

/// Statistics of one column within a partition's main fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Value type.
    pub data_type: DataType,
    /// Storage mode actually in effect.
    pub load_policy: LoadPolicy,
    /// Distinct values in the main fragment.
    pub cardinality: u64,
    /// Whether the column has an inverted index (fixed when its merge
    /// built it).
    pub has_index: bool,
}

/// Statistics of one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStats {
    /// Partition name.
    pub name: String,
    /// The partition's default load policy.
    pub load_policy: LoadPolicy,
    /// Rows in the main fragment (including deleted).
    pub main_rows: u64,
    /// Rows hidden by pending deletions (gone at the next merge).
    pub main_deleted: u64,
    /// Visible rows in the delta fragment.
    pub delta_rows: u64,
    /// Heap bytes of the (always-resident) delta fragment.
    pub delta_bytes: usize,
    /// Per-column statistics.
    pub columns: Vec<ColumnStats>,
}

/// A point-in-time snapshot of a table's layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// Visible rows across all partitions and fragments.
    pub visible_rows: u64,
    /// Per-partition statistics.
    pub partitions: Vec<PartitionStats>,
}

impl Table {
    /// Collects a statistics snapshot. Cheap: no pages load (all numbers
    /// come from metadata and the resident delta). One pinned version: the
    /// numbers are internally consistent even during a merge.
    pub fn table_stats(&self) -> TableStats {
        let parts = self.partitions();
        let visible_rows = parts.iter().map(|p| p.visible_rows()).sum();
        let partitions = parts
            .iter()
            .map(|p| PartitionStats {
                name: p.spec().name.clone(),
                load_policy: p.spec().load_policy,
                main_rows: p.main_frag().rows(),
                main_deleted: p.main_frag().rows() - p.main_frag().visible_rows(),
                delta_rows: p.delta_view().visible_rows(),
                delta_bytes: p.delta_view().heap_bytes(),
                columns: self
                    .schema()
                    .columns()
                    .iter()
                    .zip(p.main_frag().columns())
                    .map(|(spec, col)| ColumnStats {
                        name: spec.name.clone(),
                        data_type: spec.data_type,
                        load_policy: col.policy(),
                        cardinality: col.cardinality(),
                        has_index: col.has_index(),
                    })
                    .collect(),
            })
            .collect();
        TableStats { visible_rows, partitions }
    }
}

impl std::fmt::Display for TableStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "table: {} visible rows, {} partition(s)", self.visible_rows, self.partitions.len())?;
        for p in &self.partitions {
            writeln!(
                f,
                "  partition {:10} [{}] main {} rows ({} deleted), delta {} rows ({} B)",
                p.name,
                match p.load_policy {
                    LoadPolicy::FullyResident => "resident",
                    LoadPolicy::PageLoadable => "paged",
                },
                p.main_rows,
                p.main_deleted,
                p.delta_rows,
                p.delta_bytes,
            )?;
            for c in &p.columns {
                writeln!(
                    f,
                    "    {:24} {:8} {:8} card {:8}{}",
                    c.name,
                    format!("{:?}", c.data_type),
                    match c.load_policy {
                        LoadPolicy::FullyResident => "resident",
                        LoadPolicy::PageLoadable => "paged",
                    },
                    c.cardinality,
                    if c.has_index { "  [indexed]" } else { "" },
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionRange, PartitionSpec};
    use crate::schema::{ColumnSpec, Schema};
    use payg_core::{PageConfig, Value, ValuePredicate};
    use payg_resman::ResourceManager;
    use payg_storage::{BufferPool, MemStore};
    use std::sync::Arc;

    #[test]
    fn stats_reflect_fragments_policies_and_dml() {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("temp", DataType::Integer),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
        .with_partition_column("temp")
        .unwrap();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema,
            vec![
                PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(10))),
                PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(10))),
            ],
        )
        .unwrap();
        for i in 0..100i64 {
            t.insert(vec![Value::Integer(i), Value::Integer(50)]).unwrap();
        }
        t.delta_merge_all().unwrap();
        let s = t.table_stats();
        assert_eq!(s.visible_rows, 100);
        assert_eq!(s.partitions[0].main_rows, 100);
        assert_eq!(s.partitions[0].main_deleted, 0);
        assert_eq!(s.partitions[0].columns[0].cardinality, 100);
        assert!(s.partitions[0].columns[0].has_index, "pk column indexed");
        assert!(!s.partitions[0].columns[1].has_index);
        assert_eq!(s.partitions[1].main_rows, 0);
        assert_eq!(s.partitions[1].load_policy, LoadPolicy::PageLoadable);

        // DML shows up as deletions + delta rows until the next merge.
        t.update_rows(
            "id",
            &ValuePredicate::Between(Value::Integer(0), Value::Integer(9)),
            "temp",
            &Value::Integer(1),
        )
        .unwrap();
        let s = t.table_stats();
        assert_eq!(s.partitions[0].main_deleted, 10);
        assert_eq!(s.partitions[1].delta_rows, 10);
        assert!(s.partitions[1].delta_bytes > 0);
        assert_eq!(s.visible_rows, 100);
        t.delta_merge_all().unwrap();
        let s = t.table_stats();
        assert_eq!(s.partitions[0].main_rows, 90);
        assert_eq!(s.partitions[1].main_rows, 10);
        assert_eq!(s.partitions[1].columns[1].load_policy, LoadPolicy::PageLoadable);
        let text = s.to_string();
        assert!(text.contains("partition hot"));
        assert!(text.contains("[indexed]"));
    }

    /// The delta holds every distinct key once, in its dictionary's arena,
    /// and the stats report that copy plus bookkeeping and growth slack.
    #[test]
    fn delta_bytes_count_every_key_once() {
        let schema = Schema::new(vec![ColumnSpec::new("note", DataType::Varchar)]).unwrap();
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema,
            vec![PartitionSpec::single(LoadPolicy::FullyResident)],
        )
        .unwrap();
        for i in 0..1_000 {
            t.insert(vec![Value::Varchar(format!("{i:01000}").into())]).unwrap();
        }
        let delta_bytes = t.table_stats().partitions[0].delta_bytes;
        assert!((1_000_000..1_500_000).contains(&delta_bytes), "delta_bytes {delta_bytes}");
    }
}

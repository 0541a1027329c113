//! The partitioned columnar table, served through a version chain.
//!
//! Every structural state of the table — per-partition `{main, frozen
//! deltas, active delta}` — is an immutable [`crate::version::TableVersion`]
//! published atomically. Readers enter through [`Table::session`] (`&self`,
//! cheap Arc clone) and evaluate against their pinned version; writers
//! append to the active delta cell; [`Table::delta_merge`] freezes the
//! delta, builds the replacement main fragment off to the side, and
//! publishes the result without ever blocking a reader (§2, §8 — queries
//! keep running during the merge).

use crate::fragment::MainFragment;
use crate::partition::{PartitionId, PartitionSpec};
use crate::schema::{Row, Schema};
use crate::version::{
    DeltaCell, DeltaCellState, MainHandle, Partition, PartitionVersion, TableVersion,
    VersionChain,
};
use crate::{TableError, TableResult};
use payg_core::{EncodedRows, KeyPredicate, PageConfig, Value, ValuePredicate};
use payg_obs::{names, Gauge, Histogram, SpanKind};
use payg_storage::BufferPool;
use std::sync::{Arc, Mutex, MutexGuard};

/// A partitioned columnar table (paper §2, §4).
pub struct Table {
    schema: Schema,
    pool: BufferPool,
    config: PageConfig,
    chain: VersionChain,
    /// One merge lock per partition: serializes merges (and the cross-
    /// partition DML that must not interleave with them) without ever
    /// being taken by readers.
    merge_locks: Vec<Arc<Mutex<()>>>,
    versions_live: Gauge,
    merge_ns: Histogram,
}

/// A read session pinned to one table version (`Table::session()`).
///
/// The snapshot observes the table exactly as it stood at session start:
/// main fragments are pinned (a merge publishing a replacement does not
/// retire this one's page chains while the snapshot lives), and the delta
/// is clipped to the rows present at session time. Dropping the snapshot,
/// when it was the last holder of a replaced version, triggers retirement
/// of that version's page chains.
pub struct Snapshot<'a> {
    table: &'a Table,
    version: Arc<TableVersion>,
    parts: Vec<Partition>,
}

impl Snapshot<'_> {
    /// The pinned version's ordinal (diagnostics; monotonically increasing).
    pub fn version_no(&self) -> u64 {
        self.version.vno
    }

    /// The partitions as of this snapshot.
    pub fn partitions(&self) -> &[Partition] {
        &self.parts
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// The owning table's observability registry.
    pub fn registry(&self) -> &payg_obs::Registry {
        self.table.registry()
    }

    /// Visible rows across all partitions, as of this snapshot.
    pub fn visible_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.visible_rows()).sum()
    }
}

impl Table {
    /// Creates a table with the given partitions. Multi-partition tables
    /// require a partition column in the schema.
    pub fn create(
        pool: BufferPool,
        config: PageConfig,
        schema: Schema,
        specs: Vec<PartitionSpec>,
    ) -> TableResult<Self> {
        if specs.is_empty() {
            return Err(TableError::Invalid("a table needs at least one partition".into()));
        }
        if specs.len() > 1 && schema.partition_column().is_none() {
            return Err(TableError::Invalid(
                "multi-partition tables need a partition column".into(),
            ));
        }
        config.validate().map_err(TableError::Invalid)?;
        let versions_live = pool.registry().gauge(names::TABLE_VERSIONS_LIVE);
        let merge_ns = pool.registry().histogram(names::TABLE_MERGE_NS);
        let mut table = Table {
            chain: VersionChain::new(TableVersion::new(0, Vec::new(), versions_live.clone())),
            schema,
            pool,
            config,
            merge_locks: Vec::new(),
            versions_live,
            merge_ns,
        };
        for spec in specs {
            table.add_partition(spec)?;
        }
        Ok(table)
    }

    /// Adds a partition (`ADD PARTITION`, §4.2): constant-time, no data
    /// reorganization — the new partition starts with empty fragments.
    pub fn add_partition(&mut self, spec: PartitionSpec) -> TableResult<PartitionId> {
        let main = MainFragment::build(
            &self.pool,
            &self.config,
            &self.schema,
            0,
            |_| Ok(EncodedRows::default()),
            spec.load_policy,
            spec.disposition,
        )?;
        let schema = &self.schema;
        let live = self.versions_live.clone();
        self.chain.publish(move |cur| {
            let mut parts: Vec<PartitionVersion> =
                cur.partitions.iter().map(|p| p.share()).collect();
            parts.push(PartitionVersion {
                bounds: spec.range.bounds(),
                spec,
                main: MainHandle::new(main),
                frozen: Vec::new(),
                active: Arc::new(DeltaCell::new(schema)),
            });
            TableVersion::new(cur.vno + 1, parts, live)
        });
        self.merge_locks.push(Arc::new(Mutex::new(())));
        Ok(PartitionId(self.merge_locks.len() - 1))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The buffer pool backing this table.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The observability registry every layer under this table reports into
    /// (the pool's, which is the resource manager's).
    pub fn registry(&self) -> &payg_obs::Registry {
        self.pool.registry()
    }

    /// Opens a read session: clones the current version and pins its
    /// parts. `&self` — sessions never block on a running merge, and
    /// opening one never fails.
    pub fn session(&self) -> TableResult<Snapshot<'_>> {
        let version = self.chain.current();
        let parts = pin_parts(&version);
        Ok(Snapshot { table: self, version, parts })
    }

    /// The partitions of the *current* version, pinned. Point-in-time:
    /// two calls may observe different versions — queries needing one
    /// coherent view should go through [`Table::session`].
    pub fn partitions(&self) -> Vec<Partition> {
        pin_parts(&self.chain.current())
    }

    /// Visible rows across all partitions and fragments (current version).
    pub fn visible_rows(&self) -> u64 {
        self.partitions().iter().map(|p| p.visible_rows()).sum()
    }

    /// Routes a row to its partition of `version` by the partition-column
    /// value.
    fn route_in(&self, version: &TableVersion, row: &Row) -> TableResult<PartitionId> {
        let value = match self.schema.partition_column() {
            Some(c) => &row[c],
            None => return Ok(PartitionId(0)),
        };
        let key = value.to_key();
        version
            .partitions
            .iter()
            .position(|p| p.bounds.contains(&key))
            .map(PartitionId)
            .ok_or_else(|| TableError::NoPartitionForRow(value.to_string()))
    }

    /// Inserts a row: validated, routed, appended to the target partition's
    /// active delta (new data always lands in a delta first, §4.2). `&self`:
    /// writers and readers coexist; a writer racing a merge's freeze step
    /// retries against the freshly published active cell.
    pub fn insert(&self, row: Row) -> TableResult<()> {
        self.schema.check_row(&row)?;
        loop {
            let version = self.chain.current();
            let PartitionId(p) = self.route_in(&version, &row)?;
            let mut cell = version.partitions[p].active.lock();
            if cell.sealed {
                // A merge sealed this cell between our version read and the
                // lock; the successor version (with a fresh active cell) is
                // published under the same critical section, so the retry
                // sees it immediately.
                continue;
            }
            cell.frag.append(&row)?;
            return Ok(());
        }
    }

    /// Inserts many rows.
    pub fn insert_all(&self, rows: impl IntoIterator<Item = Row>) -> TableResult<u64> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Delta merge of one partition (§2), online and abortable:
    ///
    /// 1. **Freeze** — the active delta cell is sealed in place and a
    ///    version with it on the frozen list (plus a fresh active cell) is
    ///    published. Readers never see a half-frozen state; writers append
    ///    to the new cell.
    /// 2. **Side build** — the replacement main fragment (old main's
    ///    visible rows + every frozen cell's visible rows) is built into
    ///    fresh page chains one column at a time, in the encoded domain:
    ///    each frozen cell's dictionary is sorted, merged with the old
    ///    main's (dropping keys no visible row uses), and every visible
    ///    row's identifier is remapped — no value is decoded. A column's
    ///    keys and identifiers are dropped before the next column is read.
    ///    Queries keep executing against the published version throughout.
    /// 3. **Publish** — the version with the new main (frozen list empty)
    ///    replaces the current one, and the old main fragment is flagged
    ///    for retirement: its page chains are discarded when the last
    ///    snapshot holding it drops.
    ///
    /// The `merge` span holds one `merge-freeze`, one `merge-column` per
    /// column and one `merge-publish` span.
    ///
    /// A read or build failure (storage fault, budget, corruption) aborts
    /// between steps 2 and 3: the frozen-delta version keeps serving — no
    /// rows are lost, reads stay exact — the side-built chains are
    /// reclaimed by the builders' cleanup guards, and a retried merge picks
    /// the frozen cells up again.
    pub fn delta_merge(&self, pid: PartitionId) -> TableResult<()> {
        let lock = Arc::clone(&self.merge_locks[pid.0]);
        let _guard = match lock.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let _span = self.registry().tracer().span(SpanKind::Merge, pid.0 as u64);
        let started = std::time::Instant::now();

        // Anything to merge? (Clean main, no frozen backlog, empty delta.)
        {
            let v = self.chain.current();
            let pv = &v.partitions[pid.0];
            let main = pv.main.frag();
            let dirty = !pv.frozen.is_empty()
                || pv.active.rows() > 0
                || main.visible_rows() != main.rows();
            if !dirty {
                return Ok(());
            }
        }

        // Step 1: freeze. Seal the active cell (when it has rows) and
        // publish the frozen state. Sealing happens under the publish lock,
        // so a writer that observes `sealed` finds the successor version
        // as soon as it re-reads the chain.
        let freeze_span = self.registry().tracer().span(SpanKind::MergeFreeze, pid.0 as u64);
        let live = self.versions_live.clone();
        let schema = &self.schema;
        let frozen_version = self.chain.publish(|cur| {
            let pv = &cur.partitions[pid.0];
            let mut frozen = pv.frozen.clone();
            let mut active = Arc::clone(&pv.active);
            {
                let mut st = pv.active.lock();
                if st.frag.rows() > 0 {
                    st.sealed = true;
                    drop(st);
                    frozen.push(Arc::clone(&pv.active));
                    active = Arc::new(DeltaCell::new(schema));
                }
            }
            let mut parts: Vec<PartitionVersion> =
                cur.partitions.iter().map(|p| p.share()).collect();
            parts[pid.0] = PartitionVersion { frozen, active, ..pv.share() };
            TableVersion::new(cur.vno + 1, parts, live)
        });
        drop(freeze_span);

        // Step 2: side build. No table lock is held, and the fragments read
        // here stay put: every delete takes this merge lock. Faults abort
        // here and the frozen version keeps serving.
        let pv = &frozen_version.partitions[pid.0];
        let main = pv.main.frag();
        let visible = main.visible_positions();
        let rows = visible.len() as u64
            + pv.frozen.iter().map(|cell| cell.lock().frag.visible_rows()).sum::<u64>();
        let built = MainFragment::build(
            &self.pool,
            &self.config,
            &self.schema,
            rows,
            |c| {
                let mut runs = Vec::with_capacity(1 + pv.frozen.len());
                runs.push(main.column(c).encoded_rows(&visible)?);
                for cell in &pv.frozen {
                    runs.push(cell.lock().frag.encoded_rows(c)?);
                }
                Ok(EncodedRows::merge(&runs)?)
            },
            pv.spec.load_policy,
            pv.spec.disposition,
        );
        let new_main = match built {
            Ok(m) => m,
            Err(e) => {
                self.merge_ns.record(started.elapsed().as_nanos() as u64);
                return Err(e);
            }
        };

        // Step 3: publish the merged version; retire the replaced main and
        // release the merged cells (the frozen version is their last holder
        // unless a snapshot still pins it).
        let publish_span = self.registry().tracer().span(SpanKind::MergePublish, pid.0 as u64);
        let live = self.versions_live.clone();
        let pool = self.pool.clone();
        self.chain.publish(move |cur| {
            let pv = &cur.partitions[pid.0];
            pv.main.schedule_retire(&pool);
            let mut parts: Vec<PartitionVersion> =
                cur.partitions.iter().map(|p| p.share()).collect();
            let main = MainHandle::new(new_main);
            parts[pid.0] = PartitionVersion { main, frozen: Vec::new(), ..pv.share() };
            TableVersion::new(cur.vno + 1, parts, live)
        });
        drop(frozen_version);
        drop(publish_span);
        self.merge_ns.record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Delta merge of every partition.
    pub fn delta_merge_all(&self) -> TableResult<()> {
        for p in 0..self.merge_locks.len() {
            self.delta_merge(PartitionId(p))?;
        }
        Ok(())
    }

    /// The aging/update DML: for every visible row matching `pred` on
    /// `filter_col`, sets `set_col` to `new_value`. No in-place update —
    /// the original row is deleted and the updated row re-inserted through
    /// normal routing, so updates to the partition column *move* rows
    /// between partitions (into the target's delta). Returns the number of
    /// rows updated.
    ///
    /// Runs under every partition's merge lock (it must not interleave
    /// with a merge's freeze/build window). Row visibility is read
    /// committed: an open snapshot observes the deletions as they land.
    /// Every updated row is routed before the first one is deleted: when
    /// no partition accepts one, the call fails with
    /// [`TableError::NoPartitionForRow`] and the table is unchanged.
    pub fn update_rows(
        &self,
        filter_col: &str,
        pred: &ValuePredicate,
        set_col: &str,
        new_value: &Value,
    ) -> TableResult<u64> {
        let (fcol, key_pred) = self.schema.compile(filter_col, pred)?;
        let scol = self.schema.column_index(set_col)?;
        new_value
            .check_type(self.schema.columns()[scol].data_type)
            .map_err(TableError::Core)?;
        let _guards = self.all_merge_locks();
        let version = self.chain.current();
        let mut moves = Moves::default();
        for pv in &version.partitions {
            if self.schema.prunes(fcol, &key_pred, &pv.bounds) {
                continue;
            }
            // Main fragment matches, read in one go.
            let main = pv.main.frag();
            let rposs = main.find_rows(fcol, &key_pred)?;
            moves.rows.extend(main.rows_at(&rposs)?);
            moves.main.push((main, rposs));
            // Delta matches, likewise: frozen cells (awaiting merge) and
            // the active cell.
            for cell in pv.frozen.iter().chain(std::iter::once(&pv.active)) {
                let st = cell.lock();
                let rposs = st.frag.find_rows(fcol, &key_pred);
                moves.rows.extend(st.frag.rows_at(&rposs)?);
                moves.delta.push((cell, rposs));
            }
        }
        for row in &mut moves.rows {
            row[scol] = new_value.clone();
        }
        self.apply_moves(&version, moves)
    }

    /// Changes a partition's accepted range (the periodic hot-boundary
    /// shift of an aging setup) while sessions keep reading. Existing rows
    /// are not touched; call [`Table::relocate_misplaced`] to move them.
    /// Publishes under every partition's merge lock, like
    /// [`Table::relocate_misplaced`], so no merge or aging move works from
    /// the old range meanwhile.
    pub fn set_partition_range(&self, pid: PartitionId, range: crate::PartitionRange) {
        let _guards = self.all_merge_locks();
        let live = self.versions_live.clone();
        self.chain.publish(move |cur| {
            let mut parts: Vec<PartitionVersion> =
                cur.partitions.iter().map(|p| p.share()).collect();
            parts[pid.0].bounds = range.bounds();
            parts[pid.0].spec.range = range;
            TableVersion::new(cur.vno + 1, parts, live)
        });
    }

    /// Moves every visible row whose partition-column value routes to a
    /// different partition (after a boundary shift or `ADD PARTITION`) into
    /// that partition's delta, exactly like the update-driven move of
    /// §4.2. Returns the number of rows moved. Runs under every partition's
    /// merge lock and routes every row before deleting any, like
    /// [`Table::update_rows`]: a row no partition accepts fails the call
    /// and leaves the table unchanged.
    pub fn relocate_misplaced(&self) -> TableResult<u64> {
        let Some(tcol) = self.schema.partition_column() else { return Ok(0) };
        let _guards = self.all_merge_locks();
        let version = self.chain.current();
        let mut moves = Moves::default();
        for pv in &version.partitions {
            // Each fragment: its visible rows less those whose partition
            // column lies in the partition's range, found in the key domain.
            let in_range = KeyPredicate::Range(pv.bounds.clone());
            let misplaced = |visible: Vec<u64>, placed: Vec<u64>| -> Vec<u64> {
                let mut placed = placed.into_iter().peekable();
                visible.into_iter().filter(|r| placed.next_if_eq(r).is_none()).collect()
            };
            let main = pv.main.frag();
            let rposs = misplaced(main.visible_positions(), main.find_rows(tcol, &in_range)?);
            moves.rows.extend(main.rows_at(&rposs)?);
            moves.main.push((main, rposs));
            for cell in pv.frozen.iter().chain(std::iter::once(&pv.active)) {
                let st = cell.lock();
                let visible = st.frag.visible_positions().collect();
                let rposs = misplaced(visible, st.frag.find_rows(tcol, &in_range));
                moves.rows.extend(st.frag.rows_at(&rposs)?);
                moves.delta.push((cell, rposs));
            }
        }
        self.apply_moves(&version, moves)
    }

    /// Moves the rows of `moves` collected from `version` — the version
    /// held under every merge lock, which nothing can replace meanwhile.
    /// Before anything is deleted, every new row is validated and routed,
    /// and the active cells the rows go to are locked, in partition order,
    /// and checked for room; they stay locked until the rows are in. So a
    /// row no partition accepts, or rows that could fill a delta column's
    /// dictionary, fail the call with the table unchanged. Returns the
    /// number of rows moved.
    fn apply_moves(&self, version: &TableVersion, moves: Moves<'_>) -> TableResult<u64> {
        let mut targets = Vec::with_capacity(moves.rows.len());
        for row in &moves.rows {
            self.schema.check_row(row)?;
            targets.push(self.route_in(version, row)?.0);
        }
        let mut held: Vec<Option<MutexGuard<'_, DeltaCellState>>> = (version.partitions.iter())
            .enumerate()
            .map(|(p, pv)| targets.contains(&p).then(|| pv.active.lock()))
            .collect();
        for (p, cell) in held.iter().enumerate() {
            if let Some(cell) = cell {
                let rows = moves.rows.iter().zip(&targets).filter(|&(_, &t)| t == p);
                cell.frag.check_room(rows.map(|(row, _)| row))?;
            }
        }
        for (main, rposs) in moves.main {
            for rpos in rposs {
                main.delete(rpos);
            }
        }
        for (cell, rposs) in moves.delta {
            let target = version.partitions.iter().position(|pv| std::ptr::eq(&*pv.active, cell));
            let mut own = None;
            let st = match target.and_then(|p| held[p].as_mut()) {
                Some(st) => st,
                None => own.insert(cell.lock()),
            };
            for rpos in rposs {
                st.frag.delete(rpos);
            }
        }
        for (row, &p) in moves.rows.iter().zip(&targets) {
            if let Some(cell) = held[p].as_mut() {
                cell.frag.append(row)?;
            }
        }
        Ok(moves.rows.len() as u64)
    }

    /// Unloads every resident column of the *current* version and drops all
    /// unpinned pool frames — the experiments' cold-restart simulation.
    /// Routed through the version chain: a retired-but-still-snapshot-held
    /// main fragment is not touched, so a concurrent scan on an old
    /// snapshot never loses a chain it is about to pin.
    pub fn unload_all(&self) {
        let version = self.chain.current();
        for pv in &version.partitions {
            pv.main.frag().unload();
        }
        self.pool.clear();
    }

    /// Every partition's merge lock, taken in partition order (the one
    /// sanctioned order; merges take a single one, so no cycle exists).
    fn all_merge_locks(&self) -> Vec<std::sync::MutexGuard<'_, ()>> {
        self.merge_locks
            .iter()
            .map(|l| match l.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            })
            .collect()
    }
}

/// The rows an aging DML call moves between partitions: where each one is
/// now — main-fragment and delta-cell positions — and what it becomes.
#[derive(Default)]
struct Moves<'v> {
    main: Vec<(&'v MainFragment, Vec<u64>)>,
    delta: Vec<(&'v DeltaCell, Vec<u64>)>,
    rows: Vec<Row>,
}

/// Pins every partition of `version` at its current append watermark.
fn pin_parts(version: &TableVersion) -> Vec<Partition> {
    version.partitions.iter().map(|pv| Partition::pin(pv, pv.active.rows())).collect()
}

impl Table {
    /// Reassembles a table from restored partitions (catalog restore): each
    /// main fragment with an empty delta.
    pub(crate) fn from_parts(
        schema: Schema,
        pool: BufferPool,
        config: PageConfig,
        restored: Vec<(PartitionSpec, MainFragment)>,
    ) -> Self {
        let versions_live = pool.registry().gauge(names::TABLE_VERSIONS_LIVE);
        let merge_ns = pool.registry().histogram(names::TABLE_MERGE_NS);
        let merge_locks = restored.iter().map(|_| Arc::new(Mutex::new(()))).collect();
        let partitions: Vec<PartitionVersion> = restored
            .into_iter()
            .map(|(spec, main)| PartitionVersion {
                bounds: spec.range.bounds(),
                spec,
                main: MainHandle::new(main),
                frozen: Vec::new(),
                active: Arc::new(DeltaCell::new(&schema)),
            })
            .collect();
        Table {
            chain: VersionChain::new(TableVersion::new(0, partitions, versions_live.clone())),
            schema,
            pool,
            config,
            merge_locks,
            versions_live,
            merge_ns,
        }
    }

    /// The table's page configuration.
    pub fn page_config(&self) -> &PageConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionRange;
    use crate::query::{Projection, Query};
    use crate::schema::ColumnSpec;
    use payg_core::{CoreError, DataType, LoadPolicy};
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;
    use std::sync::Arc;

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
    }

    fn orders_schema() -> Schema {
        Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("status", DataType::Varchar),
            ColumnSpec::new("close_date", DataType::Integer),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
        .with_partition_column("close_date")
        .unwrap()
    }

    fn aged_table() -> Table {
        // close_date >= 100 → hot; < 100 → cold.
        let t = Table::create(
            pool(),
            PageConfig::tiny(),
            orders_schema(),
            vec![
                PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(100))),
                PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(100))),
            ],
        )
        .unwrap();
        for i in 0..50 {
            t.insert(vec![
                Value::Integer(i),
                Value::Varchar("open".into()),
                Value::Integer(100 + i),
            ])
            .unwrap();
        }
        t
    }

    /// A filter on the partition column is type-checked before any
    /// partition is pruned: a mistyped one is the `TypeMismatch` it is on
    /// any other column, never an empty answer from pruning everything.
    #[test]
    fn a_wrongly_typed_filter_on_the_partition_column_is_a_type_mismatch() {
        let t = Table::create(
            pool(),
            PageConfig::tiny(),
            orders_schema(),
            vec![PartitionSpec::hot(
                "only",
                PartitionRange::Between(Value::Integer(0), Value::Integer(100)),
            )],
        )
        .unwrap();
        t.insert(vec![Value::Integer(1), Value::Varchar("open".into()), Value::Integer(5)])
            .unwrap();
        let zzz = ValuePredicate::Eq(Value::Varchar("zzz".into()));
        let mismatch = |e| matches!(e, TableError::Core(CoreError::TypeMismatch { .. }));
        for projection in [Projection::Count, Projection::All] {
            for col in ["close_date", "id"] {
                let q = Query::filtered(col, zzz.clone(), projection.clone());
                assert!(t.execute(&q).is_err_and(mismatch), "{q:?}");
            }
        }
        let status = Value::Varchar("closed".into());
        assert!(t.update_rows("close_date", &zzz, "status", &status).is_err_and(mismatch));
        assert_eq!(t.visible_rows(), 1);
    }

    #[test]
    fn insert_routes_by_partition_column() {
        let t = aged_table();
        assert_eq!(t.partitions()[0].visible_rows(), 50);
        assert_eq!(t.partitions()[1].visible_rows(), 0);
        t.insert(vec![Value::Integer(99), Value::Varchar("closed".into()), Value::Integer(5)])
            .unwrap();
        assert_eq!(t.partitions()[1].visible_rows(), 1);
    }

    #[test]
    fn rows_outside_every_partition_are_rejected() {
        let t = Table::create(
            pool(),
            PageConfig::tiny(),
            orders_schema(),
            vec![PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(100)))],
        )
        .unwrap();
        let r = t.insert(vec![Value::Integer(1), Value::Varchar("x".into()), Value::Integer(5)]);
        assert!(matches!(r, Err(TableError::NoPartitionForRow(_))));
    }

    #[test]
    fn delta_merge_moves_rows_to_main() {
        let t = aged_table();
        assert_eq!(t.partitions()[0].delta().visible_rows(), 50);
        assert_eq!(t.partitions()[0].main().rows(), 0);
        t.delta_merge(PartitionId(0)).unwrap();
        assert_eq!(t.partitions()[0].delta().visible_rows(), 0);
        assert_eq!(t.partitions()[0].main().visible_rows(), 50);
        // Values survive the merge, and the main dictionary is sorted, so
        // lookups work.
        assert_eq!(t.partitions()[0].main().rows_at(&[0]).unwrap()[0][0], Value::Integer(0));
        let (col, open) = t.schema.compile("status", &ValuePredicate::Eq("open".into())).unwrap();
        let rows = t.partitions()[0].main().find_rows(col, &open).unwrap();
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn update_on_partition_column_moves_rows_to_cold_delta() {
        let t = aged_table();
        t.delta_merge_all().unwrap();
        // Age orders with id < 10: set close_date to 1 (cold range).
        let moved = t
            .update_rows(
                "id",
                &ValuePredicate::Between(Value::Integer(0), Value::Integer(9)),
                "close_date",
                &Value::Integer(1),
            )
            .unwrap();
        assert_eq!(moved, 10);
        // Rows are now invisible in hot main, present in cold delta.
        assert_eq!(t.partitions()[0].visible_rows(), 40);
        assert_eq!(t.partitions()[1].delta().visible_rows(), 10);
        assert_eq!(t.visible_rows(), 50);
        // After merging the cold partition they land in page-loadable main.
        t.delta_merge(PartitionId(1)).unwrap();
        assert_eq!(t.partitions()[1].main().visible_rows(), 10);
        assert_eq!(
            t.partitions()[1].main().column(0).policy(),
            LoadPolicy::PageLoadable
        );
        // And the next hot merge physically drops the deleted rows.
        t.delta_merge(PartitionId(0)).unwrap();
        assert_eq!(t.partitions()[0].main().rows(), 40);
    }

    /// Rows a move could not fit into the target delta column's dictionary
    /// fail it with `DictTooLarge` before any row is deleted, from the hot
    /// delta and after a merge alike; a move that fits still goes through.
    /// Unit tests lower the dictionary bound to 1 MiB.
    #[test]
    fn a_move_that_could_fill_a_delta_dictionary_leaves_the_table_unchanged() {
        for merged in [false, true] {
            let t = aged_table();
            // The cold delta's status column: 1 000 keys of 1 000 bytes.
            for i in 0..1_000 {
                let status = Value::Varchar(format!("{i:01000}"));
                t.insert(vec![Value::Integer(1_000 + i), status, Value::Integer(5)]).unwrap();
            }
            // 600 hot rows whose statuses, 60 000 bytes, are more than the
            // cold status column has left.
            for i in 0..600 {
                let status = Value::Varchar(format!("{i:0100}"));
                t.insert(vec![Value::Integer(100 + i), status, Value::Integer(200)]).unwrap();
            }
            if merged {
                t.delta_merge(PartitionId(0)).unwrap();
            }
            let all = Query::full(Projection::All);
            let before = t.execute(&all).unwrap();
            let ids = |lo, hi| ValuePredicate::Between(Value::Integer(lo), Value::Integer(hi));
            let err = t.update_rows("id", &ids(100, 699), "close_date", &Value::Integer(1));
            let err = err.unwrap_err();
            assert!(matches!(err, TableError::Core(CoreError::DictTooLarge { .. })), "{err}");
            assert_eq!(t.execute(&all).unwrap(), before, "merged={merged}");
            let moved = t.update_rows("id", &ids(100, 109), "close_date", &Value::Integer(1));
            assert_eq!(moved.unwrap(), 10);
            assert_eq!(t.partitions()[0].visible_rows(), 640);
            assert_eq!(t.partitions()[1].visible_rows(), 1_010);
        }
    }

    #[test]
    fn repeated_merges_are_stable() {
        let t = aged_table();
        t.delta_merge_all().unwrap();
        let before = t.visible_rows();
        t.delta_merge_all().unwrap();
        t.delta_merge_all().unwrap();
        assert_eq!(t.visible_rows(), before);
    }

    #[test]
    fn multi_partition_requires_partition_column() {
        let schema = Schema::new(vec![ColumnSpec::new("a", DataType::Integer)]).unwrap();
        let r = Table::create(
            pool(),
            PageConfig::tiny(),
            schema,
            vec![
                PartitionSpec::hot("h", PartitionRange::AtLeast(Value::Integer(0))),
                PartitionSpec::cold("c", PartitionRange::Below(Value::Integer(0))),
            ],
        );
        assert!(matches!(r, Err(TableError::Invalid(_))));
    }

    #[test]
    fn snapshot_is_stable_across_a_merge() {
        let t = aged_table();
        let before_merge = t.session().unwrap();
        assert_eq!(before_merge.partitions()[0].delta().visible_rows(), 50);
        assert_eq!(before_merge.partitions()[0].main().rows(), 0);

        t.delta_merge_all().unwrap();

        // The pinned snapshot still observes the pre-merge layout…
        assert_eq!(before_merge.partitions()[0].delta().visible_rows(), 50);
        assert_eq!(before_merge.partitions()[0].main().rows(), 0);
        assert_eq!(before_merge.visible_rows(), 50);
        // …while a fresh session sees the merged one, with the same answer.
        let after_merge = t.session().unwrap();
        assert!(after_merge.version_no() > before_merge.version_no());
        assert_eq!(after_merge.partitions()[0].delta().visible_rows(), 0);
        assert_eq!(after_merge.partitions()[0].main().visible_rows(), 50);
        assert_eq!(after_merge.visible_rows(), 50);
    }

    #[test]
    fn snapshot_clips_concurrent_inserts() {
        let t = aged_table();
        let s = t.session().unwrap();
        assert_eq!(s.visible_rows(), 50);
        t.insert(vec![Value::Integer(90), Value::Varchar("new".into()), Value::Integer(200)])
            .unwrap();
        // Appended after the snapshot's watermark: invisible to it.
        assert_eq!(s.visible_rows(), 50);
        assert_eq!(t.session().unwrap().visible_rows(), 51);
    }

    #[test]
    fn retired_main_chains_are_dropped_after_last_snapshot() {
        let t = aged_table();
        t.delta_merge_all().unwrap();
        let store = t.pool().store().clone();
        // The chains of the current mains' columns: how many a merge writes
        // depends on the rows (a key in row order stores no data vector).
        let live = |t: &Table| -> usize {
            t.partitions().iter().flat_map(|p| p.main().columns()).map(|c| c.chains().len()).sum()
        };
        let chains_before = store.chains().len();
        assert_eq!(chains_before, live(&t), "steady state: the mains' chains alone");
        let pinned = t.session().unwrap();

        // Rewrite some rows and merge: the hot partition's main is rebuilt.
        t.update_rows(
            "id",
            &ValuePredicate::Eq(Value::Integer(3)),
            "status",
            &Value::Varchar("closed".into()),
        )
        .unwrap();
        t.delta_merge_all().unwrap();
        // While the pre-merge snapshot lives, the old chains must survive
        // and stay readable. Deletes are read-committed (the shared bitmap
        // shows through) while the replacement insert is clipped by the
        // snapshot watermark, so the pinned view reads 49.
        assert!(store.chains().len() > chains_before);
        assert_eq!(pinned.visible_rows(), 49);
        drop(pinned);
        // Last holder gone → retirement ran; the store holds the new mains'
        // chains alone.
        assert_eq!(store.chains().len(), live(&t));
        assert_eq!(t.visible_rows(), 50);
    }

    #[test]
    fn versions_live_gauge_tracks_chain() {
        let t = aged_table();
        let gauge = t.registry().gauge(names::TABLE_VERSIONS_LIVE);
        let baseline = gauge.get();
        let s = t.session().unwrap();
        t.delta_merge_all().unwrap();
        // The snapshot pins its version; merges published more.
        assert!(gauge.get() >= baseline);
        drop(s);
        assert!(gauge.get() >= 1, "current version is always live");
    }

    /// Orders closed on `1990 + id`: before 2000 is cold, the rest hot.
    fn dated_orders() -> Table {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("item", DataType::Varchar),
            ColumnSpec::new("close_date", DataType::Integer),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
        .with_partition_column("close_date")
        .unwrap();
        let t = Table::create(
            pool(),
            PageConfig::tiny(),
            schema,
            vec![
                PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(2000))),
                PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(2000))),
            ],
        )
        .unwrap();
        for i in 0..100i64 {
            t.insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("item-{}", i % 11)),
                Value::Integer(1990 + i),
            ])
            .unwrap();
        }
        t.delta_merge_all().unwrap();
        t
    }

    #[test]
    fn closing_an_order_moves_it_to_cold() {
        let t = dated_orders();
        // The application closes order 50 (hot, date 2040 → closed 1995).
        let moved = t
            .update_rows(
                "id",
                &ValuePredicate::Eq(Value::Integer(50)),
                "close_date",
                &Value::Integer(1995),
            )
            .unwrap();
        assert_eq!(moved, 1);
        // It is now in the cold partition's delta…
        assert_eq!(t.partitions()[1].delta().visible_rows(), 1);
        // …and still found by a point query, with the new date.
        let q = Query::filtered(
            "id",
            ValuePredicate::Eq(Value::Integer(50)),
            Projection::Columns(vec!["close_date".into()]),
        );
        assert_eq!(
            t.execute(&q).unwrap().into_rows(),
            vec![vec![Value::Integer(1995)]]
        );
        // After the aging run (merge) it is page-loadable main data.
        t.relocate_misplaced().unwrap();
        t.delta_merge_all().unwrap();
        assert_eq!(t.partitions()[1].delta().visible_rows(), 0);
        assert_eq!(
            t.partitions()[1].main().column(0).policy(),
            LoadPolicy::PageLoadable
        );
        assert_eq!(t.execute(&Query::full(Projection::Count)).unwrap().count(), 100);
    }

    #[test]
    fn boundary_shift_relocates_misplaced_rows() {
        let t = dated_orders();
        // Initially: dates 1990..1999 cold (10 rows), 2000..2089 hot (90).
        assert_eq!(t.partitions()[0].visible_rows(), 90);
        assert_eq!(t.partitions()[1].visible_rows(), 10);
        // Shift the hot boundary: everything before 2050 is now cold.
        t.set_partition_range(
            PartitionId(0),
            PartitionRange::AtLeast(Value::Integer(2050)),
        );
        t.set_partition_range(PartitionId(1), PartitionRange::Below(Value::Integer(2050)));
        let rows_moved = t.relocate_misplaced().unwrap();
        t.delta_merge_all().unwrap();
        assert_eq!(rows_moved, 50, "dates 2000..2049 relocate to cold");
        assert_eq!(t.partitions()[0].visible_rows(), 40);
        assert_eq!(t.partitions()[1].visible_rows(), 60);
        // Nothing is lost and a second run is a no-op.
        assert_eq!(t.execute(&Query::full(Projection::Count)).unwrap().count(), 100);
        assert_eq!(t.relocate_misplaced().unwrap(), 0);
    }

    #[test]
    fn add_partition_then_relocate() {
        let mut t = dated_orders();
        // Narrow the cold partition and add a deep-cold one below 1995.
        t.set_partition_range(
            PartitionId(1),
            PartitionRange::Between(Value::Integer(1995), Value::Integer(2000)),
        );
        t.add_partition(PartitionSpec::cold(
            "deep-cold",
            PartitionRange::Below(Value::Integer(1995)),
        ))
        .unwrap();
        let rows_moved = t.relocate_misplaced().unwrap();
        t.delta_merge_all().unwrap();
        assert_eq!(rows_moved, 5, "dates 1990..1994 move to deep-cold");
        assert_eq!(t.partitions()[2].visible_rows(), 5);
        assert_eq!(t.execute(&Query::full(Projection::Count)).unwrap().count(), 100);
    }
}

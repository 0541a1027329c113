//! Versioned serving: snapshot-stable reads across an online delta merge.
//!
//! The paper's main/delta design (§2, §8) assumes queries keep running while
//! a delta merge rebuilds the main fragment. This module provides the
//! machinery: an immutable, Arc'd [`TableVersion`] per table generation and
//! an atomic version chain the table publishes new generations through.
//!
//! Lifecycle of one partition's fragments across a merge:
//!
//! ```text
//!   V      : main=M0, frozen=[],  active=D0   ← readers pinned here keep M0+D0
//!   seal   : D0.sealed = true (in place — V's readers still see D0's rows)
//!   V+1    : main=M0, frozen=[D0], active=D1  ← writers append to D1
//!   build  : M1 := merge(M0.visible, D0.visible)   (off to the side, column by column)
//!   V+2    : main=M1, frozen=[],  active=D1   ← M0 flagged for retirement
//!   retire : when the last snapshot holding M0 drops, M0's page chains are
//!            discarded from the pool and the backing store (never while a
//!            scan can still pin them — the Arc refcount is the epoch).
//! ```
//!
//! An aborted merge stops after `V+1`: the sealed delta stays frozen (its
//! rows remain fully visible), the side-built chains are reclaimed by the
//! builders' cleanup guards, and a retried merge picks the frozen cell up
//! again. No version ever exposes a half-merged state.
//!
//! Row deletes (`update_rows`, `relocate_misplaced`) are read-committed, not
//! snapshot-isolated: they flip visibility bitmaps shared by all versions.
//! Structural changes — fragment replacement, chain retirement — are the
//! snapshot-stable part, which is what concurrent scans need to never pin a
//! dropped chain or observe a half-published merge.

use crate::delta::DeltaFragment;
use crate::fragment::MainFragment;
use crate::partition::PartitionSpec;
use crate::schema::{Row, Schema};
use crate::{TableError, TableResult};
use payg_core::{KeyPredicate, KeyRange};
use payg_obs::Gauge;
use payg_storage::{BufferPool, ChainId};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// Interior state of one delta cell.
pub(crate) struct DeltaCellState {
    /// The append-order fragment.
    pub frag: DeltaFragment,
    /// Set (in place, under the lock) when a merge freezes this cell. A
    /// sealed cell accepts no more appends; writers that lose the race
    /// reload the current version and retry against the fresh active cell.
    pub sealed: bool,
}

/// One delta fragment behind a lock, shared by every version that references
/// it. Sealing happens *in place* so snapshots pinned before the seal keep
/// reading the same cell (clipped to their session's row watermark).
pub(crate) struct DeltaCell {
    state: Mutex<DeltaCellState>,
}

impl DeltaCell {
    pub(crate) fn new(schema: &Schema) -> Self {
        DeltaCell {
            state: Mutex::new(DeltaCellState { frag: DeltaFragment::new(schema), sealed: false }),
        }
    }

    /// Locks the cell. Appends, seals, deletes, and snapshot reads all go
    /// through here; the critical sections are short (no I/O under the lock).
    pub(crate) fn lock(&self) -> MutexGuard<'_, DeltaCellState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Rows ever appended (including deleted) — the append watermark.
    pub(crate) fn rows(&self) -> u64 {
        self.lock().frag.rows()
    }
}

/// The retirement plan attached to a main fragment once a merge replaces it:
/// every page chain the fragment owns, to be discarded when the last
/// snapshot drops.
struct RetirePlan {
    pool: BufferPool,
    chains: Vec<u64>,
}

/// A main fragment plus its deferred retirement. Versions and snapshots
/// share the handle via `Arc`; the strong count is the epoch — when it
/// reaches zero no scan can ever pin the fragment's pages again, so `Drop`
/// discards the chains from the pool and the backing store.
pub(crate) struct MainHandle {
    frag: MainFragment,
    retire: OnceLock<RetirePlan>,
}

impl MainHandle {
    pub(crate) fn new(frag: MainFragment) -> Arc<Self> {
        Arc::new(MainHandle { frag, retire: OnceLock::new() })
    }

    pub(crate) fn frag(&self) -> &MainFragment {
        &self.frag
    }

    /// Flags this fragment's chains for discard-on-last-drop. Called by the
    /// merge publish step, exactly once, after the replacement version is
    /// live. Restored (catalog) fragments whose chains outlive the process
    /// are simply never flagged.
    pub(crate) fn schedule_retire(&self, pool: &BufferPool) {
        let chains = self
            .frag
            .columns()
            .iter()
            .flat_map(|c| c.chains().into_iter().map(|(_, id)| id))
            .collect();
        let _ = self.retire.set(RetirePlan { pool: pool.clone(), chains });
    }
}

impl Drop for MainHandle {
    fn drop(&mut self) {
        if let Some(plan) = self.retire.take() {
            for chain in plan.chains {
                plan.pool.discard_chain(ChainId(chain));
            }
        }
    }
}

/// One partition inside one table version.
pub(crate) struct PartitionVersion {
    pub spec: PartitionSpec,
    /// `spec.range` as keys, encoded once ([`crate::PartitionRange::bounds`]).
    pub bounds: KeyRange,
    pub main: Arc<MainHandle>,
    /// Sealed delta cells awaiting (or re-awaiting, after an abort) merge,
    /// oldest first. Their rows are fully visible to every snapshot.
    pub frozen: Vec<Arc<DeltaCell>>,
    /// The cell writers append to.
    pub active: Arc<DeltaCell>,
}

impl PartitionVersion {
    /// A shallow copy sharing every fragment (the publish-step clone).
    pub(crate) fn share(&self) -> Self {
        PartitionVersion {
            spec: self.spec.clone(),
            bounds: self.bounds.clone(),
            main: Arc::clone(&self.main),
            frozen: self.frozen.clone(),
            active: Arc::clone(&self.active),
        }
    }
}

/// An immutable generation of the whole table: per-partition fragment sets.
/// Readers hold one via [`Snapshot`]; the table swaps the current one
/// atomically under the version-chain lock.
pub(crate) struct TableVersion {
    pub vno: u64,
    pub partitions: Vec<PartitionVersion>,
    /// Decremented on drop: exported as `table_versions_live`.
    live: Gauge,
}

impl TableVersion {
    pub(crate) fn new(vno: u64, partitions: Vec<PartitionVersion>, live: Gauge) -> Arc<Self> {
        live.add(1);
        Arc::new(TableVersion { vno, partitions, live })
    }
}

impl Drop for TableVersion {
    fn drop(&mut self) {
        self.live.sub(1);
    }
}

/// The atomic version chain: the single mutable cell of the serving layer.
/// Publishes replace the whole `Arc` under a short write lock; readers clone
/// it under a read lock (no allocation, no waiting on merges).
pub(crate) struct VersionChain {
    current: RwLock<Arc<TableVersion>>,
}

impl VersionChain {
    pub(crate) fn new(initial: Arc<TableVersion>) -> Self {
        VersionChain { current: RwLock::new(initial) }
    }

    /// The current version (cheap Arc clone).
    pub(crate) fn current(&self) -> Arc<TableVersion> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(p) => Arc::clone(&p.into_inner()),
        }
    }

    /// Atomically replaces the current version with one derived from it.
    /// The closure runs under the publish lock, so the derivation sees a
    /// stable predecessor and no two publishes interleave.
    pub(crate) fn publish<F>(&self, derive: F) -> Arc<TableVersion>
    where
        F: FnOnce(&TableVersion) -> Arc<TableVersion>,
    {
        let mut cur = match self.current.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let next = derive(&cur);
        *cur = Arc::clone(&next);
        next
    }
}

/// A read-only view of one partition's delta as of a snapshot: the frozen
/// cells in full plus the active cell clipped to the snapshot's append
/// watermark, flattened into one contiguous row-position space (so query
/// row ids stay stable across seals and merges).
pub struct DeltaView {
    slices: Vec<DeltaSlice>,
}

struct DeltaSlice {
    cell: Arc<DeltaCell>,
    /// Rows of the cell visible to this snapshot (frozen cells: all rows;
    /// the active cell: the watermark at snapshot time).
    clip: u64,
    /// This slice's first row position in the flattened space.
    base: u64,
}

impl DeltaView {
    pub(crate) fn new(pv: &PartitionVersion, active_mark: u64) -> Self {
        let mut slices = Vec::with_capacity(pv.frozen.len() + 1);
        let mut base = 0;
        for cell in &pv.frozen {
            let clip = cell.rows();
            slices.push(DeltaSlice { cell: Arc::clone(cell), clip, base });
            base += clip;
        }
        slices.push(DeltaSlice { cell: Arc::clone(&pv.active), clip: active_mark, base });
        DeltaView { slices }
    }

    /// Visible (non-deleted) rows in view.
    pub fn visible_rows(&self) -> u64 {
        let visible = |s: &DeltaSlice| {
            s.cell.lock().frag.visible_positions().take_while(|&r| r < s.clip).count()
        };
        self.slices.iter().map(|s| visible(s) as u64).sum()
    }

    /// True when the view holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.slices.iter().all(|s| s.clip == 0)
    }

    /// The ascending positions `f` yields for each cell, under one lock per
    /// cell, clipped and moved into the flattened space.
    fn positions(&self, f: impl Fn(&DeltaFragment) -> Vec<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        for s in &self.slices {
            let local = f(&s.cell.lock().frag);
            out.extend(local.into_iter().take_while(|&r| r < s.clip).map(|r| s.base + r));
        }
        out
    }

    /// The visible row positions, ascending in the flattened space.
    pub fn visible_positions(&self) -> Vec<u64> {
        self.positions(|frag| frag.visible_positions().collect())
    }

    /// Splits the ascending positions `rposs` over the cells and calls `f`
    /// for each cell holding any, under its one lock, with its fragment, the
    /// index range of its positions in `rposs` and its first position.
    /// Fails when a position lies past the snapshot.
    fn per_cell(
        &self,
        rposs: &[u64],
        mut f: impl FnMut(&DeltaFragment, Range<usize>, u64) -> TableResult<()>,
    ) -> TableResult<()> {
        debug_assert!(rposs.is_sorted(), "delta positions must ascend");
        let mut start = 0;
        for s in &self.slices {
            let end = start + rposs[start..].partition_point(|&r| r < s.base + s.clip);
            if end > start {
                f(&s.cell.lock().frag, start..end, s.base)?;
            }
            start = end;
        }
        if let Some(rpos) = rposs.get(start) {
            return Err(TableError::Invalid(format!("delta row {rpos} out of snapshot range")));
        }
        Ok(())
    }

    /// Extends each row of `rows` by the values of columns `cols` at the
    /// ascending position of `rposs` at the same index, as
    /// [`payg_core::column::materialize`] does for a main fragment: one lock
    /// per cell.
    pub fn materialize(&self, cols: &[usize], rposs: &[u64], rows: &mut [Row]) -> TableResult<()> {
        self.per_cell(rposs, |frag, at, base| {
            frag.materialize(cols, rposs[at.clone()].iter().map(|r| r - base), &mut rows[at])
        })
    }

    /// Calls `f` with each distinct key of column `col` at the ascending
    /// positions `rposs` and the number of them holding it, cell by cell
    /// under one lock each: only keys leave a cell.
    pub(crate) fn key_counts(
        &self,
        col: usize,
        rposs: &[u64],
        mut f: impl FnMut(&[u8], u64) -> TableResult<()>,
    ) -> TableResult<()> {
        self.per_cell(rposs, |frag, at, base| {
            frag.key_counts(col, rposs[at].iter().map(|r| r - base), &mut f)
        })
    }

    /// Visible row positions whose column `col` matches `pred`, ascending
    /// in the flattened space.
    pub fn find_rows(&self, col: usize, pred: &KeyPredicate) -> Vec<u64> {
        self.positions(|frag| frag.find_rows(col, pred))
    }

    /// Heap bytes of the viewed cells (shared, not exclusively owned).
    pub fn heap_bytes(&self) -> usize {
        self.slices.iter().map(|s| s.cell.lock().frag.heap_bytes()).sum()
    }
}

/// A snapshot handle to one partition: spec, pinned main fragment, and the
/// delta view as of the owning snapshot. This is the public face of a
/// partition — the direct `{main, delta}` pair of the single-caller era,
/// now pinned to a version.
pub struct Partition {
    spec: PartitionSpec,
    /// The range as keys, for pruning.
    pub(crate) bounds: KeyRange,
    main: Arc<MainHandle>,
    delta: DeltaView,
}

impl Partition {
    pub(crate) fn pin(pv: &PartitionVersion, active_mark: u64) -> Self {
        Partition {
            spec: pv.spec.clone(),
            bounds: pv.bounds.clone(),
            main: Arc::clone(&pv.main),
            delta: DeltaView::new(pv, active_mark),
        }
    }

    /// The partition's configuration.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// The read-optimized fragment, pinned: a running merge replaces the
    /// table's current main but never this one, and its page chains are not
    /// retired while this handle is alive.
    pub fn main(&self) -> &MainFragment {
        self.main.frag()
    }

    /// The write-optimized side as of the snapshot: frozen cells plus the
    /// active delta clipped to the snapshot's watermark.
    pub fn delta(&self) -> &DeltaView {
        &self.delta
    }

    /// Visible rows across both fragments.
    pub fn visible_rows(&self) -> u64 {
        self.main_frag().visible_rows() + self.delta_view().visible_rows()
    }

    /// Crate-internal accessor (the `snapshot-escape` lint reserves the
    /// `.main()` spelling for code outside `crates/table/src`).
    pub(crate) fn main_frag(&self) -> &MainFragment {
        self.main.frag()
    }

    /// Crate-internal accessor, as [`Partition::main_frag`].
    pub(crate) fn delta_view(&self) -> &DeltaView {
        &self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionRange;
    use crate::schema::ColumnSpec;
    use payg_core::{DataType, LoadPolicy, Value, ValuePredicate};
    use proptest::prelude::*;

    const TYPES: [DataType; 4] =
        [DataType::Integer, DataType::Decimal, DataType::Double, DataType::Varchar];

    /// Per column, the values its cells draw from: the type's edges.
    fn pools() -> [Vec<Value>; 4] {
        let doubles = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, f64::MIN_POSITIVE, 1.5, f64::INFINITY];
        let strings = ["", "a", "ab", "abc", "b", "\u{7f}", "a\u{10FFFF}", "\u{10FFFF}"];
        [
            [i64::MIN, -1, 0, 1, 42, i64::MAX].map(Value::Integer).to_vec(),
            [i128::MIN, -1, 0, 1, i128::MAX].map(Value::Decimal).to_vec(),
            doubles.into_iter().chain([f64::NAN]).map(Value::Double).collect(),
            strings.map(Value::from).to_vec(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The delta's key-domain search — dictionary probes and raw key
        /// comparisons, then an identifier scan — equals a
        /// `ValuePredicate::matches` fold over the same rows, across two
        /// frozen cells and an active cell clipped to a snapshot mark,
        /// with deleted rows in all three; and the batch reads return the
        /// visible rows themselves.
        #[test]
        fn delta_search_over_key_predicates_equals_a_value_fold(
            cells in prop::collection::vec((0usize..8, 0usize..8, 0usize..8, 0usize..8), 0..40),
            splits in (0usize..41, 0usize..41, 0usize..41),
            deletes in prop::collection::vec(0usize..40, 0..12),
            (col, kind) in (0usize..4, 0u8..4),
            picks in prop::collection::vec(0usize..8, 0..5),
        ) {
            let pools = pools();
            let pick = |(&i, pool): (&usize, &Vec<Value>)| pool[i % pool.len()].clone();
            let row = |&(a, b, c, d): &(usize, usize, usize, usize)| {
                [a, b, c, d].iter().zip(&pools).map(pick).collect()
            };
            let rows: Vec<Row> = cells.iter().map(row).collect();
            let n = rows.len();
            let deleted: Vec<usize> = deletes.iter().filter_map(|&d| d.checked_rem(n)).collect();
            let mut ends = [splits.0 % (n + 1), splits.1 % (n + 1)];
            ends.sort_unstable();
            let spec = |(c, &ty): (usize, &DataType)| ColumnSpec::new(format!("c{c}"), ty);
            let schema = Schema::new(TYPES.iter().enumerate().map(spec).collect()).unwrap();
            let cells: Vec<Arc<DeltaCell>> = [0..ends[0], ends[0]..ends[1], ends[1]..n]
                .into_iter()
                .map(|span| {
                    let cell = Arc::new(DeltaCell::new(&schema));
                    let mut st = cell.lock();
                    for row in &rows[span.clone()] {
                        st.frag.append(row).unwrap();
                    }
                    for &d in deleted.iter().filter(|&d| span.contains(d)) {
                        st.frag.delete((d - span.start) as u64);
                    }
                    drop(st);
                    cell
                })
                .collect();
            // The snapshot sees the frozen cells whole and the active one
            // up to its mark.
            let mark = (n - ends[1]) - splits.2 % (n - ends[1] + 1);
            let pv = PartitionVersion {
                spec: PartitionSpec::single(LoadPolicy::FullyResident),
                bounds: PartitionRange::All.bounds(),
                main: MainHandle::new(MainFragment::from_columns(Vec::new(), 0)),
                frozen: cells[..2].to_vec(),
                active: Arc::clone(&cells[2]),
            };
            let view = DeltaView::new(&pv, mark as u64);
            let seen = ends[1] + mark;

            let pool = &pools[col];
            let at = |i: usize| pool[i % pool.len()].clone();
            let (first, last) = (picks.first().map_or(0, |&i| i), picks.last().map_or(1, |&i| i));
            let pred = match (kind, at(first)) {
                (0, v) => ValuePredicate::Eq(v),
                (1, _) => ValuePredicate::In(picks.iter().map(|&i| at(i)).collect()),
                (3, Value::Varchar(s)) => {
                    ValuePredicate::StartsWith(s.chars().take(last % 3).collect())
                }
                (_, v) => ValuePredicate::Between(v, at(last)),
            };
            let visible: Vec<u64> =
                (0..seen).filter(|p| !deleted.contains(p)).map(|p| p as u64).collect();
            let expect: Vec<u64> =
                visible.iter().copied().filter(|&p| pred.matches(&rows[p as usize][col])).collect();
            let compiled = KeyPredicate::compile(&pred, TYPES[col]).unwrap();
            prop_assert_eq!(view.find_rows(col, &compiled), expect, "{:?} on column {}", pred, col);

            prop_assert_eq!(view.visible_positions(), visible.clone());
            prop_assert_eq!(view.visible_rows(), visible.len() as u64);
            let mut read = vec![Vec::new(); visible.len()];
            view.materialize(&[3, 0, 2, 1], &visible, &mut read).unwrap();
            for (got, &p) in read.iter().zip(&visible) {
                let want: Vec<Vec<u8>> =
                    [3, 0, 2, 1].iter().map(|&c| rows[p as usize][c].to_key()).collect();
                prop_assert_eq!(got.iter().map(Value::to_key).collect::<Vec<_>>(), want);
            }
            let past = view.materialize(&[0], &[seen as u64], &mut [Vec::new()]);
            prop_assert!(past.is_err(), "past the snapshot");
        }
    }
}

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
use crate::schema::Schema;
use crate::TableResult;
use payg_core::{Value, ValuePredicate};
use payg_obs::Gauge;
use payg_storage::{BufferPool, ChainId};
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

    fn locate(&self, rpos: u64) -> Option<(&DeltaSlice, u64)> {
        self.slices
            .iter()
            .find(|s| rpos >= s.base && rpos < s.base + s.clip)
            .map(|s| (s, rpos - s.base))
    }

    /// Total rows in view (including deleted).
    pub fn rows(&self) -> u64 {
        self.slices.iter().map(|s| s.clip).sum()
    }

    /// Visible (non-deleted) rows in view.
    pub fn visible_rows(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| {
                let st = s.cell.lock();
                (0..s.clip).filter(|&r| st.frag.is_visible(r)).count() as u64
            })
            .sum()
    }

    /// True when the view holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// True when `rpos` is visible.
    pub fn is_visible(&self, rpos: u64) -> bool {
        match self.locate(rpos) {
            Some((s, local)) => s.cell.lock().frag.is_visible(local),
            None => false,
        }
    }

    /// The value at (`rpos`, `col`).
    pub fn value(&self, rpos: u64, col: usize, schema: &Schema) -> TableResult<Value> {
        let (s, local) = self.locate(rpos).ok_or_else(|| {
            crate::TableError::Invalid(format!("delta row {rpos} out of snapshot range"))
        })?;
        s.cell.lock().frag.value(local, col, schema)
    }

    /// Visible row positions matching `pred` on `col`, ascending in the
    /// flattened space.
    pub fn find_rows(
        &self,
        col: usize,
        pred: &ValuePredicate,
        schema: &Schema,
    ) -> TableResult<Vec<u64>> {
        let mut out = Vec::new();
        for s in &self.slices {
            let st = s.cell.lock();
            for local in st.frag.find_rows(col, pred, schema)? {
                if local < s.clip {
                    out.push(s.base + local);
                }
            }
        }
        Ok(out)
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
    main: Arc<MainHandle>,
    delta: DeltaView,
}

impl Partition {
    pub(crate) fn pin(pv: &PartitionVersion, active_mark: u64) -> Self {
        Partition {
            spec: pv.spec.clone(),
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

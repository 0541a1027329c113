//! The buffer pool: load-on-miss page frames with RAII pin guards.

use crate::iostage::{FetchRequest, IoStage, Ticket, DEFAULT_IO_WORKERS};
use crate::metrics::{MetricCounters, ShardCounters, ShardMetrics};
use crate::store::{real_sleeper, Sleeper};
use crate::sync::{Condvar, LockRank, Mutex, MutexGuard};
use crate::{ChainId, PageKey, PageMap, PageStore, PoolMetrics, StorageError, StorageResult};
use payg_check::{PinToken, PinTracker};
use payg_obs::{EventKind, Registry, SpanKind, Tracer};
use payg_resman::{Disposition, ResourceHandle, ResourceManager};
use std::ops::Deref;
use std::panic::Location;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Default number of lock-striped shards (a power of two; plenty for the
/// worker counts the scan experiments use).
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// Warm hits are timed one in this many per shard (the shard's 1st, 65th,
/// … hit): an unsampled hit reads no clock, because a clock pair costs as
/// much as the rest of the hit. `pool_pin_ns` is that sample; the `hits`
/// counters stay exact.
const PIN_SAMPLE_EVERY: u64 = 64;

/// One resident page. Page data is immutable after load (main fragments are
/// read-only between delta merges), so frames can be shared freely.
pub struct Frame {
    key: PageKey,
    data: Box<[u8]>,
    /// The frame's resource: its pin word is what guards pin and unpin, and
    /// what eviction claims — no manager lock on either side of a hit.
    pub(crate) resource: ResourceHandle,
}

/// How one in-flight single-flight load ended.
enum LoadOutcome {
    Pending,
    /// The frame was published into the shard; waiters re-inspect and hit.
    Published,
    /// The load failed; waiters receive the loader's actual error instead
    /// of blindly retrying as loaders.
    Failed(Arc<StorageError>),
}

/// Tracks one in-flight page load so concurrent pins of the same key wait
/// for the loading thread instead of issuing duplicate reads.
pub(crate) struct LoadState {
    outcome: Mutex<LoadOutcome>,
    cv: Condvar,
}

impl LoadState {
    fn new() -> Arc<Self> {
        Arc::new(LoadState {
            outcome: Mutex::with_rank(LoadOutcome::Pending, LockRank::LoadState),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn publish(&self) {
        *self.outcome.lock() = LoadOutcome::Published;
        self.cv.notify_all();
    }

    pub(crate) fn fail(&self, error: Arc<StorageError>) {
        *self.outcome.lock() = LoadOutcome::Failed(error);
        self.cv.notify_all();
    }

    /// Blocks until the load resolves. `None` means the frame was published
    /// (re-inspect the shard); `Some(e)` carries the loader's error.
    fn wait(&self) -> Option<Arc<StorageError>> {
        let mut outcome = self.outcome.lock();
        loop {
            match &*outcome {
                LoadOutcome::Pending => self.cv.wait(&mut outcome),
                LoadOutcome::Published => return None,
                LoadOutcome::Failed(e) => return Some(Arc::clone(e)),
            }
        }
    }
}

/// A shard's slot: either a resident frame or a load in flight.
pub(crate) enum Slot {
    Resident(Arc<Frame>),
    Loading(Arc<LoadState>),
}

/// A quarantined page: load failed permanently; pins fail fast until
/// `pins_left` drains to zero, then the store is retried.
struct QuarantineEntry {
    error: Arc<StorageError>,
    pins_left: u32,
}

/// Everything a shard guards under its stripe lock: the frame/load slots
/// plus the quarantine set for keys hashing to this stripe.
pub(crate) struct ShardState {
    pub(crate) slots: PageMap<Slot>,
    quarantine: PageMap<QuarantineEntry>,
}

pub(crate) struct Shard {
    state: Mutex<ShardState>,
    counters: ShardCounters,
}

impl Shard {
    fn new(registry: &Registry, pool_label: &str, index: usize) -> Self {
        Shard {
            state: Mutex::with_rank(
                ShardState { slots: PageMap::default(), quarantine: PageMap::default() },
                LockRank::PoolShard,
            ),
            counters: ShardCounters::register(registry, pool_label, index),
        }
    }

    /// Locks the shard state, counting acquisitions that had to block.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardState> {
        match self.state.try_lock() {
            Some(guard) => guard,
            None => {
                self.counters.contended.inc();
                self.state.lock()
            }
        }
    }
}

/// Bounded retry with exponential backoff for transient load faults.
/// Attempt `k`'s failure sleeps `initial_backoff * multiplier^(k-1)` before
/// attempt `k+1`; permanent (corrupt/logical) faults never retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total load attempts, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub initial_backoff: Duration,
    /// Backoff growth factor per additional attempt.
    pub multiplier: u32,
}

impl RetryPolicy {
    /// No retries: a single attempt, faults surface immediately (the
    /// pre-fault-tolerance pool behavior).
    pub const NONE: RetryPolicy =
        RetryPolicy { max_attempts: 1, initial_backoff: Duration::ZERO, multiplier: 1 };

    /// Backoff after `failed_attempts` (1-based) have failed.
    pub fn backoff_for(&self, failed_attempts: u32) -> Duration {
        self.initial_backoff * self.multiplier.saturating_pow(failed_attempts.saturating_sub(1))
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 100µs then 400µs of backoff — absorbs the short
    /// transient hiccups real disks produce without adding meaningful
    /// latency to genuinely failed pins.
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, initial_backoff: Duration::from_micros(100), multiplier: 4 }
    }
}

/// Construction-time pool tuning: shard count, fault tolerance, I/O depth.
/// [`Default`] matches `BufferPool::new`.
#[derive(Clone)]
pub struct PoolConfig {
    /// Number of lock stripes (clamped to at least 1).
    pub shards: usize,
    /// Bounded retry for transient load faults.
    pub retry: RetryPolicy,
    /// Fail-fast pins a quarantined page serves before the store is retried.
    pub quarantine_ttl: u32,
    /// Maximum quarantined pages per shard; inserting beyond it evicts the
    /// entry closest to expiry.
    pub quarantine_cap: usize,
    /// Where retry backoff is spent; tests inject a recording sleeper.
    pub sleeper: Sleeper,
    /// Worker threads of the cold-path I/O stage every miss goes through —
    /// the physical reads in flight at once. `0` makes the stage
    /// caller-drained: every submit runs the queue on its own thread (what
    /// model-check builds use; nothing overlaps).
    pub io_workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            shards: DEFAULT_SHARD_COUNT,
            retry: RetryPolicy::default(),
            quarantine_ttl: 8,
            quarantine_cap: 32,
            sleeper: real_sleeper(),
            io_workers: DEFAULT_IO_WORKERS,
        }
    }
}

pub(crate) struct PoolInner {
    pub(crate) store: Arc<dyn PageStore>,
    pub(crate) resman: ResourceManager,
    pub(crate) retry: RetryPolicy,
    quarantine_ttl: u32,
    quarantine_cap: usize,
    pub(crate) sleeper: Sleeper,
    shards: Box<[Shard]>,
    pub(crate) metrics: MetricCounters,
    /// The resman's registry; this pool's counters live in it under a
    /// `pool="<instance>"` label.
    registry: Registry,
    /// The value of that `pool` label, kept so structure builders can emit
    /// their own per-pool series (codec bytes, compression ratios) that
    /// join this pool's.
    label: String,
    /// The registry's page-lifecycle tracer (cached: emit is on hot paths).
    pub(crate) tracer: Tracer,
    /// Pin-leak detector (`strict-invariants` only; zero-sized otherwise).
    pins: PinTracker,
    /// The cold-path I/O stage. Dropped with the pool: closing the queue
    /// joins the workers.
    stage: IoStage,
}

impl PoolInner {
    pub(crate) fn shard(&self, key: PageKey) -> &Shard {
        // The mix's low word scaled onto the shard count (multiply-shift:
        // no division, any count). That reads the word's *top* bits; the
        // shard maps bucket by its bottom bits and tag by the mix's top
        // ones, so a stripe's keys still spread over its map.
        let word = key.mix() & 0xFFFF_FFFF;
        &self.shards[((word * self.shards.len() as u64) >> 32) as usize]
    }

    /// Inserts `key` into the shard's capped quarantine set. `span` is the
    /// requesting pin's, which the `PageQuarantined` event carries.
    pub(crate) fn quarantine(
        &self,
        state: &mut ShardState,
        key: PageKey,
        span: u64,
        error: Arc<StorageError>,
    ) {
        if state.quarantine.len() >= self.quarantine_cap && !state.quarantine.contains_key(&key) {
            // Capped: drop the entry closest to expiry (fewest pins left).
            if let Some(evict) = state
                .quarantine
                .iter()
                .min_by_key(|(_, e)| e.pins_left)
                .map(|(k, _)| *k)
            {
                state.quarantine.remove(&evict);
            }
        }
        state
            .quarantine
            .insert(key, QuarantineEntry { error, pins_left: self.quarantine_ttl });
        self.metrics.quarantine_inserts.inc();
        self.tracer.emit_tagged(EventKind::PageQuarantined, key.chain.0, key.page_no, 0, span, 0);
    }

    /// Accounts a successfully read page and registers its frame (pinned)
    /// with the resource manager. The caller owns the registration pin: it
    /// rides the ticket to the submitter and becomes its `PageGuard`'s pin.
    /// `span` is the requesting pin's, which the `PageLoaded` event carries:
    /// the I/O stage admits frames on its own threads.
    pub(crate) fn admit_frame(
        self: &Arc<Self>,
        key: PageKey,
        span: u64,
        data: Box<[u8]>,
    ) -> Arc<Frame> {
        self.metrics.loads.inc();
        self.metrics.bytes_loaded.add(data.len() as u64);
        let bytes = data.len() as u64;
        self.tracer.emit_tagged(EventKind::PageLoaded, key.chain.0, key.page_no, bytes, span, 0);
        let size = data.len();
        let pool_weak: Weak<PoolInner> = Arc::downgrade(self);
        // Cyclic: the eviction callback needs the frame, the frame needs the
        // handle registration returns. The callback cannot run before the
        // frame exists — the resource is registered pinned.
        Arc::new_cyclic(|frame_weak: &Weak<Frame>| {
            let frame_weak = Weak::clone(frame_weak);
            let resource =
                self.resman.register_pinned(size, Disposition::PagedAttribute, move || {
                    if let (Some(pool), Some(frame)) = (pool_weak.upgrade(), frame_weak.upgrade()) {
                        pool.unlink_evicted(&frame);
                    }
                });
            Frame { key, data, resource }
        })
    }

    /// The eviction callback of `frame`'s resource: the manager has claimed
    /// it, so unlink the slot.
    fn unlink_evicted(&self, frame: &Arc<Frame>) {
        {
            let mut state = self.shard(frame.key).lock();
            // Only remove the exact frame this resource backs; a newer
            // frame or an in-flight load may already occupy the key.
            if matches!(
                state.slots.get(&frame.key),
                Some(Slot::Resident(cur)) if Arc::ptr_eq(cur, frame)
            ) {
                state.slots.remove(&frame.key);
            }
        }
        // Emitted after the shard lock drops.
        let bytes = frame.data.len() as u64;
        self.tracer.emit(EventKind::PageEvicted, frame.key.chain.0, frame.key.page_no, bytes);
    }

    /// The guard for a frame whose pin the caller already holds (a hit's
    /// pin-word increment, or a load's registration pin).
    fn guard(&self, frame: Arc<Frame>, caller: &'static Location<'static>) -> PageGuard {
        let pin_token = self.pins.pin(|| pin_owner(&frame, caller));
        PageGuard { frame, pin_token }
    }

    /// Drops every resident frame of `state` that `select`s and nobody
    /// pins, deregistering its resource.
    /// "Unpinned" is the manager's definition: `deregister` claims the pin
    /// word exactly as an eviction does, so a frame with a live guard — or
    /// one a concurrent eviction already claimed, whose callback will remove
    /// it — stays, whoever else happens to hold an `Arc` to it.
    fn release_unpinned(&self, state: &mut ShardState, select: impl Fn(&PageKey) -> bool) {
        state.slots.retain(|key, slot| {
            let Slot::Resident(frame) = slot else {
                return true;
            };
            !select(key) || !self.resman.deregister(&frame.resource)
        });
    }
}

fn pin_owner(frame: &Frame, caller: &Location<'_>) -> String {
    format!("page {:?} pinned at {caller}", frame.key)
}

/// What `pin` decided to do after inspecting the shard slot.
enum PinAction {
    Hit(Arc<Frame>),
    Load(Arc<LoadState>),
    Wait(Arc<LoadState>),
    /// The key is quarantined: fail without touching the store.
    FailFast(StorageError),
}

/// The buffer pool for page-loadable structures.
///
/// Every loaded page is registered with the resource manager as a separate
/// resource with [`Disposition::PagedAttribute`]; eviction (reactive or
/// proactive) drops the frame and its bytes. Pinned pages (live
/// [`PageGuard`]s) are never evicted.
///
/// Concurrency: the frame map is **lock-striped** over
/// [`DEFAULT_SHARD_COUNT`] shards keyed by page-key hash, so pins of
/// different pages rarely contend. A miss installs a per-key *load state*
/// and performs the store read **outside** the shard lock; concurrent pins
/// of the same key block on that load state rather than issuing duplicate
/// reads ("single-flight" loads).
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Creates a pool over `store`, registering loads with `resman`.
    pub fn new(store: Arc<dyn PageStore>, resman: ResourceManager) -> Self {
        Self::with_config(store, resman, PoolConfig::default())
    }

    /// Creates a pool with full construction-time tuning — fault-tolerance
    /// tests use this to inject deterministic retry backoff and small
    /// quarantine TTLs.
    pub fn with_config(store: Arc<dyn PageStore>, resman: ResourceManager, config: PoolConfig) -> Self {
        let shards = config.shards.max(1);
        // Report into the resman's registry so pool and resman series land
        // in one snapshot. Each pool instance gets its own label: metrics()
        // reads this pool's handles only, never another instance's.
        let registry = resman.registry().clone();
        let pool_label = registry.next_instance("pool").to_string();
        // `new_cyclic` lets the I/O stage workers hold a weak back-pointer:
        // they never keep the pool alive, and pool drop closes their queue.
        let inner = Arc::new_cyclic(|weak: &Weak<PoolInner>| PoolInner {
            store,
            resman,
            retry: config.retry,
            quarantine_ttl: config.quarantine_ttl.max(1),
            quarantine_cap: config.quarantine_cap.max(1),
            sleeper: config.sleeper,
            shards: (0..shards)
                .map(|i| Shard::new(&registry, &pool_label, i))
                .collect(),
            metrics: MetricCounters::register(&registry, &pool_label),
            tracer: registry.tracer().clone(),
            registry,
            label: pool_label,
            pins: PinTracker::new(),
            stage: IoStage::start(weak, config.io_workers),
        });
        BufferPool { inner }
    }

    /// The metric registry this pool reports into (the resource manager's).
    /// Its tracer carries the pool's page-lifecycle events.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The value of this pool's `pool` metric label. Structure builders use
    /// it to emit per-pool series (per-codec chain bytes, compression
    /// ratios) that join the pool's own.
    pub fn metrics_label(&self) -> &str {
        &self.inner.label
    }

    /// True when `other` is a handle to this same pool (page keys of one
    /// are meaningful to the other).
    pub fn same_pool(&self, other: &BufferPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.inner.store
    }

    /// The resource manager this pool registers loads with.
    pub fn resource_manager(&self) -> &ResourceManager {
        &self.inner.resman
    }

    /// Pins a page, loading it on a miss. The returned guard keeps the page
    /// resident until dropped. Concurrent pins of the same absent page
    /// perform one store read between them.
    #[track_caller]
    pub fn pin(&self, key: PageKey) -> StorageResult<PageGuard> {
        self.pin_at(key, Location::caller())
    }

    /// Inspects `key`'s shard slot under the stripe lock and decides what a
    /// pin of it must do. A hit takes its pin here — one CAS on the frame's
    /// pin word, no manager lock; a miss installs the single-flight
    /// `Loading` slot this pin now owns.
    fn classify(&self, shard: &Shard, key: PageKey) -> PinAction {
        let mut state = shard.lock();
        // Quarantine gate: a permanently failed page serves fail-fast
        // errors (no store traffic) until its pin-count TTL drains. A
        // healthy shard's set is empty and costs no hash.
        let quarantined =
            if state.quarantine.is_empty() { None } else { state.quarantine.get_mut(&key) };
        if let Some(entry) = quarantined {
            entry.pins_left -= 1;
            let err = StorageError::Quarantined {
                key,
                pins_until_retry: entry.pins_left,
                source: Arc::clone(&entry.error),
            };
            if entry.pins_left == 0 {
                // Expired: the *next* pin retries the store.
                state.quarantine.remove(&key);
            }
            return PinAction::FailFast(err);
        }
        match state.slots.get(&key) {
            Some(Slot::Resident(frame)) if frame.resource.pin() => {
                // Counters and events happen outside the lock.
                PinAction::Hit(Arc::clone(frame))
            }
            Some(Slot::Loading(ls)) => PinAction::Wait(Arc::clone(ls)),
            // Absent — or claimed by an eviction whose callback has not
            // unlinked the slot yet (the pin saw `EVICTED`): replace the
            // stale frame with a fresh load.
            Some(Slot::Resident(_)) | None => {
                let ls = LoadState::new();
                state.slots.insert(key, Slot::Loading(Arc::clone(&ls)));
                PinAction::Load(ls)
            }
        }
    }

    fn pin_at(&self, key: PageKey, caller: &'static Location<'static>) -> StorageResult<PageGuard> {
        let shard = self.inner.shard(key);
        // An unsampled warm hit reads no clock; a cold pin starts timing
        // when it learns it is cold (the classify before that is noise at
        // load scale), so `load_ns` still holds every cold pin.
        let mut started =
            shard.counters.hits.get().is_multiple_of(PIN_SAMPLE_EVERY).then(Instant::now);
        // Whether this pin touched a cold path (started or joined a load):
        // cold pins record into `load_ns`, pure hits into `pin_ns`, so the
        // warm histogram stays readable at nanosecond scale.
        let mut cold = false;
        let guard = loop {
            match self.classify(shard, key) {
                PinAction::Hit(frame) => {
                    shard.counters.hits.inc();
                    break self.inner.guard(frame, caller);
                }
                PinAction::Load(ls) => {
                    cold = true;
                    started.get_or_insert_with(Instant::now);
                    shard.counters.misses.inc();
                    let frame = self.load_wave(vec![(key, ls)]).pop().unwrap_or_else(|| {
                        unreachable!("one result per load")
                    })?;
                    break self.inner.guard(frame, caller);
                }
                PinAction::Wait(ls) => {
                    cold = true;
                    started.get_or_insert_with(Instant::now);
                    // Wait outside the shard lock. The loader publishes a
                    // resident frame (hit next round) or fails — in which
                    // case we surface its actual error instead of blindly
                    // retrying as a loader.
                    self.inner.metrics.load_waits.inc();
                    self.inner
                        .tracer
                        .emit(EventKind::SingleFlightWait, key.chain.0, key.page_no, 0);
                    // Spans the blocked stretch so explain_analyze can
                    // attribute it (closed when the arm's scope ends).
                    let _wait_span = self.inner.tracer.span(SpanKind::PageWait, key.page_no);
                    if let Some(err) = ls.wait() {
                        // A failed pin is a miss: every pin lands in exactly
                        // one of hits/misses, errors included.
                        shard.counters.misses.inc();
                        return Err(StorageError::LoadFailed { key, source: err });
                    }
                }
                PinAction::FailFast(err) => {
                    shard.counters.misses.inc();
                    self.inner.metrics.quarantine_fail_fast.inc();
                    return Err(err);
                }
            }
        };
        if let Some(started) = started {
            let elapsed = started.elapsed().as_nanos() as u64;
            if cold {
                self.inner.metrics.load_ns.record(elapsed);
            } else {
                self.inner.metrics.pin_ns.record(elapsed);
            }
        }
        Ok(self.pinned(key, guard))
    }

    /// Pins every page of `keys` — the batched form of [`BufferPool::pin`],
    /// with the same per-key result (bytes or typed error) and the same
    /// accounting as pinning the keys one after another (`hits + misses ==
    /// keys.len()`, one load per absent page), but the misses overlap: one
    /// pass classifies every key (hit / in flight / absent), all absent
    /// pages go to the I/O stage as **one wave** of requests under a
    /// single queue-lock acquisition, and the caller parks once until the
    /// wave has landed. N misses cost one hand-off and the slowest read
    /// instead of N hand-offs and the sum of the reads, and adjacent pages
    /// of a chain ride one ranged read.
    ///
    /// Hits are pinned during the pass and stay pinned while the wave
    /// loads, so the caller bounds `keys.len()` (its wave budget) — the
    /// pool pins whatever it is asked to. Keys already in flight — another
    /// thread's load, or an earlier duplicate in `keys` — are joined through
    /// the single-key path once the wave is in.
    #[track_caller]
    pub fn pin_many(&self, keys: &[PageKey]) -> Vec<StorageResult<PageGuard>> {
        let mut out = Vec::with_capacity(keys.len());
        self.pin_many_into(keys, &mut out);
        out
    }

    /// [`BufferPool::pin_many`] appending its per-key results to `out`: a
    /// caller that pins wave after wave reuses one guard vector.
    #[track_caller]
    pub fn pin_many_into(&self, keys: &[PageKey], out: &mut Vec<StorageResult<PageGuard>>) {
        let caller = Location::caller();
        if keys.len() < 2 {
            out.extend(keys.iter().map(|&key| self.pin_at(key, caller)));
            return;
        }
        let base = out.len();
        out.reserve(keys.len());
        // A slot of `out` this call fills in after the pass — the caller
        // never sees this value.
        let pending = |key| Err(StorageError::PageOutOfBounds { key, chain_len: 0 });
        // The pages this call loads (it installed their `Loading` slots)
        // and, in step, each one's slot in `out`.
        let mut wave: Vec<(PageKey, Arc<LoadState>)> = Vec::new();
        let mut wave_at: Vec<usize> = Vec::new();
        // Slots of the keys in flight when the pass saw them.
        let mut joins: Vec<usize> = Vec::new();
        let mut hits = 0u64;
        // The warm pass is sampled like single pins: when one of its hits
        // is a shard's 1st, 65th, … the pass records. The clock is read
        // only for what records — from the first sampled hit or the first
        // miss on, with the number of keys classified before it — so an
        // unsampled warm pass reads none.
        let mut sampled = false;
        let mut started: Option<(Instant, usize)> = None;
        for (i, &key) in keys.iter().enumerate() {
            let shard = self.inner.shard(key);
            // A hit's guard goes straight to its slot.
            out.push(match self.classify(shard, key) {
                PinAction::Hit(frame) => {
                    if (shard.counters.hits.add(1) - 1).is_multiple_of(PIN_SAMPLE_EVERY) {
                        sampled = true;
                        started.get_or_insert_with(|| (Instant::now(), i));
                    }
                    hits += 1;
                    Ok(self.pinned(key, self.inner.guard(frame, caller)))
                }
                PinAction::Load(ls) => {
                    started.get_or_insert_with(|| (Instant::now(), i));
                    shard.counters.misses.inc();
                    wave.push((key, ls));
                    wave_at.push(out.len());
                    pending(key)
                }
                PinAction::Wait(_) => {
                    joins.push(out.len());
                    pending(key)
                }
                PinAction::FailFast(err) => {
                    shard.counters.misses.inc();
                    self.inner.metrics.quarantine_fail_fast.inc();
                    Err(err)
                }
            });
        }
        if let (true, Some((since, from))) = (sampled, started) {
            // One clock read for the keys from the first timed on: each hit
            // records their share.
            let per_hit = since.elapsed().as_nanos() as u64 / (keys.len() - from) as u64;
            self.inner.metrics.pin_ns.record_n(per_hit, hits);
        }
        if let (false, Some((since, _))) = (wave.is_empty(), started) {
            let frames = self.load_wave(wave);
            let waited = since.elapsed().as_nanos() as u64;
            for (at, frame) in wave_at.into_iter().zip(frames) {
                self.inner.metrics.load_ns.record(waited);
                let key = keys[at - base];
                out[at] = frame.map(|f| self.pinned(key, self.inner.guard(f, caller)));
            }
        }
        // In flight when the pass saw it: join (or, if that load failed or
        // was a duplicate of ours, re-inspect) now that the wave is in.
        for at in joins {
            out[at] = self.pin_at(keys[at - base], caller);
        }
    }

    /// Traces the pin `guard` of `key` and hands the guard back.
    fn pinned(&self, key: PageKey, guard: PageGuard) -> PageGuard {
        self.inner
            .tracer
            .emit(EventKind::PagePinned, key.chain.0, key.page_no, guard.bytes().len() as u64);
        guard
    }

    /// Fetches the pages this call was elected to load (it installed their
    /// `Loading` slots) and returns the pinned frames — the registration
    /// pin rides along — or each page's raw load error, in `loads` order.
    /// The misses become one wave of [`FetchRequest`]s and this
    /// thread parks once on a multi-slot completion ticket — the store
    /// reads happen in the I/O stage (shard lock *not* held), overlapped
    /// and coalesced with neighboring misses.
    fn load_wave(&self, loads: Vec<(PageKey, Arc<LoadState>)>) -> Vec<StorageResult<Arc<Frame>>> {
        // The originating span rides the requests so completions on stage
        // worker threads stay attributable to this query (provenance).
        let span = self.inner.tracer.current_span();
        let n = loads.len();
        let ticket = Ticket::new(n);
        let requests = loads
            .into_iter()
            .enumerate()
            .map(|(slot, (key, ls))| {
                self.inner
                    .tracer
                    .emit_tagged(EventKind::IoSubmitted, key.chain.0, key.page_no, 0, span, 0);
                FetchRequest { key, ls, ticket: Arc::clone(&ticket), slot, span }
            })
            .collect();
        let depth = self.inner.stage.submit(&self.inner, requests);
        self.inner.metrics.io_submitted.add(n as u64);
        self.inner.metrics.io_queue_depth.record(depth as u64);
        // The stage has already inserted the Resident slots, published the
        // load states, and (on failure) quarantined — the ticket only
        // transfers the pinned frames or the raw errors. One span covers
        // the parked stretch of the whole wave.
        let frames = {
            let _wait_span = self.inner.tracer.span(SpanKind::PageWait, n as u64);
            ticket.wait()
        };
        // The proactive unload is asynchronous (paper §5) and a wave grows
        // the pool faster than its worker may get scheduled: if this wave
        // left the paged pool over its upper limit, run the pass here, so
        // the overshoot stays bounded by one wave instead of by how long
        // the worker is starved. (The wave's own frames are still pinned.)
        self.inner.resman.assist_proactive();
        frames
    }

    /// True when the page is currently resident (regardless of pins).
    pub fn is_resident(&self, key: PageKey) -> bool {
        matches!(self.inner.shard(key).lock().slots.get(&key), Some(Slot::Resident(_)))
    }

    /// Number of resident frames.
    pub fn resident_pages(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .slots
                    .values()
                    .filter(|slot| matches!(slot, Slot::Resident(_)))
                    .count()
            })
            .sum()
    }

    /// True when the page is quarantined (pins fail fast without a store
    /// read until the TTL drains).
    pub fn is_quarantined(&self, key: PageKey) -> bool {
        self.inner.shard(key).lock().quarantine.contains_key(&key)
    }

    /// Number of quarantined pages across all shards.
    pub fn quarantined_pages(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().quarantine.len()).sum()
    }

    /// Empties the quarantine set — e.g. after the operator replaced the
    /// failing medium — so the next pin of each key retries the store
    /// immediately instead of draining its TTL.
    pub fn clear_quarantine(&self) {
        for shard in self.inner.shards.iter() {
            shard.lock().quarantine.clear();
        }
    }

    /// Drops every unpinned frame, deregistering its resource. Pinned frames
    /// and in-flight loads survive. Used to simulate a cold restart between
    /// experiment runs.
    pub fn clear(&self) {
        for shard in self.inner.shards.iter() {
            self.inner.release_unpinned(&mut shard.lock(), |_| true);
        }
    }

    /// Discards one chain wholesale: every unpinned resident frame of the
    /// chain is dropped (resource deregistered),
    /// its quarantine entries are forgotten, and the chain is deleted from
    /// the backing store. This is the table layer's version-retirement hook:
    /// it runs only once the last snapshot holding the owning fragment has
    /// dropped, so no scan can pin these pages again. In-flight loads and
    /// still-pinned frames are left alone — their guards keep working
    /// against the already-read bytes; the frames die on their next
    /// eviction sweep.
    pub fn discard_chain(&self, chain: ChainId) {
        for shard in self.inner.shards.iter() {
            let mut state = shard.lock();
            state.quarantine.retain(|key, _| key.chain != chain);
            self.inner.release_unpinned(&mut state, |key| key.chain == chain);
        }
        // Best-effort on the store side: a chain another path already
        // dropped (or a store without the page ever written) is fine — the
        // chain is unreachable from every live version either way.
        let _ = self.inner.store.drop_chain(chain);
    }

    /// Pool activity counters, rolled up over all shards.
    pub fn metrics(&self) -> PoolMetrics {
        let mut hits = 0;
        let mut misses = 0;
        let mut contended = 0;
        for s in self.inner.shards.iter() {
            let m = s.counters.snapshot();
            hits += m.hits;
            misses += m.misses;
            contended += m.contended;
        }
        PoolMetrics {
            loads: self.inner.metrics.loads.get(),
            hits,
            misses,
            bytes_loaded: self.inner.metrics.bytes_loaded.get(),
            load_waits: self.inner.metrics.load_waits.get(),
            contended,
            load_retries: self.inner.metrics.load_retries.get(),
            load_faults: self.inner.metrics.faults_transient.get()
                + self.inner.metrics.faults_corrupt.get()
                + self.inner.metrics.faults_logical.get(),
            quarantine_inserts: self.inner.metrics.quarantine_inserts.get(),
            quarantine_fail_fast: self.inner.metrics.quarantine_fail_fast.get(),
            io_submitted: self.inner.metrics.io_submitted.get(),
            io_coalesced: self.inner.metrics.io_coalesced.get(),
            io_completions: self.inner.metrics.io_completions.get(),
            io_physical_reads: self.inner.metrics.io_physical_reads.get(),
            io_shed: 0,
        }
    }

    /// Number of live [`PageGuard`]s as seen by the pin-leak detector.
    /// Always 0 unless the `strict-invariants` feature is enabled.
    pub fn live_pins(&self) -> usize {
        self.inner.pins.live_count()
    }

    /// Panics listing every leaked [`PageGuard`] (owner tag: pin call site
    /// and thread) when any guard is still live. No-op without the
    /// `strict-invariants` feature. Call at quiesce points where all
    /// guards are expected to have been dropped.
    pub fn assert_no_live_pins(&self, context: &str) {
        self.inner.pins.assert_none_live(context);
    }

    /// Per-shard hit/miss/contention counters, in shard order.
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        self.inner
            .shards
            .iter()
            .map(|s| s.counters.snapshot())
            .collect()
    }
}

/// RAII pin on one page. Dereferences to the page bytes. While any guard for
/// a page is alive, the resource manager will not evict it (§3.1.2: "pins
/// the page in memory to make sure the page does not get evicted by the
/// resource manager when it is being read").
pub struct PageGuard {
    frame: Arc<Frame>,
    /// Pin-leak detector token (`strict-invariants` only; zero-sized
    /// otherwise). Carries its own tracker handle, so a guard holds the
    /// frame and nothing of the pool.
    pin_token: PinToken,
}

impl PageGuard {
    /// The page's address.
    pub fn key(&self) -> PageKey {
        self.frame.key
    }

    /// The page bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.frame.data
    }

    /// Marks the page as recently used without re-pinning.
    pub fn touch(&self) {
        self.frame.resource.touch();
    }
}

impl Deref for PageGuard {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.frame.data
    }
}

impl Clone for PageGuard {
    #[track_caller]
    fn clone(&self) -> Self {
        // A clone is another pin (and a touch); pin can only fail for
        // evicted resources and a live guard prevents eviction.
        assert!(self.frame.resource.pin(), "pinned frame cannot vanish");
        let caller = Location::caller();
        PageGuard {
            frame: Arc::clone(&self.frame),
            pin_token: self.pin_token.fork(|| pin_owner(&self.frame, caller)),
        }
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.resource.unpin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChainId, MemStore};
    use payg_resman::PoolLimits;
    use std::sync::atomic::Ordering;

    fn pool_with_pages(n: u64, page_size: usize) -> (BufferPool, ChainId) {
        let store = MemStore::new();
        let chain = store.create_chain(page_size).unwrap();
        for i in 0..n {
            store.append_page(chain, &[i as u8; 8]).unwrap();
        }
        let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
        (pool, chain)
    }

    #[test]
    fn pin_loads_once_then_hits() {
        let (pool, chain) = pool_with_pages(3, 32);
        let key = PageKey::new(chain, 1);
        {
            let g = pool.pin(key).unwrap();
            assert_eq!(g[0], 1);
            assert_eq!(g.key(), key);
        }
        let _g2 = pool.pin(key).unwrap();
        let m = pool.metrics();
        assert_eq!(m.loads, 1);
        assert_eq!(m.hits, 1);
        assert_eq!(m.bytes_loaded, 32);
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn loaded_pages_are_paged_resources() {
        let (pool, chain) = pool_with_pages(2, 64);
        let _a = pool.pin(PageKey::new(chain, 0)).unwrap();
        let _b = pool.pin(PageKey::new(chain, 1)).unwrap();
        let stats = pool.resource_manager().stats();
        assert_eq!(stats.paged_bytes, 128);
        assert_eq!(stats.paged_count, 2);
    }

    #[test]
    fn eviction_drops_unpinned_frames_but_not_pinned() {
        let store = MemStore::new();
        let chain = store.create_chain(64).unwrap();
        for i in 0..4 {
            store.append_page(chain, &[i as u8]).unwrap();
        }
        let resman = ResourceManager::with_paged_limits(PoolLimits::new(0, usize::MAX));
        let pool = BufferPool::new(Arc::new(store), resman.clone());
        let pinned = pool.pin(PageKey::new(chain, 0)).unwrap();
        for i in 1..4 {
            drop(pool.pin(PageKey::new(chain, i)).unwrap());
        }
        assert_eq!(pool.resident_pages(), 4);
        // Reactive unload to the lower limit (0): everything unpinned goes.
        let freed = resman.reactive_unload();
        assert_eq!(freed, 3 * 64);
        assert_eq!(pool.resident_pages(), 1);
        assert!(pool.is_resident(PageKey::new(chain, 0)));
        assert_eq!(pinned[0], 0, "pinned page still readable");
        drop(pinned);
        assert_eq!(resman.reactive_unload(), 64);
        assert_eq!(pool.resident_pages(), 0);
        // Re-pinning reloads from the store.
        let g = pool.pin(PageKey::new(chain, 0)).unwrap();
        assert_eq!(g[0], 0);
        assert_eq!(pool.metrics().loads, 5);
    }

    #[test]
    fn clear_simulates_cold_restart() {
        let (pool, chain) = pool_with_pages(3, 32);
        let keep = pool.pin(PageKey::new(chain, 2)).unwrap();
        for i in 0..2 {
            drop(pool.pin(PageKey::new(chain, i)).unwrap());
        }
        pool.clear();
        assert_eq!(pool.resident_pages(), 1, "pinned page survives clear");
        assert_eq!(pool.resource_manager().stats().paged_count, 1);
        drop(keep);
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.resource_manager().stats().total_bytes, 0);
    }

    #[test]
    fn clear_decides_pinned_by_the_pin_word_not_by_who_holds_the_frame() {
        let (pool, chain) = pool_with_pages(2, 32);
        let (held, guarded) = (PageKey::new(chain, 0), PageKey::new(chain, 1));
        drop(pool.pin(held).unwrap());
        // A transient holder that is not a guard (a stage completion, a
        // resolved ticket): an extra `Arc<Frame>`, no pin.
        let holder = match pool.inner.shard(held).lock().slots.get(&held) {
            Some(Slot::Resident(frame)) => Arc::clone(frame),
            _ => panic!("page 0 is resident"),
        };
        let guard = pool.pin(guarded).unwrap();
        pool.clear();
        assert!(!pool.is_resident(held), "an unpinned frame goes, whoever holds an Arc to it");
        assert!(pool.is_resident(guarded), "a guarded frame survives");
        assert_eq!(pool.resource_manager().stats().paged_count, 1);
        assert!(!holder.resource.pin(), "the dropped frame's resource is gone for good");
        assert_eq!(guard[0], 1);
        // The same definition through discard_chain.
        drop(pool.pin(held).unwrap());
        pool.discard_chain(chain);
        assert!(!pool.is_resident(held) && pool.is_resident(guarded));
    }

    #[test]
    fn lock_free_pins_race_a_looping_unload_and_the_accounting_closes() {
        let store = MemStore::new();
        let chain = store.create_chain(64).unwrap();
        for i in 0..4u8 {
            store.append_page(chain, &[i; 8]).unwrap();
        }
        let resman = ResourceManager::new();
        resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
        let pool = BufferPool::with_config(
            Arc::new(store),
            resman.clone(),
            PoolConfig { shards: 2, ..PoolConfig::default() },
        );
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let pinners: Vec<_> = (0..8u64)
                .map(|t| {
                    let pool = &pool;
                    s.spawn(move || {
                        for i in 0..10_000u64 {
                            let page = (i + t) % 4;
                            let g = pool.pin(PageKey::new(chain, page)).unwrap();
                            assert_eq!(g[0], page as u8, "every guard reads its page's byte");
                            if i % 3 == 0 {
                                assert_eq!(g.clone()[7], page as u8);
                            }
                        }
                    })
                })
                .collect();
            // Evict everything unpinned, over and over, until the pinners
            // are done: every hit races a claim.
            let evictor = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    resman.reactive_unload();
                }
            });
            for p in pinners {
                p.join().unwrap();
            }
            done.store(true, Ordering::Release);
            evictor.join().unwrap();
        });
        assert_eq!(pool.live_pins(), 0);
        pool.assert_no_live_pins("pin/unload stress quiesce");
        let m = pool.metrics();
        assert_eq!(m.hits + m.misses, 80_000, "every pin is a hit or a miss");
        let stats = resman.stats();
        assert_eq!(stats.paged_bytes, pool.resident_pages() * 64, "paged bytes are the resident frames'");
        assert_eq!(m.loads, stats.reactive_evictions + pool.resident_pages() as u64);
        assert_eq!(resman.reactive_unload(), stats.paged_bytes, "nothing is left pinned");
        assert_eq!(pool.resident_pages(), 0);
    }

    #[test]
    fn read_errors_surface_as_err() {
        let store = crate::FaultyStore::new(MemStore::new(), crate::FaultPlan::None);
        let chain = store.create_chain(8).unwrap();
        store.append_page(chain, b"x").unwrap();
        store.set_plan(crate::FaultPlan::EveryNthRead(1));
        let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
        assert!(pool.pin(PageKey::new(chain, 0)).is_err());
        assert_eq!(pool.resident_pages(), 0, "failed load leaves no frame");
    }

    #[test]
    fn guard_clone_holds_second_pin() {
        let (pool, chain) = pool_with_pages(1, 16);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
        let g1 = pool.pin(PageKey::new(chain, 0)).unwrap();
        let g2 = g1.clone();
        drop(g1);
        // Still pinned through g2: reactive unload cannot evict it.
        assert_eq!(resman.reactive_unload(), 0);
        assert!(pool.is_resident(PageKey::new(chain, 0)));
        drop(g2);
        assert_eq!(resman.reactive_unload(), 16);
    }

    #[test]
    fn concurrent_pins_single_flight_one_load() {
        // Deterministic: the gate holds the in-flight window open until we
        // have *observed* that exactly one read reached the store. All
        // threads pin the same absent page; one read must reach the store.
        let store = Arc::new(crate::GateStore::new(MemStore::new()));
        let chain = store.create_chain(32).unwrap();
        store.append_page(chain, &[9; 8]).unwrap();
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn crate::PageStore>,
                                   ResourceManager::new());
        let key = PageKey::new(chain, 0);
        store.close();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    let g = pool.pin(key).unwrap();
                    assert_eq!(g[0], 9);
                });
            }
            // Single-flight: only the elected loader may appear at the
            // store, no matter how long the window stays open.
            store.wait_for_waiters(1);
            assert_eq!(store.waiting(), 1, "exactly one reader at the store");
            store.open();
        });
        let m = pool.metrics();
        assert_eq!(m.loads, 1, "single-flight: one store read");
        assert_eq!(m.hits + m.load_waits + m.loads, 8 + m.load_waits, "all pins accounted");
    }

    #[test]
    fn failed_load_wakes_waiters_who_retry() {
        // First read fails; a waiter must not hang, it retries and succeeds.
        let store = crate::FaultyStore::new(MemStore::new(), crate::FaultPlan::None);
        let chain = store.create_chain(16).unwrap();
        store.append_page(chain, &[3; 4]).unwrap();
        store.set_plan(crate::FaultPlan::EveryNthRead(2));
        let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
        let key = PageKey::new(chain, 0);
        let mut oks = 0;
        for _ in 0..4 {
            if pool.pin(key).is_ok() {
                oks += 1;
            }
        }
        assert!(oks >= 2, "retries after a failed load succeed");
        assert!(pool.is_resident(key));
    }

    /// A recording sleeper: captures each requested backoff instead of
    /// sleeping, so retry pacing is asserted deterministically.
    fn recording_sleeper() -> (Arc<std::sync::Mutex<Vec<std::time::Duration>>>, crate::Sleeper) {
        let slept: Arc<std::sync::Mutex<Vec<std::time::Duration>>> = Arc::default();
        let sleeper: crate::Sleeper = {
            let slept = Arc::clone(&slept);
            Arc::new(move |d| slept.lock().unwrap().push(d))
        };
        (slept, sleeper)
    }

    #[test]
    fn retry_absorbs_transient_faults_with_backoff() {
        let store = Arc::new(crate::FaultyStore::new(
            MemStore::new(),
            crate::FaultPlan::Transient { after: 0, count: 2 },
        ));
        let chain = store.create_chain(16).unwrap();
        store.append_page(chain, &[9; 16]).unwrap();
        let (slept, sleeper) = recording_sleeper();
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn crate::PageStore>,
            ResourceManager::new(),
            PoolConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    initial_backoff: std::time::Duration::from_millis(7),
                    multiplier: 3,
                },
                sleeper,
                ..PoolConfig::default()
            },
        );
        let g = pool.pin(PageKey::new(chain, 0)).expect("third attempt succeeds");
        assert_eq!(g[0], 9);
        assert_eq!(store.reads(), 3, "two failed attempts plus the success");
        assert_eq!(
            *slept.lock().unwrap(),
            vec![std::time::Duration::from_millis(7), std::time::Duration::from_millis(21)],
            "exponential backoff between attempts"
        );
        let m = pool.metrics();
        assert_eq!((m.loads, m.misses, m.hits), (1, 1, 0), "a retried load is still one miss");
        assert_eq!(m.load_retries, 2);
        assert_eq!(m.load_faults, 2, "absorbed faults still count");
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let store = Arc::new(crate::FaultyStore::new(MemStore::new(), crate::FaultPlan::None));
        let chain = store.create_chain(16).unwrap();
        store.append_page(chain, b"x").unwrap();
        store.set_plan(crate::FaultPlan::EveryNthRead(1));
        let (_, sleeper) = recording_sleeper();
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn crate::PageStore>,
            ResourceManager::new(),
            PoolConfig {
                retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
                sleeper,
                ..PoolConfig::default()
            },
        );
        let key = PageKey::new(chain, 0);
        let err = pool.pin(key).map(|_| ()).expect_err("every attempt fails");
        assert!(err.is_transient(), "the surfaced error keeps its class: {err}");
        assert_eq!(store.reads(), 2, "bounded: max_attempts store reads");
        assert!(!pool.is_quarantined(key), "transient failures do not quarantine");
        let m = pool.metrics();
        assert_eq!((m.loads, m.misses, m.load_retries, m.load_faults), (0, 1, 1, 2));
    }

    #[test]
    fn corrupt_load_quarantines_then_ttl_drains_and_recovers() {
        let store = Arc::new(crate::FaultyStore::new(MemStore::new(), crate::FaultPlan::None));
        let chain = store.create_chain(16).unwrap();
        store.append_page(chain, &[5; 16]).unwrap();
        let key = PageKey::new(chain, 0);
        store.set_plan(crate::FaultPlan::CorruptPages(vec![key]));
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn crate::PageStore>,
            ResourceManager::new(),
            PoolConfig { retry: RetryPolicy::NONE, quarantine_ttl: 2, ..PoolConfig::default() },
        );
        // Pin 1 reads the store, observes corruption, quarantines.
        assert!(matches!(pool.pin(key), Err(crate::StorageError::ChecksumMismatch { .. })));
        assert_eq!(store.reads(), 1, "corruption is never retried");
        assert!(pool.is_quarantined(key));
        // Pins 2-3 fail fast without store traffic, draining the TTL.
        assert!(matches!(
            pool.pin(key),
            Err(crate::StorageError::Quarantined { pins_until_retry: 1, .. })
        ));
        assert!(matches!(
            pool.pin(key),
            Err(crate::StorageError::Quarantined { pins_until_retry: 0, .. })
        ));
        assert_eq!(store.reads(), 1, "fail-fast pins never touch the store");
        assert!(!pool.is_quarantined(key), "TTL drained");
        // Pin 4: still corrupt — re-reads and re-quarantines.
        assert!(matches!(pool.pin(key), Err(crate::StorageError::ChecksumMismatch { .. })));
        assert_eq!(store.reads(), 2);
        assert!(pool.is_quarantined(key));
        // Medium replaced: clear quarantine, pin 5 succeeds.
        store.set_plan(crate::FaultPlan::None);
        pool.clear_quarantine();
        let g = pool.pin(key).unwrap();
        assert_eq!(g[0], 5);
        let m = pool.metrics();
        assert_eq!(m.quarantine_inserts, 2);
        assert_eq!(m.quarantine_fail_fast, 2);
        assert_eq!((m.hits, m.misses, m.loads), (0, 5, 1));
    }

    #[test]
    fn quarantine_cap_evicts_the_entry_closest_to_expiry() {
        let store = Arc::new(crate::FaultyStore::new(MemStore::new(), crate::FaultPlan::None));
        let chain = store.create_chain(16).unwrap();
        for i in 0..3u8 {
            store.append_page(chain, &[i; 4]).unwrap();
        }
        let keys: Vec<_> = (0..3).map(|p| PageKey::new(chain, p)).collect();
        store.set_plan(crate::FaultPlan::CorruptPages(keys.clone()));
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn crate::PageStore>,
            ResourceManager::new(),
            PoolConfig {
                retry: RetryPolicy::NONE,
                quarantine_cap: 2,
                shards: 1, // all keys share one quarantine set
                ..PoolConfig::default()
            },
        );
        for &k in &keys {
            assert!(pool.pin(k).is_err());
        }
        assert_eq!(pool.quarantined_pages(), 2, "cap bounds the set");
        assert!(pool.is_quarantined(keys[2]), "newest entry always present");
    }

    /// Satellite regression: a waiter parked on a single-flight load whose
    /// loader fails must receive the loader's actual error — not observe a
    /// generic removal and blindly retry as a loader.
    #[test]
    fn waiter_receives_the_loaders_actual_error() {
        let store = Arc::new(crate::GateStore::new(crate::FaultyStore::new(
            MemStore::new(),
            crate::FaultPlan::None,
        )));
        let chain = store.create_chain(16).unwrap();
        store.append_page(chain, b"doomed").unwrap();
        let key = PageKey::new(chain, 0);
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn crate::PageStore>,
            ResourceManager::new(),
            PoolConfig { retry: RetryPolicy::NONE, ..PoolConfig::default() },
        );
        store.close();
        std::thread::scope(|s| {
            let loader = {
                let pool = pool.clone();
                s.spawn(move || pool.pin(key).map(|_| ()))
            };
            // The loader is provably parked at the store before the waiter
            // starts, so the roles cannot swap.
            store.wait_for_waiters(1);
            let waiter = {
                let pool = pool.clone();
                s.spawn(move || pool.pin(key).map(|_| ()))
            };
            // Observe the waiter parked on the load state, then inject the
            // corruption and release the gate.
            while pool.metrics().load_waits < 1 {
                std::thread::yield_now();
            }
            store.inner().set_plan(crate::FaultPlan::CorruptPages(vec![key]));
            store.open();
            let loader_err = loader.join().unwrap().expect_err("loader sees corruption");
            let waiter_err = waiter.join().unwrap().expect_err("waiter must not hang or retry");
            assert!(matches!(loader_err, crate::StorageError::ChecksumMismatch { .. }));
            match waiter_err {
                crate::StorageError::LoadFailed { key: k, source } => {
                    assert_eq!(k, key);
                    assert!(
                        matches!(*source, crate::StorageError::ChecksumMismatch { .. }),
                        "waiter carries the loader's real cause, got {source}"
                    );
                }
                other => panic!("expected LoadFailed, got {other:?}"),
            }
        });
        let m = pool.metrics();
        assert_eq!((m.hits, m.misses, m.loads), (0, 2, 0), "both failed pins are misses");
        assert_eq!(m.load_waits, 1);
        assert_eq!(store.inner().reads(), 1, "the waiter never re-read the store");
        assert!(pool.is_quarantined(key), "corruption quarantines for later pins");
        pool.assert_no_live_pins("waiter error regression");
    }

    #[test]
    fn shard_metrics_roll_up_into_pool_metrics() {
        let store = MemStore::new();
        let chain = store.create_chain(32).unwrap();
        for i in 0..16 {
            store.append_page(chain, &[i as u8]).unwrap();
        }
        let pool = BufferPool::with_config(
            Arc::new(store),
            ResourceManager::new(),
            PoolConfig { shards: 4, ..PoolConfig::default() },
        );
        for i in 0..16 {
            drop(pool.pin(PageKey::new(chain, i)).unwrap());
            drop(pool.pin(PageKey::new(chain, i)).unwrap());
        }
        let shards = pool.shard_metrics();
        assert_eq!(shards.len(), 4);
        let m = pool.metrics();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), m.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), 16);
        assert_eq!(m.hits, 16);
        assert_eq!(m.loads, 16);
        // Keys spread over more than one stripe.
        assert!(shards.iter().filter(|s| s.misses > 0).count() > 1);
    }
}

//! The resource manager proper.

use crate::handle::{PinState, ResourceHandle};
use crate::proactive::ProactiveWorker;
use crate::sync::{LockRank, Mutex};
use crate::{Disposition, MemoryStats};
use payg_obs::{names, Counter, EventKind, Gauge, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lower/upper watermarks for the paged-attribute pool (paper §5).
///
/// When the pool exceeds `upper_bytes` the proactive unload evicts LRU until
/// `lower_bytes` is reached — even if plenty of memory is still available.
/// Under low memory, the reactive unload shrinks the pool to `lower_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLimits {
    /// Target the pool is shrunk to by either unload mechanism.
    pub lower_bytes: usize,
    /// Threshold whose crossing triggers the proactive unload.
    pub upper_bytes: usize,
}

impl PoolLimits {
    /// Creates limits, validating `lower <= upper`.
    pub fn new(lower_bytes: usize, upper_bytes: usize) -> Self {
        assert!(lower_bytes <= upper_bytes, "pool lower limit must not exceed upper limit");
        PoolLimits { lower_bytes, upper_bytes }
    }
}

type EvictFn = Box<dyn Fn() + Send + Sync>;

struct Entry {
    size: usize,
    disposition: Disposition,
    /// Pin count and last-touch tick, shared with the owner's handle.
    pin: Arc<PinState>,
    on_evict: EvictFn,
}

#[derive(Default)]
struct State {
    entries: HashMap<u64, Entry>,
    total_bytes: usize,
    paged_bytes: usize,
    paged_count: usize,
    /// Bytes committed to store reads currently in flight through the I/O
    /// stage: charged before the read is issued and released when the data
    /// either becomes a registered resource or the read fails, so the
    /// footprint series never under-reports a burst of batched loads.
    inflight_bytes: usize,
    inflight_count: usize,
}

/// The manager's metric handles, registered in its [`Registry`] under the
/// `resman_*` names. Eviction totals are counters; the accounting
/// aggregates (bytes, resource counts) are gauges refreshed under the
/// state lock whenever the totals change.
struct Obs {
    registry: Registry,
    total_bytes: Gauge,
    paged_bytes: Gauge,
    resource_count: Gauge,
    paged_count: Gauge,
    inflight_bytes: Gauge,
    inflight_count: Gauge,
    proactive_evictions: Counter,
    reactive_evictions: Counter,
    weighted_evictions: Counter,
    evicted_bytes: Counter,
    registrations: Counter,
}

impl Obs {
    fn register(registry: Registry) -> Self {
        Obs {
            total_bytes: registry.gauge(names::RESMAN_TOTAL_BYTES),
            paged_bytes: registry.gauge(names::RESMAN_PAGED_BYTES),
            resource_count: registry.gauge(names::RESMAN_RESOURCE_COUNT),
            paged_count: registry.gauge(names::RESMAN_PAGED_COUNT),
            inflight_bytes: registry.gauge(names::RESMAN_INFLIGHT_BYTES),
            inflight_count: registry.gauge(names::RESMAN_INFLIGHT_COUNT),
            proactive_evictions: registry.counter(names::RESMAN_PROACTIVE_EVICTIONS),
            reactive_evictions: registry.counter(names::RESMAN_REACTIVE_EVICTIONS),
            weighted_evictions: registry.counter(names::RESMAN_WEIGHTED_EVICTIONS),
            evicted_bytes: registry.counter(names::RESMAN_EVICTED_BYTES),
            registrations: registry.counter(names::RESMAN_REGISTRATIONS),
            registry,
        }
    }

    /// Refreshes the accounting gauges from the state totals. Called with
    /// the state lock held so gauge values never mix two states.
    fn sync(&self, st: &State) {
        self.total_bytes.set(st.total_bytes as u64);
        self.paged_bytes.set(st.paged_bytes as u64);
        self.resource_count.set(st.entries.len() as u64);
        self.paged_count.set(st.paged_count as u64);
        self.inflight_bytes.set(st.inflight_bytes as u64);
        self.inflight_count.set(st.inflight_count as u64);
    }
}

pub(crate) struct Inner {
    state: Mutex<State>,
    limits: Mutex<Option<PoolLimits>>,
    /// Logical LRU clock, shared with every pin state so a touch ticks it
    /// without reaching the manager.
    clock: Arc<AtomicU64>,
    // lint: allow(raw-counter) resource id allocator, not a metric
    next_id: AtomicU64,
    obs: Obs,
    proactive: Mutex<Option<ProactiveWorker>>,
}

/// The memory/resource manager. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct ResourceManager {
    inner: Arc<Inner>,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    /// Creates a manager with no paged-pool limits (nothing is evicted until
    /// explicitly requested or limits are set) and a fresh metric
    /// [`Registry`] of its own.
    pub fn new() -> Self {
        Self::with_registry(Registry::new())
    }

    /// Creates a manager that reports into an existing [`Registry`] —
    /// pools and tables built on this manager register their metrics in
    /// the same registry, so one snapshot captures the whole system.
    pub fn with_registry(registry: Registry) -> Self {
        ResourceManager {
            inner: Arc::new(Inner {
                state: Mutex::with_rank(State::default(), LockRank::ResmanState),
                limits: Mutex::with_rank(None, LockRank::ResmanLimits),
                clock: Arc::new(AtomicU64::new(0)),
                next_id: AtomicU64::new(1),
                obs: Obs::register(registry),
                proactive: Mutex::with_rank(None, LockRank::ResmanProactive),
            }),
        }
    }

    /// The metric registry this manager (and everything built on it)
    /// reports into.
    pub fn registry(&self) -> &Registry {
        &self.inner.obs.registry
    }

    /// Creates a manager with paged-pool limits and a running proactive
    /// unload worker.
    pub fn with_paged_limits(limits: PoolLimits) -> Self {
        let m = Self::new();
        m.set_paged_limits(Some(limits));
        m
    }

    /// Sets (or clears) the paged-pool limits. Setting limits starts the
    /// asynchronous proactive unload worker if not yet running.
    pub fn set_paged_limits(&self, limits: Option<PoolLimits>) {
        *self.inner.limits.lock() = limits;
        if limits.is_some() {
            let mut guard = self.inner.proactive.lock();
            if guard.is_none() {
                *guard = Some(ProactiveWorker::spawn(Arc::downgrade(&self.inner)));
            }
        }
        self.maybe_wake_proactive();
    }

    /// Sets (or clears) the paged-pool limits **without** starting the
    /// asynchronous proactive worker. Unload passes must then be driven
    /// explicitly via [`ResourceManager::proactive_unload`] or
    /// [`ResourceManager::reactive_unload`]. Deterministic tests and model
    /// checks use this so no unmanaged background thread races the schedule
    /// being explored.
    pub fn set_paged_limits_manual(&self, limits: Option<PoolLimits>) {
        *self.inner.limits.lock() = limits;
    }

    /// Current paged-pool limits, if any.
    pub fn paged_limits(&self) -> Option<PoolLimits> {
        *self.inner.limits.lock()
    }

    /// Registers a resource of `size` bytes. `on_evict` is invoked (outside
    /// all manager locks) when the manager evicts the resource; it must
    /// release the owner's memory and must not call back into the manager
    /// for this resource.
    pub fn register(
        &self,
        size: usize,
        disposition: Disposition,
        on_evict: impl Fn() + Send + Sync + 'static,
    ) -> ResourceHandle {
        self.register_with_pins(0, size, disposition, Box::new(on_evict))
    }

    /// Like [`ResourceManager::register`], but the resource starts with one
    /// pin already held, so it cannot be evicted before the caller's first
    /// [`ResourceHandle::unpin`]. This closes the race between registering
    /// a freshly loaded page and pinning it.
    pub fn register_pinned(
        &self,
        size: usize,
        disposition: Disposition,
        on_evict: impl Fn() + Send + Sync + 'static,
    ) -> ResourceHandle {
        self.register_with_pins(1, size, disposition, Box::new(on_evict))
    }

    fn register_with_pins(
        &self,
        pins: u32,
        size: usize,
        disposition: Disposition,
        on_evict: EvictFn,
    ) -> ResourceHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let state = PinState::new(pins, &self.inner.clock);
        {
            let mut st = self.inner.state.lock();
            st.total_bytes += size;
            if disposition.is_paged() {
                st.paged_bytes += size;
                st.paged_count += 1;
            }
            st.entries
                .insert(id, Entry { size, disposition, pin: Arc::clone(&state), on_evict });
            assert_accounting(&st);
            self.inner.obs.sync(&st);
        }
        self.inner.obs.registrations.inc();
        self.maybe_wake_proactive();
        ResourceHandle { id, state }
    }

    /// Removes an unpinned resource without invoking its eviction callback
    /// (the owner is releasing it voluntarily). "Unpinned" is decided the
    /// way eviction decides it — by claiming the pin word — so a later
    /// [`ResourceHandle::pin`] fails. Returns false when the resource is
    /// pinned (it stays registered) or was already gone (e.g. just evicted).
    pub fn deregister(&self, handle: &ResourceHandle) -> bool {
        let mut st = self.inner.state.lock();
        let removed = claim_entry(&mut st, handle.id).is_some();
        self.inner.obs.sync(&st);
        removed
    }

    /// Adjusts a resource's accounted size (e.g. a transient structure grew).
    pub fn resize(&self, handle: &ResourceHandle, new_size: usize) {
        {
            let mut st = self.inner.state.lock();
            let Some(e) = st.entries.get_mut(&handle.id) else { return };
            let old = e.size;
            let paged = e.disposition.is_paged();
            e.size = new_size;
            st.total_bytes = st.total_bytes - old + new_size;
            if paged {
                st.paged_bytes = st.paged_bytes - old + new_size;
            }
            assert_accounting(&st);
            self.inner.obs.sync(&st);
        }
        self.maybe_wake_proactive();
    }

    /// Charges `bytes` of store reads about to be issued by the I/O stage.
    /// The bytes count toward the memory footprint from the moment the read
    /// is committed, not only once the frame is registered — a burst of
    /// coalesced loads is visible to the footprint series while in flight.
    /// Must be paired with exactly one [`ResourceManager::end_inflight`].
    pub fn begin_inflight(&self, bytes: usize) {
        let mut st = self.inner.state.lock();
        st.inflight_bytes += bytes;
        st.inflight_count += 1;
        self.inner.obs.sync(&st);
    }

    /// Releases an in-flight charge taken by
    /// [`ResourceManager::begin_inflight`] — the read completed (the frame
    /// is now a registered resource) or failed.
    pub fn end_inflight(&self, bytes: usize) {
        let mut st = self.inner.state.lock();
        debug_assert!(
            st.inflight_bytes >= bytes && st.inflight_count > 0,
            "end_inflight without matching begin_inflight"
        );
        st.inflight_bytes = st.inflight_bytes.saturating_sub(bytes);
        st.inflight_count = st.inflight_count.saturating_sub(1);
        self.inner.obs.sync(&st);
    }

    /// Snapshot of the accounting counters. The same figures are readable
    /// from [`ResourceManager::registry`] snapshots under the `resman_*`
    /// metric names.
    pub fn stats(&self) -> MemoryStats {
        let st = self.inner.state.lock();
        let o = &self.inner.obs;
        MemoryStats {
            total_bytes: st.total_bytes,
            paged_bytes: st.paged_bytes,
            inflight_bytes: st.inflight_bytes,
            inflight_count: st.inflight_count,
            resource_count: st.entries.len(),
            paged_count: st.paged_count,
            proactive_evictions: o.proactive_evictions.get(),
            reactive_evictions: o.reactive_evictions.get(),
            weighted_evictions: o.weighted_evictions.get(),
            evicted_bytes: o.evicted_bytes.get(),
            registrations: o.registrations.get(),
        }
    }

    /// **Reactive unload** (paper §5): shrinks the paged pool to the lower
    /// limit (or to `0` if no limits are set), LRU order, weights ignored.
    /// Returns the bytes freed.
    pub fn reactive_unload(&self) -> usize {
        let target = self.paged_limits().map_or(0, |l| l.lower_bytes);
        self.unload_paged_to(target, false)
    }

    /// One pass of the **proactive unload**: if the paged pool exceeds the
    /// upper limit, evicts LRU paged resources until the lower limit is
    /// reached. Invoked by the background worker; callable directly in
    /// tests. Returns the bytes freed.
    pub fn proactive_unload(&self) -> usize {
        let Some(limits) = self.paged_limits() else { return 0 };
        if self.inner.state.lock().paged_bytes <= limits.upper_bytes {
            return 0;
        }
        self.unload_paged_to(limits.lower_bytes, true)
    }

    /// The proactive pass run **by a producer**: a caller that has just
    /// grown the paged pool in a burst (a batched pin's wave of loads) runs
    /// the pass itself if the pool is over its upper limit, instead of
    /// leaving the overshoot to last until the asynchronous worker gets
    /// scheduled. A no-op under manual limits, where passes are driven
    /// explicitly. Returns the bytes freed.
    pub fn assist_proactive(&self) -> usize {
        if self.inner.proactive.lock().is_none() {
            return 0;
        }
        self.proactive_unload()
    }

    fn unload_paged_to(&self, target_bytes: usize, proactive: bool) -> usize {
        let victims = {
            let mut st = self.inner.state.lock();
            if st.paged_bytes <= target_bytes {
                return 0;
            }
            // Plain LRU over unpinned paged resources: ascending last_touch.
            let mut candidates: Vec<(u64, u64)> = st
                .entries
                .iter()
                .filter(|(_, e)| e.disposition.is_paged() && e.pin.is_unpinned())
                .map(|(&id, e)| (e.pin.last_touch(), id))
                .collect();
            candidates.sort_unstable();
            let mut victims = Vec::new();
            for (_, id) in candidates {
                if st.paged_bytes <= target_bytes {
                    break;
                }
                // A candidate pinned since the filter ran fails the claim
                // and is skipped: the pass moves on to the next-oldest.
                victims.extend(claim_entry(&mut st, id));
            }
            self.inner.obs.sync(&st);
            victims
        };
        let count = victims.len();
        let freed = self.run_evictions(victims, if proactive {
            &self.inner.obs.proactive_evictions
        } else {
            &self.inner.obs.reactive_evictions
        });
        if proactive && count > 0 {
            // Sweep summary event: victims in `page_no`, bytes reclaimed.
            self.inner.obs.registry.tracer().emit(
                EventKind::ProactiveSweep,
                0,
                count as u64,
                freed as u64,
            );
        }
        freed
    }

    /// **Weighted-LRU sweep** for a global low-memory situation: evicts
    /// unpinned, evictable resources in descending `t / w` until at least
    /// `needed_bytes` are freed (paged resources are shrunk to the lower
    /// limit first, per the paper). Returns the bytes actually freed.
    pub fn handle_low_memory(&self, needed_bytes: usize) -> usize {
        let mut freed = self.reactive_unload();
        if freed >= needed_bytes {
            return freed;
        }
        let now = self.inner.clock.load(Ordering::Relaxed);
        let victims = {
            let mut st = self.inner.state.lock();
            let mut scored: Vec<(f64, u64)> = st
                .entries
                .iter()
                .filter(|(_, e)| e.disposition.evictable() && e.pin.is_unpinned())
                .map(|(&id, e)| {
                    // A touch racing this pass may carry a later tick.
                    let t = now.saturating_sub(e.pin.last_touch()) as f64;
                    (t / e.disposition.weight(), id)
                })
                .collect();
            scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            let mut victims = Vec::new();
            let mut acc = freed;
            for (_, id) in scored {
                if acc >= needed_bytes {
                    break;
                }
                if let Some(e) = claim_entry(&mut st, id) {
                    acc += e.size;
                    victims.push(e);
                }
            }
            self.inner.obs.sync(&st);
            victims
        };
        freed += self.run_evictions(victims, &self.inner.obs.weighted_evictions);
        freed
    }

    /// Runs callbacks outside the state lock and updates counters.
    fn run_evictions(&self, victims: Vec<Entry>, counter: &Counter) -> usize {
        let mut freed = 0usize;
        for v in &victims {
            freed += v.size;
            (v.on_evict)();
        }
        counter.add(victims.len() as u64);
        self.inner.obs.evicted_bytes.add(freed as u64);
        freed
    }

    fn maybe_wake_proactive(&self) {
        let Some(limits) = self.paged_limits() else { return };
        let over = self.inner.state.lock().paged_bytes > limits.upper_bytes;
        if over {
            if let Some(w) = self.inner.proactive.lock().as_ref() {
                w.wake();
            }
        }
    }

    /// Blocks until the proactive worker has processed all pending wake-ups.
    /// No-op when no worker is running. Used by tests and experiments that
    /// need deterministic pool sizes.
    pub fn quiesce(&self) {
        let guard = self.inner.proactive.lock();
        if let Some(w) = guard.as_ref() {
            w.quiesce();
        }
    }
}

/// The one way a resource leaves the manager: claims `id`'s pin word
/// (`0 → EVICTED`, failing while it is pinned) and removes the entry in the
/// same critical section, so no later pin of the handle can succeed.
fn claim_entry(st: &mut State, id: u64) -> Option<Entry> {
    if !st.entries.get(&id)?.pin.claim() {
        return None;
    }
    let e = st.entries.remove(&id)?;
    st.total_bytes -= e.size;
    if e.disposition.is_paged() {
        st.paged_bytes -= e.size;
        st.paged_count -= 1;
    }
    assert_accounting(st);
    Some(e)
}

/// Recomputes the aggregate accounting from the entry map and asserts it
/// matches the incrementally maintained totals. Called after every
/// disposition/size change; O(entries), so it only does work under the
/// `strict-invariants` feature.
#[cfg(feature = "strict-invariants")]
fn assert_accounting(st: &State) {
    let total: usize = st.entries.values().map(|e| e.size).sum();
    let paged: usize =
        st.entries.values().filter(|e| e.disposition.is_paged()).map(|e| e.size).sum();
    let paged_count = st.entries.values().filter(|e| e.disposition.is_paged()).count();
    assert_eq!(st.total_bytes, total, "resman budget accounting: total_bytes drifted");
    assert_eq!(st.paged_bytes, paged, "resman budget accounting: paged_bytes drifted");
    assert_eq!(st.paged_count, paged_count, "resman budget accounting: paged_count drifted");
}

#[cfg(not(feature = "strict-invariants"))]
fn assert_accounting(_st: &State) {}

// The proactive worker needs access to proactive_unload through a weak ref.
impl Inner {
    pub(crate) fn proactive_pass(self: &Arc<Self>) {
        let m = ResourceManager { inner: Arc::clone(self) };
        m.proactive_unload();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn counter_evict(counter: &Arc<AtomicUsize>) -> impl Fn() + Send + Sync + 'static {
        let c = Arc::clone(counter);
        move || {
            c.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn register_touch_deregister_accounting() {
        let m = ResourceManager::new();
        let a = m.register(100, Disposition::MidTerm, || {});
        let b = m.register(50, Disposition::PagedAttribute, || {});
        let s = m.stats();
        assert_eq!(s.total_bytes, 150);
        assert_eq!(s.paged_bytes, 50);
        assert_eq!(s.resource_count, 2);
        assert_eq!(s.paged_count, 1);
        m.resize(&b, 80);
        assert_eq!(m.stats().paged_bytes, 80);
        assert_eq!(m.stats().total_bytes, 180);
        assert!(m.deregister(&a));
        assert!(!m.deregister(&a));
        assert!(!a.pin(), "a deregistered resource cannot be pinned");
        assert_eq!(m.stats().total_bytes, 80);
    }

    #[test]
    fn reactive_unload_shrinks_to_lower_limit_in_lru_order() {
        let evicted = Arc::new(Mutex::new(Vec::new()));
        let m = ResourceManager::new();
        m.set_paged_limits(Some(PoolLimits::new(100, 1000)));
        let mut ids = Vec::new();
        for i in 0..5 {
            let log = Arc::clone(&evicted);
            ids.push(m.register(60, Disposition::PagedAttribute, move || log.lock().push(i)));
        }
        // Touch resource 0 so it is the most recently used.
        ids[0].touch();
        let freed = m.reactive_unload();
        // 300 bytes -> need to drop to <=100: evict LRU (1, 2, 3, 4 in order
        // of last touch) until pool <= 100. Evicting 1,2,3 leaves 120; also 4
        // leaves 60 <= 100. Resource 0 (recently touched) survives.
        assert_eq!(freed, 240);
        assert_eq!(*evicted.lock(), vec![1, 2, 3, 4]);
        assert_eq!(m.stats().paged_bytes, 60);
        assert_eq!(m.stats().reactive_evictions, 4);
    }

    #[test]
    fn pinned_resources_are_never_evicted() {
        let hits = Arc::new(AtomicUsize::new(0));
        let m = ResourceManager::new();
        // Pin before limits exist: registering an unpinned resource over the
        // upper limit would race the async worker against our `pin` below.
        let id = m.register(100, Disposition::PagedAttribute, counter_evict(&hits));
        assert!(id.pin());
        m.set_paged_limits(Some(PoolLimits::new(0, 10)));
        m.quiesce();
        assert_eq!(m.reactive_unload(), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(m.stats().paged_bytes, 100);
        assert!(!m.deregister(&id), "a pinned resource stays registered");
        id.unpin();
        assert_eq!(m.reactive_unload(), 100);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The id is gone now; pin must fail so callers reload.
        assert!(!id.pin());
    }

    #[test]
    fn proactive_unload_fires_above_upper_and_stops_at_lower() {
        let m = ResourceManager::new();
        // Register everything first: with limits already set, the worker may
        // run mid-loop, leaving the pool between the limits (no wake) at the
        // end. Setting limits afterwards wakes exactly one decisive pass.
        for _ in 0..10 {
            m.register(50, Disposition::PagedAttribute, || {});
        }
        // 500 bytes > upper 250: the background worker must bring the pool
        // down to <= 150.
        m.set_paged_limits(Some(PoolLimits::new(150, 250)));
        m.quiesce();
        let s = m.stats();
        assert!(s.paged_bytes <= 150, "pool {} > lower limit", s.paged_bytes);
        assert!(s.proactive_evictions >= 7);
    }

    #[test]
    fn proactive_is_a_noop_between_limits() {
        let m = ResourceManager::with_paged_limits(PoolLimits::new(100, 1000));
        m.register(500, Disposition::PagedAttribute, || {});
        m.quiesce();
        // 500 <= upper: proactive must not touch it (only reactive would).
        assert_eq!(m.stats().paged_bytes, 500);
        assert_eq!(m.proactive_unload(), 0);
    }

    #[test]
    fn weighted_lru_prefers_low_weight_and_old_resources() {
        let evicted = Arc::new(Mutex::new(Vec::new()));
        let m = ResourceManager::new();
        let log = |name: &'static str| {
            let e = Arc::clone(&evicted);
            move || e.lock().push(name)
        };
        let _tmp = m.register(10, Disposition::Temporary, log("temp"));
        let _short = m.register(10, Disposition::ShortTerm, log("short"));
        let long = m.register(10, Disposition::LongTerm, log("long"));
        let _ns = m.register(10, Disposition::NonSwappable, log("nonswap"));
        // Make `long` ancient relative to the others by touching the rest.
        for _ in 0..1000 {
            _tmp.touch();
            _short.touch();
        }
        let _ = long;
        let freed = m.handle_low_memory(15);
        assert!(freed >= 15);
        // NonSwappable must never appear.
        assert!(!evicted.lock().contains(&"nonswap"));
        // `long` was idle 1000+ ticks with weight 16 (score ~62); `temp` was
        // just touched but weight 0.25 — with tiny t its score is small, so
        // the ancient long-term resource goes first.
        assert_eq!(evicted.lock()[0], "long");
    }

    #[test]
    fn low_memory_drains_paged_pool_first() {
        let m = ResourceManager::new();
        m.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
        m.register(100, Disposition::PagedAttribute, || {});
        let keep = m.register(100, Disposition::MidTerm, || {});
        let freed = m.handle_low_memory(100);
        assert_eq!(freed, 100);
        // The mid-term resource survives because paged covered the need.
        assert_eq!(m.stats().total_bytes, 100);
        assert!(keep.pin());
    }

    #[test]
    fn eviction_callbacks_run_outside_locks() {
        // A callback that itself queries the manager must not deadlock.
        let m = ResourceManager::new();
        let m2 = m.clone();
        m.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
        m.register(10, Disposition::PagedAttribute, move || {
            let _ = m2.stats();
        });
        assert_eq!(m.reactive_unload(), 10);
    }
}

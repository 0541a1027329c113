//! The pin word: lock-free pin / unpin / touch on a registered resource.
//!
//! A resource's pin count and last-touch tick live in a small `Arc`'d block
//! of atomics that the manager's entry and the owner's [`ResourceHandle`]
//! share, so the hot operations never take the manager's state lock. The
//! pin word moves between three kinds of value:
//!
//! ```text
//!            pin (CAS n → n+1)                 claim (CAS 0 → EVICTED)
//!   ┌──────┐ ───────────────▶ ┌──────────┐    ┌───┐ ───────────▶ ┌─────────┐
//!   │  0   │                  │ n ≥ 1    │    │ 0 │               │ EVICTED │
//!   └──────┘ ◀─────────────── └──────────┘    └───┘               └─────────┘
//!            unpin (fetch_sub, last one)                  terminal: pin fails
//! ```
//!
//! * **Owners** (any thread holding the handle) move `n → n+1` and
//!   `n → n-1`. A pin is a CAS loop, not a `fetch_add`, because it must
//!   never resurrect a claimed word.
//! * **The manager** (an unload pass or a deregistration, under its state
//!   lock) moves `0 → EVICTED` with one CAS and skips the resource when the
//!   CAS fails. `EVICTED` is terminal: the entry is removed in the same
//!   critical section and every later `pin` returns `false`.
//!
//! Pin-vs-evict is therefore decided by a single atomic word: exactly one of
//! {the pin observed a live word and the claim fails until it is released,
//! the claim won and the pin returns `false`} happens, with no re-check.
//!
//! Orderings: unpin is `Release` and the claim `AcqRel`, so everything a
//! pinner read through its guard happens-before the eviction callback
//! tearing the resource down (the `Arc` drop protocol); pin is `Acquire` so
//! a pinner that beats a claim sees the word's whole history. The tick and
//! `last_touch` are `Relaxed`: LRU order (§5) needs an approximate time,
//! and they publish no other data.

use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Pin-word value of a resource the manager has claimed for removal.
const EVICTED: u32 = u32::MAX;

/// The atomics one registered resource shares with its manager entry.
pub(crate) struct PinState {
    word: AtomicU32,
    // lint: allow(raw-counter) logical LRU tick of the last touch, not a metric
    last_touch: AtomicU64,
    /// The manager's logical LRU clock (not modeled: the protocol does not
    /// depend on it, and a yield per tick only widens the model's space).
    clock: Arc<std::sync::atomic::AtomicU64>,
}

impl PinState {
    pub(crate) fn new(pins: u32, clock: &Arc<std::sync::atomic::AtomicU64>) -> Arc<Self> {
        Arc::new(PinState {
            word: AtomicU32::new(pins),
            last_touch: AtomicU64::new(clock.fetch_add(1, Ordering::Relaxed)),
            clock: Arc::clone(clock),
        })
    }

    fn touch(&self) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        self.last_touch.store(now, Ordering::Relaxed);
    }

    pub(crate) fn last_touch(&self) -> u64 {
        self.last_touch.load(Ordering::Relaxed)
    }

    /// A hint for victim selection only — the claim decides.
    pub(crate) fn is_unpinned(&self) -> bool {
        self.word.load(Ordering::Relaxed) == 0
    }

    /// The manager's half of the protocol: `0 → EVICTED`, or `false` when
    /// the resource is pinned (or already claimed). Called under the state
    /// lock, which serialises claimers; pinners race it lock-free.
    pub(crate) fn claim(&self) -> bool {
        self.word
            .compare_exchange(0, EVICTED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The owner's handle to a registered resource, returned by
/// [`ResourceManager::register`](crate::ResourceManager::register). Pins,
/// unpins and touches through it are a few atomic operations on the shared
/// pin word and never take a manager lock.
pub struct ResourceHandle {
    pub(crate) id: u64,
    pub(crate) state: Arc<PinState>,
}

impl ResourceHandle {
    /// Pins the resource, protecting it from eviction until the matching
    /// [`unpin`](Self::unpin), and marks it recently used. Returns `false`
    /// when the manager has evicted (or the owner deregistered) the
    /// resource: the caller must reload it.
    #[must_use]
    pub fn pin(&self) -> bool {
        let word = &self.state.word;
        let mut seen = word.load(Ordering::Relaxed);
        loop {
            if seen == EVICTED {
                return false;
            }
            debug_assert!(seen < EVICTED - 1, "pin count overflow");
            match word.compare_exchange(seen, seen + 1, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        self.state.touch();
        true
    }

    /// Releases one pin.
    pub fn unpin(&self) {
        let before = self.state.word.fetch_sub(1, Ordering::Release);
        // Guards unpin from `Drop`: never a second panic while unwinding.
        debug_assert!(
            (before != 0 && before != EVICTED) || std::thread::panicking(),
            "unpin without pin"
        );
    }

    /// Marks the resource as recently used.
    pub fn touch(&self) {
        self.state.touch();
    }
}

impl std::fmt::Debug for ResourceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceHandle").field("id", &self.id).finish()
    }
}

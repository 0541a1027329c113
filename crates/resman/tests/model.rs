//! Model checks of the **real** `ResourceManager` under `--cfg payg_check`.
//!
//! The first two are regression proofs for the races the seed's tests used
//! to hit on wall-clock timing (patched in PR 1 by `register_pinned` and by
//! reordering registration before `set_paged_limits`):
//!
//! * the **old racy pattern** — register unpinned, then pin — is shown to
//!   actually lose the race against a concurrent unload pass (the checker
//!   *finds* a failing schedule), and
//! * the **fixed pattern** — `register_pinned` — is shown to hold under
//!   every explored interleaving of the same unload pass.
//!
//! The third is the pin protocol itself: a pin is a lock-free CAS on the
//! resource's pin word (modeled: every atomic operation is a yield point)
//! racing an unload pass that claims victims with `0 → EVICTED` under the
//! state lock. Exactly one side wins, in every interleaving.
//!
//! Limits are set via `set_paged_limits_manual` so no background worker
//! thread exists: the unload pass runs as a modeled thread instead,
//! which is what makes the schedules explorable and replayable.
//!
//! Build/run: `RUSTFLAGS="--cfg payg_check" cargo test -p payg-resman --test model`
#![cfg(payg_check)]

use payg_check::{thread, Checker};
use payg_resman::{Disposition, PoolLimits, ResourceManager};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BOUND: usize = 2000;

#[test]
fn old_register_then_pin_pattern_loses_the_race() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let m = ResourceManager::new();
        m.set_paged_limits_manual(Some(PoolLimits::new(0, 10)));
        let m2 = m.clone();
        let unloader = thread::spawn(move || {
            m2.proactive_unload();
        });
        // The seed test's original shape: register over the upper limit,
        // THEN pin. The unload pass can run in between and evict the
        // resource before the pin lands.
        let id = m.register(100, Disposition::PagedAttribute, || {});
        assert!(id.pin(), "resource evicted before pin — the race the seed test hit");
        unloader.join().expect("model thread");
    });
    let failure = report.failure.expect("the register-then-pin race must be found");
    assert!(
        failure.message.contains("the race the seed test hit"),
        "unexpected failure message: {}",
        failure.message
    );
}

#[test]
fn register_pinned_holds_under_all_explored_interleavings() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let evictions = Arc::new(AtomicUsize::new(0));
        let m = ResourceManager::new();
        m.set_paged_limits_manual(Some(PoolLimits::new(0, 10)));
        let m2 = m.clone();
        let unloader = thread::spawn(move || {
            m2.proactive_unload();
        });
        // The fix: registration and the first pin are one atomic step, so
        // no unload pass can slip between them.
        let e = Arc::clone(&evictions);
        let id = m.register_pinned(100, Disposition::PagedAttribute, move || {
            e.fetch_add(1, Ordering::SeqCst);
        });
        unloader.join().expect("model thread");
        assert_eq!(evictions.load(Ordering::SeqCst), 0, "pinned resource was evicted");
        assert_eq!(m.stats().paged_bytes, 100);
        // Once unpinned, the next pass must evict it (limits still exceeded).
        id.unpin();
        m.proactive_unload();
        assert_eq!(evictions.load(Ordering::SeqCst), 1);
        assert_eq!(m.stats().paged_bytes, 0, "paged pool must respect limits after quiesce");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(report.exhausted, "this model should be small enough to exhaust");
}

#[test]
fn lock_free_pin_and_unload_pass_have_exactly_one_winner() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let evictions = Arc::new(AtomicUsize::new(0));
        let m = ResourceManager::new();
        m.set_paged_limits_manual(Some(PoolLimits::new(0, 10)));
        let e = Arc::clone(&evictions);
        let resource = m.register(100, Disposition::PagedAttribute, move || {
            e.fetch_add(1, Ordering::SeqCst);
        });
        let m2 = m.clone();
        let unloader = thread::spawn(move || {
            m2.reactive_unload();
        });
        // No lock on this side: the pin is a CAS loop on the pin word.
        let pinned = resource.pin();
        if pinned {
            // The pass may still be running: while the pin is held it must
            // keep skipping the resource (its claim CAS fails).
            assert_eq!(evictions.load(Ordering::SeqCst), 0, "evicted while pinned");
        }
        unloader.join().expect("model thread");
        if pinned {
            assert_eq!(evictions.load(Ordering::SeqCst), 0, "evicted while pinned");
            assert_eq!(m.stats().paged_bytes, 100, "a pinned resource stays accounted");
            // Unpin-then-pass evicts.
            resource.unpin();
            assert_eq!(m.reactive_unload(), 100);
        } else {
            assert_eq!(m.stats().paged_bytes, 0, "a failed pin means the claim won");
        }
        assert_eq!(evictions.load(Ordering::SeqCst), 1, "on_evict runs exactly once");
        assert!(!resource.pin(), "EVICTED is terminal");
        assert_eq!(m.stats().paged_bytes, 0);
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(report.exhausted, "this model should be small enough to exhaust");
}

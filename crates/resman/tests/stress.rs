//! Concurrency stress for the resource manager: registrations, touches,
//! pins and evictions racing across threads must keep the accounting exact
//! and never evict a pinned resource.

use payg_resman::{Disposition, PoolLimits, ResourceManager};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn racing_registrations_and_evictions_keep_accounting_exact() {
    let m = ResourceManager::with_paged_limits(PoolLimits::new(10_000, 20_000));
    let evicted = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..4 {
            let m = m.clone();
            let evicted = Arc::clone(&evicted);
            s.spawn(move || {
                let mut ids = Vec::new();
                for i in 0..500u64 {
                    let e = Arc::clone(&evicted);
                    let id = m.register(100, Disposition::PagedAttribute, move || {
                        e.fetch_add(100, Ordering::Relaxed);
                    });
                    ids.push(id);
                    if i % 7 == t {
                        ids[ids.len() / 2].touch();
                    }
                    if i % 13 == 0 {
                        m.reactive_unload();
                    }
                }
            });
        }
    });
    m.quiesce();
    let stats = m.stats();
    // Conservation: everything registered is either still accounted or was
    // evicted (deregistration is only done by eviction callbacks here).
    let registered_bytes = 4 * 500 * 100u64;
    assert_eq!(
        stats.paged_bytes as u64 + stats.evicted_bytes,
        registered_bytes,
        "bytes conserved across races"
    );
    assert_eq!(evicted.load(Ordering::Relaxed), stats.evicted_bytes);
    assert_eq!(stats.registrations, 2_000);
}

#[test]
fn pinned_resources_survive_concurrent_eviction_storm() {
    let m = ResourceManager::with_paged_limits(PoolLimits::new(0, 1));
    let mut pinned = Vec::new();
    for _ in 0..50 {
        let id = m.register_pinned(64, Disposition::PagedAttribute, || {
            panic!("pinned resource must never be evicted");
        });
        pinned.push(id);
    }
    std::thread::scope(|s| {
        for _ in 0..4 {
            let m = m.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    m.reactive_unload();
                    m.proactive_unload();
                    m.handle_low_memory(1_000_000);
                }
            });
        }
    });
    m.quiesce();
    assert_eq!(m.stats().paged_count, 50, "all pinned resources survive");
    // Voluntary release never fires eviction callbacks.
    for id in pinned {
        id.unpin();
        assert!(m.deregister(&id));
    }
    assert_eq!(m.stats().paged_count, 0);
}

#[test]
fn unpinned_after_storm_can_be_evicted_without_callbacks_firing_twice() {
    let m = ResourceManager::new();
    m.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
    let fired = Arc::new(AtomicU64::new(0));
    let mut ids = Vec::new();
    for _ in 0..100 {
        let f = Arc::clone(&fired);
        ids.push(m.register(10, Disposition::PagedAttribute, move || {
            f.fetch_add(1, Ordering::Relaxed);
        }));
    }
    // Four threads race to evict the same pool; each resource's callback
    // must fire exactly once.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let m = m.clone();
            s.spawn(move || {
                m.reactive_unload();
            });
        }
    });
    assert_eq!(fired.load(Ordering::Relaxed), 100);
    assert_eq!(m.stats().paged_count, 0);
    // Deregistering evicted ids is a no-op, not a double free.
    for id in ids {
        assert!(!m.deregister(&id));
    }
}

//! Model checks of the **real** `BufferPool` under `--cfg payg_check`.
//!
//! Built with `RUSTFLAGS="--cfg payg_check"`, every lock in
//! `payg-storage` and `payg-resman` resolves to the modeled wrappers, so
//! these tests drive the production pin/load/evict code — not a port —
//! through a deterministic scheduler. The I/O stage spawns no threads in
//! this build: it is caller-drained, so every miss runs the production
//! submit → ranged read → complete sequence on a scheduled model thread.
//! State spaces here are far larger than the `MiniPool` models in
//! `payg-check`, so every check is bounded; the bound is the knob CI turns.
//!
//! Build/run: `RUSTFLAGS="--cfg payg_check" cargo test -p payg-storage --test model`
#![cfg(payg_check)]

use payg_check::{thread, Checker};
use payg_resman::{PoolLimits, ResourceManager};
use payg_storage::{BufferPool, FaultPlan, FaultyStore, MemStore, PageKey, PageStore};
use std::sync::Arc;

/// Schedules explored per check: real-pool paths have many yield points,
/// so full exhaustion is out of reach; this prefix still covers the
/// decisive orderings around the shard map and the single-flight publish.
const BOUND: usize = 300;

fn pool_with_pages(n: u64) -> (BufferPool, payg_storage::ChainId) {
    let store = MemStore::new();
    let chain = store.create_chain(32).expect("create chain");
    for i in 0..n {
        store.append_page(chain, &[i as u8; 8]).expect("append page");
    }
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    (pool, chain)
}

#[test]
fn real_pool_single_flight_under_model() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let (pool, chain) = pool_with_pages(1);
        let pool = Arc::new(pool);
        let key = PageKey::new(chain, 0);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&pool);
                thread::spawn(move || {
                    let g = p.pin(key).expect("pin");
                    assert_eq!(g[0], 0, "page bytes must be stable");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("model thread");
        }
        let m = pool.metrics();
        assert_eq!(m.loads, 1, "single-flight: the page must be read from the store once");
        pool.assert_no_live_pins("model quiesce");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
}

#[test]
fn real_pool_pinned_page_survives_unload_race() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let (pool, chain) = pool_with_pages(2);
        let pool = Arc::new(pool);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
        let held = pool.pin(PageKey::new(chain, 0)).expect("pin");
        let r = resman.clone();
        let t = thread::spawn(move || {
            // Reactive unload racing a held pin: must skip the pinned page.
            r.reactive_unload();
        });
        t.join().expect("model thread");
        assert_eq!(held[0], 0, "pinned page bytes changed under eviction race");
        drop(held);
        resman.reactive_unload();
        assert_eq!(pool.resident_pages(), 0, "unpinned pages must unload to the lower limit");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
}

#[test]
fn registry_counters_consistent_under_pin_evict_race() {
    // Observability invariant under every explored interleaving of
    // concurrent pins and a racing eviction sweep: the registry's shard
    // counters partition the pin calls exactly — hits + misses == pins —
    // and successful loads never exceed misses.
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let (pool, chain) = pool_with_pages(2);
        let pool = Arc::new(pool);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
        let pins = 3u64; // one warm-up + two racing
        drop(pool.pin(PageKey::new(chain, 0)).expect("warm-up pin"));
        let threads: Vec<_> = (0..2u64)
            .map(|i| {
                let p = Arc::clone(&pool);
                thread::spawn(move || {
                    let g = p.pin(PageKey::new(chain, i % 2)).expect("pin");
                    assert_eq!(g[0], (i % 2) as u8);
                })
            })
            .collect();
        let r = resman.clone();
        let evictor = thread::spawn(move || {
            r.reactive_unload();
        });
        for t in threads {
            t.join().expect("model thread");
        }
        evictor.join().expect("model thread");
        let snap = payg_obs::ObsSnapshot::collect(pool.registry());
        let hits = snap.counter("pool_shard_hits");
        let misses = snap.counter("pool_shard_misses");
        let loads = snap.counter("pool_loads");
        assert_eq!(hits + misses, pins, "hits({hits}) + misses({misses}) != pins({pins})");
        assert!(loads <= misses, "loads({loads}) > misses({misses})");
        assert_eq!(loads, misses, "no failed loads here: every miss loaded");
        pool.assert_no_live_pins("model quiesce");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
}

#[test]
fn real_pool_clear_racing_pin_leaves_consistent_state() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let (pool, chain) = pool_with_pages(1);
        let pool = Arc::new(pool);
        let key = PageKey::new(chain, 0);
        let p = Arc::clone(&pool);
        let pinner = thread::spawn(move || {
            let g = p.pin(key).expect("pin");
            // Whatever clear() did around us, our view must be coherent.
            assert_eq!(g[0], 0, "guard bytes must be stable across clear()");
        });
        pool.clear();
        pinner.join().expect("model thread");
        // After the dust settles a fresh pin must work and be consistent.
        let g = pool.pin(key).expect("pin after clear");
        assert_eq!(g[0], 0);
        drop(g);
        pool.assert_no_live_pins("model quiesce");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
}

/// A DFS prefix plus seeded random schedules: the DFS bound only varies
/// the tail of a three-thread run, the random half reaches the early
/// orderings (who installs which `Loading` slot, who drains whose request).
fn explore(f: impl Fn() + Send + Sync + 'static) {
    let f = Arc::new(f);
    let g = Arc::clone(&f);
    let dfs = Checker::exhaustive().max_iterations(BOUND).check(move || g());
    assert!(dfs.failure.is_none(), "unexpected failure: {:?}", dfs.failure);
    let random = Checker::exhaustive().random(0x5eed, 500).check(move || f());
    assert!(random.failure.is_none(), "unexpected failure: {:?}", random.failure);
    assert!(dfs.iterations + random.iterations >= 500, "explored too few interleavings");
}

#[test]
fn lock_free_pin_drop_repin_races_unload_on_one_key() {
    // The pin protocol on the real pool: two threads pin / read / drop /
    // re-pin one key — each hit a CAS on the frame's pin word under the
    // shard lock, each drop a bare `fetch_sub` — while a third runs the
    // reactive unload (limits 0/MAX: evict everything unpinned), which
    // claims victims `0 → EVICTED` under the resman lock. Whichever way a
    // pin and a claim interleave, the guard reads the page's bytes, every
    // pin is a hit or a miss, every load is a residency that is still
    // there or was evicted once, and the accounting closes.
    explore(|| {
        let (pool, chain) = pool_with_pages(2);
        let pool = Arc::new(pool);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
        let key = PageKey::new(chain, 1);
        drop(pool.pin(key).expect("warm-up pin"));
        let pinners: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&pool);
                thread::spawn(move || {
                    for _ in 0..2 {
                        let g = p.pin(key).expect("pin");
                        assert_eq!(g[0], 1, "guard bytes must be stable under an unload race");
                    }
                })
            })
            .collect();
        let r = resman.clone();
        let evictor = thread::spawn(move || {
            r.reactive_unload();
        });
        for t in pinners {
            t.join().expect("model thread");
        }
        evictor.join().expect("model thread");
        let m = pool.metrics();
        assert_eq!(m.hits + m.misses, 5, "every pin is a hit or a miss: {m:?}");
        assert_eq!(m.loads, m.misses, "no failed loads here: {m:?}");
        pool.assert_no_live_pins("model quiesce");
        let stats = resman.stats();
        let resident = pool.resident_pages();
        assert_eq!(
            m.loads,
            stats.reactive_evictions + resident as u64,
            "a load is a residency: still resident or evicted exactly once"
        );
        assert_eq!(stats.paged_bytes, resident * 32, "paged bytes are the resident frames'");
        // Quiesced and unpinned: one more pass empties the pool.
        resman.reactive_unload();
        assert_eq!((pool.resident_pages(), resman.stats().paged_bytes), (0, 0));
    });
}

#[test]
fn racing_transient_builds_charge_one_structure_per_load_under_an_unload() {
    // Two threads pin one loaded page and read its transient structure —
    // built on the first read of the load, kept once, charged to the page's
    // resource once — while a third runs the reactive unload (limits 0/MAX).
    // Keeping the structure takes no modelled step; charging it is a resman
    // resize, which is. However they interleave, a resident frame is charged
    // its page plus one structure, never two, and an evicted one nothing.
    explore(|| {
        let (pool, chain) = pool_with_pages(1);
        let pool = Arc::new(pool);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
        let key = PageKey::new(chain, 0);
        drop(pool.pin(key).expect("warm-up pin"));
        let readers: Vec<_> = (0..2u64)
            .map(|i| {
                let p = Arc::clone(&pool);
                thread::spawn(move || {
                    let g = p.pin(key).expect("pin");
                    let t: &(u8, u64) = g
                        .transient_or_build(|bytes| Ok(((bytes[0], i), 40)))
                        .expect("transient");
                    assert_eq!(t.0, 0, "the structure is built from the page's bytes");
                })
            })
            .collect();
        let r = resman.clone();
        let evictor = thread::spawn(move || {
            r.reactive_unload();
        });
        for t in readers {
            t.join().expect("model thread");
        }
        evictor.join().expect("model thread");
        pool.assert_no_live_pins("model quiesce");
        let paged = resman.stats().paged_bytes;
        match pool.resident_pages() {
            0 => assert_eq!(paged, 0, "an evicted frame keeps no charge"),
            _ => assert_eq!(paged, 32 + 40, "one structure charged per resident load"),
        }
    });
}

#[test]
fn caller_drained_wave_with_a_corrupt_member_resolves_the_rest_and_leaks_no_pin() {
    // `batched_pin_is_never_stranded…` of payg-check's iostage model, on
    // the real pool: one batched pin over [good, corrupt, good] races a
    // single pin of the second good key. Whoever installs that key's
    // `Loading` slot and whoever drains whose request, the wave returns,
    // the corrupt member fails alone and quarantines, and no pin outlives
    // its guard.
    explore(|| {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let chain = store.create_chain(32).expect("create chain");
        for i in 0..4u8 {
            store.append_page(chain, &[i; 8]).expect("append page");
        }
        let key = move |p: u64| PageKey::new(chain, p);
        store.set_plan(FaultPlan::CorruptPages(vec![key(1)]));
        let resman = ResourceManager::new();
        resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
        let pool = Arc::new(BufferPool::new(store as Arc<dyn PageStore>, resman.clone()));
        let batch = {
            let p = Arc::clone(&pool);
            thread::spawn(move || {
                let got = p.pin_many(&[key(0), key(1), key(3)]);
                assert_eq!(got[0].as_ref().expect("good member")[0], 0);
                assert!(got[1].is_err(), "the corrupt member fails alone");
                assert_eq!(got[2].as_ref().expect("good member")[0], 3);
            })
        };
        let single = {
            let p = Arc::clone(&pool);
            thread::spawn(move || assert_eq!(p.pin(key(3)).expect("pin")[0], 3))
        };
        batch.join().expect("model thread");
        single.join().expect("model thread");
        assert!(pool.is_quarantined(key(1)) && !pool.is_resident(key(1)));
        let m = pool.metrics();
        assert_eq!(m.loads, 2, "each good page read once: {m:?}");
        assert_eq!((m.io_submitted, m.io_completions), (3, 3), "every request completes: {m:?}");
        pool.assert_no_live_pins("model quiesce");
        resman.reactive_unload();
        assert_eq!(pool.resident_pages(), 0, "a leaked pin keeps its page resident");
    });
}

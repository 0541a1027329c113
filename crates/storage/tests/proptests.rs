//! Property tests for the storage layer: arbitrary chain contents round-trip
//! through the pool under arbitrary interleavings of pins and evictions.

use payg_resman::{PoolLimits, ResourceManager};
use payg_storage::{
    BufferPool, FaultPlan, FaultyStore, MemStore, PageKey, PageStore, PoolConfig, RetryPolicy,
};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever was appended comes back byte-identical (and zero-padded to
    /// the page size) through the pool, no matter how reads interleave with
    /// evictions.
    #[test]
    fn chain_roundtrip_under_eviction(
        pages in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..20),
        page_size in 64usize..128,
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 1..60),
    ) {
        let store: Arc<dyn PageStore> = Arc::new(MemStore::new());
        let chain = store.create_chain(page_size).unwrap();
        for p in &pages {
            store.append_page(chain, p).unwrap();
        }
        let n_pages = store.chain_len(chain).unwrap();
        prop_assert_eq!(n_pages, pages.len() as u64);
        let resman = ResourceManager::new();
        resman.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
        let pool = BufferPool::new(store, resman.clone());
        for (sel, evict) in ops {
            let page_no = u64::from(sel) % n_pages;
            let guard = pool.pin(PageKey::new(chain, page_no)).unwrap();
            let expect = &pages[page_no as usize];
            prop_assert_eq!(&guard[..expect.len()], expect.as_slice());
            prop_assert!(guard[expect.len()..].iter().all(|&b| b == 0), "zero padding");
            drop(guard);
            if evict {
                resman.reactive_unload();
                prop_assert_eq!(resman.stats().paged_bytes, 0);
            }
        }
    }

    /// Pool metrics: loads + hits equals pin calls, and every load reads
    /// exactly one page worth of bytes.
    #[test]
    fn pool_metrics_are_consistent(
        n_pages in 1u64..12,
        pins in prop::collection::vec(any::<u8>(), 1..80),
    ) {
        let store = MemStore::new();
        let chain = store.create_chain(32).unwrap();
        for i in 0..n_pages {
            store.append_page(chain, &[i as u8]).unwrap();
        }
        let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
        for sel in &pins {
            let key = PageKey::new(chain, u64::from(*sel) % n_pages);
            let _ = pool.pin(key).unwrap();
        }
        let m = pool.metrics();
        prop_assert_eq!(m.loads + m.hits, pins.len() as u64);
        prop_assert_eq!(m.bytes_loaded, m.loads * 32);
        prop_assert!(m.loads <= n_pages, "never more loads than distinct pages");
    }

    /// One transient fault injected at an arbitrary point of an arbitrary
    /// pin/evict workload never breaks the metric invariants: every pin is
    /// a hit xor a miss, `misses - loads` counts exactly the failed pins,
    /// and a transient fault never quarantines. With retry enabled the
    /// fault is absorbed (zero failed pins); with retry disabled it
    /// surfaces on exactly the pin whose read hit it.
    #[test]
    fn single_injected_fault_preserves_metric_invariants(
        n_pages in 1u64..10,
        ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..60),
        fault_after in 0u64..40,
        retry in any::<bool>(),
    ) {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let chain = store.create_chain(32).unwrap();
        for i in 0..n_pages {
            store.append_page(chain, &[i as u8]).unwrap();
        }
        store.set_plan(FaultPlan::Transient { after: fault_after, count: 1 });
        let resman = ResourceManager::new();
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn PageStore>,
            resman.clone(),
            PoolConfig {
                retry: if retry { RetryPolicy::default() } else { RetryPolicy::NONE },
                sleeper: Arc::new(|_| {}),
                ..PoolConfig::default()
            },
        );
        let mut failures = 0u64;
        for (sel, evict) in &ops {
            let key = PageKey::new(chain, u64::from(*sel) % n_pages);
            match pool.pin(key) {
                Ok(guard) => prop_assert_eq!(guard[0], key.page_no as u8),
                Err(_) => failures += 1,
            }
            if *evict {
                resman.reactive_unload();
            }
        }
        let m = pool.metrics();
        prop_assert_eq!(m.hits + m.misses, ops.len() as u64, "hit xor miss per pin: {:?}", m);
        prop_assert_eq!(m.misses - m.loads, failures, "failed pins == misses - loads: {:?}", m);
        prop_assert!(m.load_faults <= 1, "Transient count:1 fires at most once: {:?}", m);
        prop_assert_eq!(failures, if retry { 0 } else { m.load_faults },
            "retry absorbs the single fault; no-retry surfaces it: {:?}", m);
        prop_assert_eq!(m.load_retries, if retry { m.load_faults } else { 0 });
        prop_assert_eq!(m.quarantine_inserts, 0, "a transient fault never quarantines");
        prop_assert_eq!(pool.quarantined_pages(), 0);
        prop_assert_eq!(m.bytes_loaded, m.loads * 32);
        pool.assert_no_live_pins("proptest quiesce");
    }

    /// Loads through eight stage workers ≡ loads through a caller-drained
    /// stage (`workers: 0`, what model-check builds run) ≡ the bytes
    /// appended to the store: identical bytes for every good page, identical
    /// per-page outcome when one page is corrupt — the bad page (and only
    /// the bad page) fails and quarantines, its neighbours in the same
    /// coalesced read publish.
    #[test]
    fn staged_loads_match_caller_drained_and_the_store(
        pages in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..24),
        corrupt_sel in any::<u16>(),
        inject in any::<bool>(),
    ) {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let chain = store.create_chain(64).unwrap();
        for p in &pages {
            store.append_page(chain, p).unwrap();
        }
        let n = pages.len() as u64;
        let bad = u64::from(corrupt_sel) % n;
        if inject {
            store.set_plan(FaultPlan::CorruptPages(vec![PageKey::new(chain, bad)]));
        }
        let pool_with = |io_workers: usize| BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn PageStore>,
            ResourceManager::new(),
            PoolConfig { io_workers, ..PoolConfig::default() },
        );
        let (threaded, drained) = (pool_with(8), pool_with(0));
        // One wave over the whole chain: adjacent submissions, so the
        // completions ride coalesced ranged reads.
        let keys: Vec<PageKey> = (0..n).map(|p| PageKey::new(chain, p)).collect();
        let (a, b) = (threaded.pin_many(&keys), drained.pin_many(&keys));
        for (p, (a, b)) in (0..n).zip(a.into_iter().zip(b)) {
            prop_assert_eq!(drained.is_resident(keys[p as usize]), !(inject && p == bad));
            match (a.map(|g| g.to_vec()), b.map(|g| g.to_vec())) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(&x, &y, "page {} bytes diverge", p);
                    let want = &pages[p as usize];
                    prop_assert_eq!(&x[..want.len()], want.as_slice());
                    prop_assert!(x[want.len()..].iter().all(|&b| b == 0), "zero padding");
                }
                (Err(_), Err(_)) => {
                    prop_assert!(inject && p == bad, "only the corrupt page may fail");
                }
                (a, b) => prop_assert!(
                    false,
                    "outcome diverges at page {}: 8 workers ok={} caller-drained ok={}",
                    p, a.is_ok(), b.is_ok()
                ),
            }
        }
        let failed = u64::from(inject);
        for pool in [&threaded, &drained] {
            prop_assert_eq!(pool.quarantined_pages(), failed as usize,
                "exactly the corrupt page quarantines");
            let m = pool.metrics();
            prop_assert_eq!(m.loads, n - failed, "every good page loaded exactly once");
            prop_assert_eq!(m.io_completions, m.io_submitted,
                "every submission completes: {:?}", m);
            prop_assert!(m.io_physical_reads <= m.io_completions,
                "coalescing never issues more reads than requests: {:?}", m);
            pool.assert_no_live_pins("staged proptest quiesce");
        }
    }

    /// `pin_many` ≡ pinning the same keys one after another: per key the
    /// same bytes or the same typed error, the same `hits` / `misses` /
    /// `loads`, and no pin outlives its guard — over arbitrary key lists
    /// (duplicates, unsorted, two chains) against pages that are resident,
    /// absent, in flight (a concurrent wave) or quarantined, with
    /// transient outages absorbed by the retry policy and corrupt pages
    /// failing alone.
    #[test]
    fn pin_many_equals_sequential_pins(
        n_pages in 2u64..14,
        picks in prop::collection::vec((any::<bool>(), any::<u8>()), 1..40),
        warm in prop::collection::vec((any::<bool>(), any::<u8>()), 0..8),
        inflight in prop::collection::vec((any::<bool>(), any::<u8>()), 0..6),
        bad in prop::collection::vec((any::<bool>(), any::<u8>()), 1..4),
        fault_mode in 0u8..3,
        outage in (0u64..20, 1u64..3),
    ) {
        // Two identical worlds; `batched` is driven through pin_many,
        // `sequential` through single pins.
        let world = || {
            let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
            let chains = [store.create_chain(48).unwrap(), store.create_chain(48).unwrap()];
            for (c, chain) in chains.iter().enumerate() {
                for p in 0..n_pages {
                    store.append_page(*chain, &[(c as u8) << 6 | p as u8; 16]).unwrap();
                }
            }
            let resman = ResourceManager::new();
            resman.set_paged_limits_manual(Some(PoolLimits::new(0, usize::MAX)));
            let pool = BufferPool::with_config(
                Arc::clone(&store) as Arc<dyn PageStore>,
                resman.clone(),
                PoolConfig {
                    retry: RetryPolicy { max_attempts: 4, ..RetryPolicy::default() },
                    sleeper: Arc::new(|_| {}),
                    ..PoolConfig::default()
                },
            );
            (store, chains, resman, pool)
        };
        let (store_a, chains, resman_a, batched) = world();
        let (store_b, chains_b, resman_b, sequential) = world();
        prop_assert_eq!(chains, chains_b, "both stores number their chains alike");
        let key = |&(second, sel): &(bool, u8)| {
            PageKey::new(chains[usize::from(second)], u64::from(sel) % n_pages)
        };
        let corrupt: Vec<PageKey> =
            if fault_mode == 1 { bad.iter().map(key).collect() } else { Vec::new() };
        let keys: Vec<PageKey> = picks.iter().map(key).collect();
        for (store, pool) in [(&store_a, &batched), (&store_b, &sequential)] {
            // Resident pages, and (under the corrupt plan) quarantined ones.
            for k in warm.iter().map(key).filter(|k| !corrupt.contains(k)) {
                drop(pool.pin(k).unwrap());
            }
            match fault_mode {
                1 => {
                    store.set_plan(FaultPlan::CorruptPages(corrupt.clone()));
                    prop_assert!(pool.pin(corrupt[0]).is_err());
                    prop_assert!(pool.is_quarantined(corrupt[0]));
                }
                2 => store.set_plan(FaultPlan::Transient {
                    after: store.reads() + outage.0,
                    count: outage.1,
                }),
                _ => {}
            }
        }
        // Loads in flight (or just landed) when the pins arrive: a second
        // thread pins `inflight` the same way while this one pins `keys`.
        let racing: Vec<PageKey> =
            inflight.iter().map(key).filter(|k| !corrupt.contains(k)).collect();
        let (got, want) = std::thread::scope(|s| {
            let racer = s.spawn(|| {
                drop(batched.pin_many(&racing));
                racing.iter().for_each(|&k| drop(sequential.pin(k)));
            });
            let got = batched.pin_many(&keys);
            let want: Vec<_> = keys.iter().map(|&k| sequential.pin(k)).collect();
            racer.join().expect("racing pinner");
            (got, want)
        });
        prop_assert_eq!(got.len(), keys.len());
        for ((k, a), b) in keys.iter().zip(&got).zip(&want) {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.key(), *k);
                    prop_assert_eq!(&a[..], &b[..], "bytes of {:?}", k);
                }
                (Err(a), Err(b)) => {
                    prop_assert!(corrupt.contains(k), "only corrupt pages fail: {:?} {}", k, a);
                    prop_assert_eq!(
                        std::mem::discriminant(a), std::mem::discriminant(b),
                        "typed error of {:?}: batched {} vs sequential {}", k, a, b
                    );
                }
                (a, b) => prop_assert!(
                    false, "{:?}: batched ok={} sequential ok={}", k, a.is_ok(), b.is_ok()
                ),
            }
        }
        let (a, b) = (batched.metrics(), sequential.metrics());
        prop_assert_eq!((a.hits, a.misses, a.loads), (b.hits, b.misses, b.loads),
            "batched {:?} vs sequential {:?}", a, b);
        prop_assert_eq!(a.io_completions, a.io_submitted, "every request completes: {:?}", a);
        // No pin survives its guard: with the guards gone every page is
        // evictable again.
        drop(got);
        drop(want);
        for (resman, pool) in [(&resman_a, &batched), (&resman_b, &sequential)] {
            pool.assert_no_live_pins("pin_many proptest quiesce");
            resman.quiesce();
            resman.reactive_unload();
            prop_assert_eq!(pool.resident_pages(), 0, "a leaked pin keeps its page resident");
        }
    }
}

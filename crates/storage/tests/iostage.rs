//! Integration tests for the cold-path I/O stage: deterministic batch
//! coalescing, per-request fault granularity inside a coalesced read, a
//! burst spreading over the workers (via a gated store that parks them
//! mid-read), and the warm/cold pin-latency split.

use payg_obs::ObsSnapshot;
use payg_resman::ResourceManager;
#[cfg(not(payg_check))]
use payg_storage::{FaultPlan, FaultyStore, GateStore, PoolConfig};
use payg_storage::{BufferPool, MemStore, PageKey, PageStore};
use std::sync::Arc;

#[test]
#[cfg(not(payg_check))]
fn coalesced_batch_isolates_a_corrupt_page() {
    // Six adjacent pages, one of them corrupt, in one batched pin: the six
    // leave the queue as one run and ride exactly one ranged read, and
    // still only the corrupt page fails and quarantines.
    let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
    let chain = store.create_chain(32).unwrap();
    for i in 0..8u64 {
        store.append_page(chain, &[i as u8; 8]).unwrap();
    }
    store.set_plan(FaultPlan::CorruptPages(vec![PageKey::new(chain, 3)]));
    let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
    let keys: Vec<PageKey> = (0..6u64).map(|p| PageKey::new(chain, p)).collect();
    for (key, guard) in keys.iter().zip(pool.pin_many(&keys)) {
        if key.page_no == 3 {
            assert!(guard.is_err(), "corrupt page must fail");
        } else {
            assert_eq!(guard.unwrap()[0], key.page_no as u8, "neighbour pages publish");
        }
    }
    assert_eq!(pool.quarantined_pages(), 1, "only the corrupt page quarantines");
    let m = pool.metrics();
    assert_eq!(m.loads, 5, "the five good neighbours");
    assert_eq!((m.io_submitted, m.io_completions), (6, 6), "every request individually completed");
    assert_eq!(m.io_physical_reads, 1, "ONE ranged read for the run of six");
    assert_eq!(m.io_coalesced, 6, "all six run members rode the coalesced read");
    pool.assert_no_live_pins("iostage coalescing quiesce");
}

/// A staged pool with `workers` I/O workers over a gate, `pages` pages long.
/// Model-check builds (`--cfg payg_check`) run the stage caller-drained —
/// there is no worker to park — so the gate-driven tests are compiled out
/// there (`tests/model.rs` drives the same submit/complete code through the
/// deterministic scheduler instead).
#[cfg(not(payg_check))]
fn burst_pool(
    workers: usize,
    pages: u64,
) -> (Arc<GateStore<MemStore>>, BufferPool, payg_storage::ChainId) {
    let store = Arc::new(GateStore::new(MemStore::new()));
    let chain = store.create_chain(32).unwrap();
    for i in 0..pages {
        store.append_page(chain, &[i as u8; 8]).unwrap();
    }
    let pool = BufferPool::with_config(
        Arc::clone(&store) as Arc<dyn PageStore>,
        ResourceManager::new(),
        PoolConfig { io_workers: workers, ..PoolConfig::default() },
    );
    (store, pool, chain)
}

#[test]
#[cfg(not(payg_check))]
fn one_pin_many_coalesces_its_adjacent_misses() {
    // Six adjacent pages and one decoy, unsorted, in ONE batched pin: the
    // whole burst is queued under one lock acquisition, so however the four
    // workers race for it the six neighbours leave the queue together as
    // one run — two physical reads, no gate needed to line them up.
    let (_store, pool, chain) = burst_pool(4, 8);
    let keys: Vec<PageKey> = [3u64, 7, 0, 5, 1, 4, 2].iter().map(|&p| PageKey::new(chain, p)).collect();
    let guards = pool.pin_many(&keys);
    for (key, guard) in keys.iter().zip(&guards) {
        let guard = guard.as_ref().expect("every page loads");
        assert_eq!((guard.key(), guard[0]), (*key, key.page_no as u8), "results follow key order");
    }
    let m = pool.metrics();
    assert_eq!((m.hits, m.misses, m.loads), (0, 7, 7), "hits + misses == keys");
    assert_eq!(m.io_submitted, 7, "one request per missing page");
    assert_eq!(m.io_completions, 7, "every request individually completed");
    assert_eq!(m.io_physical_reads, 2, "ONE ranged read for the run of six + the decoy");
    assert_eq!(m.io_coalesced, 6, "all six run members rode the coalesced read");
    // The guards are the pins: a second batched pin of the same keys hits.
    let again = pool.pin_many(&keys);
    assert!(again.iter().all(|g| g.is_ok()));
    let m = pool.metrics();
    assert_eq!((m.hits, m.misses, m.loads), (7, 7, 7));
    drop((guards, again));
    pool.assert_no_live_pins("batched pin quiesce");
}

#[test]
#[cfg(not(payg_check))]
fn a_burst_of_single_page_runs_spreads_over_the_workers() {
    // Eight non-adjacent misses in one batched pin on four workers: each
    // worker takes ONE run per wake-up and the submit wakes one worker per
    // run, so four reads are parked at the closed gate at the same time —
    // the old drain let the first worker pop all eight and serialise them.
    let (store, pool, chain) = burst_pool(4, 16);
    let keys: Vec<PageKey> = (0..8u64).map(|i| PageKey::new(chain, 2 * i)).collect();
    store.close();
    std::thread::scope(|s| {
        let pinner = s.spawn(|| pool.pin_many(&keys));
        store.wait_for_waiters(4);
        assert_eq!(store.waiting(), 4, "every worker holds exactly one read");
        store.open();
        let guards = pinner.join().expect("pinner thread");
        for (key, guard) in keys.iter().zip(&guards) {
            assert_eq!(guard.as_ref().expect("page loads")[0], key.page_no as u8);
        }
    });
    let m = pool.metrics();
    assert_eq!((m.loads, m.io_physical_reads, m.io_coalesced), (8, 8, 0), "nothing to coalesce");
    pool.assert_no_live_pins("burst quiesce");
}

#[test]
fn cold_pins_record_load_latency_warm_pins_sample_pin_latency() {
    // The warm/cold split: every cold pin (elected loader or single-flight
    // waiter) lands in `pool_load_ns`; warm pins are counted exactly in
    // `hits` and *sampled* 1-in-64 per shard (first hit included) into
    // `pool_pin_ns`, so the watch costs less than the hit it watches.
    let store = MemStore::new();
    let chain = store.create_chain(32).unwrap();
    for i in 0..4u64 {
        store.append_page(chain, &[i as u8; 8]).unwrap();
    }
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    for p in 0..4u64 {
        drop(pool.pin(PageKey::new(chain, p)).unwrap()); // cold
    }
    for _ in 0..3 {
        drop(pool.pin(PageKey::new(chain, 0)).unwrap()); // warm
    }
    let snap = ObsSnapshot::collect(pool.registry());
    assert_eq!(snap.histogram("pool_load_ns").count(), 4, "one cold pin per page");
    assert_eq!(pool.metrics().hits, 3, "three warm re-pins");
    let sampled = snap.histogram("pool_pin_ns").count();
    assert!(0 < sampled && sampled <= 3, "the shard's first hit is sampled: {sampled}");
    // A batched pin keeps the split: every cold member records, the warm
    // pass records as one sample-or-not.
    pool.clear();
    let keys: Vec<PageKey> = (0..4u64).map(|p| PageKey::new(chain, p)).collect();
    drop(pool.pin(keys[1]).unwrap()); // one more cold pin: 5
    drop(pool.pin_many(&keys)); // three cold (8), one warm
    let snap = ObsSnapshot::collect(pool.registry());
    assert_eq!(snap.histogram("pool_load_ns").count(), 8);
    assert_eq!(pool.metrics().hits, 4);
    let sampled = snap.histogram("pool_pin_ns").count();
    assert!(0 < sampled && sampled <= 4, "samples never outnumber hits: {sampled}");
}

#[test]
fn an_unsampled_warm_pin_many_records_no_pin_latency() {
    // One page pinned twice a pass, so every hit counts on one shard: the
    // pass holding the shard's 1st hit records into `pool_pin_ns`, the 31
    // passes after it (hits 2..=63) record nothing, and the pass holding
    // its 65th records again. No pass loads anything.
    let store = MemStore::new();
    let chain = store.create_chain(32).unwrap();
    store.append_page(chain, &[7; 8]).unwrap();
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    let key = PageKey::new(chain, 0);
    drop(pool.pin(key).unwrap()); // cold
    let pin_ns = || ObsSnapshot::collect(pool.registry()).histogram("pool_pin_ns").count();
    let loads = || ObsSnapshot::collect(pool.registry()).histogram("pool_load_ns").count();
    drop(pool.pin_many(&[key, key]));
    let first = pin_ns();
    assert!(first > 0, "the pass with the shard's first hit records");
    for pass in 1..32 {
        drop(pool.pin_many(&[key, key]));
        assert_eq!(pin_ns(), first, "unsampled warm pass {pass} recorded");
    }
    drop(pool.pin_many(&[key, key]));
    assert!(pin_ns() > first, "the pass with the shard's 65th hit records");
    assert_eq!(pool.metrics().hits, 66);
    assert_eq!(loads(), 1, "one cold pin, no loads from the passes");
}

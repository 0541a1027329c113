//! Stress: many threads pinning, releasing and evicting across pool shards
//! under a tight paged-pool limit. The properties under test: no deadlock
//! (the run finishes), no lost pins (a held guard always reads its page's
//! bytes, even while the resource manager evicts around it), and the paged
//! limits hold once the pool quiesces.

use payg_resman::{PoolLimits, ResourceManager};
use payg_storage::{BufferPool, MemStore, PageKey, PageStore};
use std::sync::Arc;

const PAGE_SIZE: usize = 64;
const PAGES: u64 = 64;
const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 400;

fn fill_byte(page_no: u64) -> u8 {
    (page_no as u8).wrapping_mul(37).wrapping_add(11)
}

#[test]
fn concurrent_pins_and_evictions_respect_limits() {
    let store: Arc<dyn PageStore> = Arc::new(MemStore::new());
    let chain = store.create_chain(PAGE_SIZE).unwrap();
    for p in 0..PAGES {
        store.append_page(chain, &[fill_byte(p); 24]).unwrap();
    }

    // Tight limits: at most 8 unpinned pages stay resident, and the async
    // proactive worker keeps evicting down to 4 while the threads run.
    let resman = ResourceManager::new();
    resman.set_paged_limits(Some(PoolLimits::new(4 * PAGE_SIZE, 8 * PAGE_SIZE)));
    let pool = BufferPool::new(store, resman.clone());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let resman = resman.clone();
            s.spawn(move || {
                let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut held = Vec::new();
                for i in 0..OPS_PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let page_no = (x >> 33) % PAGES;
                    let guard = pool.pin(PageKey::new(chain, page_no)).unwrap();
                    assert_eq!(guard[0], fill_byte(page_no), "pinned frame holds its page");
                    assert_eq!(guard[23], fill_byte(page_no));
                    assert_eq!(guard[24], 0, "zero padding");
                    // Hold a few guards across iterations so pins from
                    // different threads overlap on shards, and eviction runs
                    // against genuinely pinned frames.
                    held.push((page_no, guard));
                    if held.len() > 3 {
                        held.remove(0);
                    }
                    match i % 17 {
                        0 => {
                            resman.reactive_unload();
                        }
                        9 => {
                            // Held guards must survive the purge.
                            for (p, g) in &held {
                                assert_eq!(g[0], fill_byte(*p), "pin lost under eviction");
                            }
                        }
                        _ => {}
                    }
                }
            });
        }
    });

    // All guards dropped: once the manager quiesces, the paged pool must sit
    // within its limits (the last proactive pass stops at the lower mark, so
    // anything at or below the upper mark is conformant).
    resman.quiesce();
    let paged = resman.stats().paged_bytes;
    assert!(
        paged <= 8 * PAGE_SIZE,
        "paged bytes {paged} exceed the upper limit after quiesce"
    );

    // Accounting: the pool's frame census matches the manager's byte count,
    // and the shard counters roll up into the pool totals.
    assert_eq!(paged, pool.resident_pages() * PAGE_SIZE);
    let m = pool.metrics();
    let pins = THREADS * OPS_PER_THREAD;
    assert!(
        m.loads + m.hits >= pins,
        "every pin resolved as a hit or a load ({} + {} < {pins})",
        m.loads,
        m.hits
    );
    assert_eq!(m.bytes_loaded, m.loads * PAGE_SIZE as u64);
    let shards = pool.shard_metrics();
    assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), m.hits);
    assert!(
        shards.iter().filter(|s| s.hits + s.misses > 0).count() > 1,
        "work spread across more than one shard"
    );
}

#[test]
fn clear_races_with_pins_without_losing_frames() {
    let store: Arc<dyn PageStore> = Arc::new(MemStore::new());
    let chain = store.create_chain(PAGE_SIZE).unwrap();
    for p in 0..PAGES {
        store.append_page(chain, &[fill_byte(p); 24]).unwrap();
    }
    let pool = BufferPool::new(store, ResourceManager::new());

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..300u64 {
                    let page_no = (t * 131 + i * 7) % PAGES;
                    let g = pool.pin(PageKey::new(chain, page_no)).unwrap();
                    assert_eq!(g[0], fill_byte(page_no));
                    if i % 31 == 0 {
                        pool.clear();
                        // The guard outlives the purge.
                        assert_eq!(g[0], fill_byte(page_no));
                    }
                }
            });
        }
    });
}

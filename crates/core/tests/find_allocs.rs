//! A warm `findByValue` on a string dictionary allocates for its one walk
//! accumulator and nothing else — not per page pinned, not per block probed,
//! not per comparison, not to encode the probe — and the first one after
//! its pages load no more than that, charging nothing past their bytes. A
//! whole-chain read — a default column's load, a merge's input — allocates
//! per page, not per key.
//!
//! Not under `strict-invariants`: its pin tracker records every pin in a
//! heap set, which is an allocation per page by design.
#![cfg(not(feature = "strict-invariants"))]

use payg_core::dict::{HandleCache, PagedDictionary};
use payg_core::{CodecKind, DataType, PageConfig};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, ChainId, MemStore, PageKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations (and growths) of the thread that armed it.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("customer-{i:06}").into_bytes()).collect()
}

/// An FSST dictionary of exactly `pages` dictionary pages.
fn dictionary(pages: u64) -> (BufferPool, PagedDictionary, Vec<Vec<u8>>) {
    let config = PageConfig { dict_page: 1024, ..PageConfig::tiny() };
    for n in (16..).step_by(16) {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let ks = keys(n);
        let (dict, stats) = PagedDictionary::build(&pool, &config, DataType::Varchar, &ks).unwrap();
        assert!(stats.dict_pages <= pages, "a block more is at most a page more");
        if stats.dict_pages == pages {
            assert_eq!(dict.codec_kind(), CodecKind::Fsst);
            assert_eq!(stats.overflow_pages, 0, "no spilled entries");
            return (pool, dict, ks);
        }
    }
    unreachable!()
}

#[test]
fn a_warm_find_allocates_once_however_many_pages_and_blocks_it_probes() {
    let mut per_dictionary = Vec::new();
    for pages in [1, 15] {
        let (pool, dict, ks) = dictionary(pages);
        let mut probes: Vec<Vec<u8>> = ks.iter().step_by(7).cloned().collect();
        probes.extend([b"a".to_vec(), b"customer-000003x".to_vec(), b"zzz".to_vec()]);
        // Warm: every page resident, the helper preload landed.
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut HandleCache::new(pool.clone())).unwrap(), Ok(vid as u64));
        }
        let mut worst = 0;
        for probe in &probes {
            let expect = ks.binary_search(probe).map(|i| i as u64).map_err(|i| i as u64);
            // A fresh cache per lookup, as a column's point probe has.
            let (found, n) =
                allocations(|| dict.find(probe, &mut HandleCache::new(pool.clone())).unwrap());
            assert_eq!(found, expect);
            worst = n.max(worst);
        }
        per_dictionary.push(worst);
    }
    assert_eq!(per_dictionary[0], per_dictionary[1], "1 page vs 15 pages: {per_dictionary:?}");
    assert!(per_dictionary[0] <= 1, "allocations per find: {per_dictionary:?}");
}

/// A dictionary page's first read after its load reads the page's block
/// starts where they lie: it allocates no more than a warm find does, and
/// the paged pool stays charged the pages' bytes alone.
#[test]
fn a_first_read_of_loaded_pages_allocates_and_charges_like_a_warm_one() {
    let (pool, dict, ks) = dictionary(15);
    // The helper preload lands; then every page of every chain is loaded
    // afresh, and none of them read.
    assert_eq!(dict.find(&ks[0], &mut HandleCache::new(pool.clone())).unwrap(), Ok(0));
    pool.clear();
    let store = Arc::clone(pool.store());
    let pages: Vec<PageKey> = dict
        .chains()
        .into_iter()
        .flat_map(|(_, chain)| {
            let len = store.chain_len(ChainId(chain)).unwrap();
            (0..len).map(move |p| PageKey::new(ChainId(chain), p))
        })
        .collect();
    let page_bytes: usize = pages.iter().map(|&key| pool.pin(key).unwrap().len()).sum();
    let resman = pool.resource_manager().clone();
    assert_eq!(resman.stats().paged_bytes, page_bytes);
    let loads = pool.metrics().loads;
    let mut worst = 0;
    for (vid, k) in ks.iter().enumerate().step_by(3) {
        let (found, n) = allocations(|| dict.find(k, &mut HandleCache::new(pool.clone())).unwrap());
        assert_eq!(found, Ok(vid as u64));
        worst = n.max(worst);
    }
    assert!(worst <= 1, "allocations of a find on pages read the first time: {worst}");
    assert_eq!(pool.metrics().loads, loads, "the finds loaded nothing");
    assert_eq!(resman.stats().paged_bytes, page_bytes, "reads charge nothing");
}

#[test]
fn whole_chain_read_allocates_per_page_not_per_key() {
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let ks = keys(20_000);
    let (dict, stats) =
        PagedDictionary::build(&pool, &PageConfig::default(), DataType::Varchar, &ks).unwrap();
    assert_eq!(dict.codec_kind(), CodecKind::Fsst);
    assert_eq!(stats.overflow_pages, 0, "no spilled entries");
    let (arena, in_arena) = allocations(|| dict.materialize_all_direct().unwrap());
    assert!(ks.iter().enumerate().all(|(vid, k)| arena.key(vid as u64) == k.as_slice()));
    let (blocks, in_blocks) = allocations(|| dict.blocks_all_direct().unwrap());
    assert!(ks.iter().enumerate().all(|(vid, k)| blocks.find(k).unwrap() == Ok(vid as u64)));
    assert!(
        in_arena < ks.len() / 8 && in_blocks < ks.len() / 8,
        "allocations reading {} keys ({} pages): materialize_all_direct {in_arena}, \
         blocks_all_direct {in_blocks}",
        ks.len(),
        stats.dict_pages
    );
}

//! Observability integration tests: counter-accounting regressions
//! (every pin lands in exactly one of hits/misses; failed loads are not
//! double-counted; waits are counted on the single-flight wait path) and
//! page-lifecycle event tracing (the acceptance check: with tracing
//! enabled, a pressure-eviction run reconstructs the exact
//! load → pin → evict sequence per page from the event buffers).

use payg_obs::{EventKind, ObsSnapshot, SpanKind};
use payg_resman::{PoolLimits, ResourceManager};
use payg_storage::{
    BufferPool, FaultPlan, FaultyStore, GateStore, MemStore, PageKey, PageStore,
};
use std::sync::Arc;

#[test]
fn failed_load_is_one_miss_and_no_load() {
    // Regression (bug sweep): a failed load must count exactly one miss and
    // zero loads/hits — never a miss *and* something else.
    let store = FaultyStore::new(MemStore::new(), FaultPlan::None);
    let chain = store.create_chain(16).unwrap();
    store.append_page(chain, &[1; 4]).unwrap();
    store.set_plan(FaultPlan::EveryNthRead(1));
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    assert!(pool.pin(PageKey::new(chain, 0)).is_err());
    let m = pool.metrics();
    assert_eq!(m.misses, 1, "the failed pin is one miss");
    assert_eq!(m.loads, 0, "no successful load");
    assert_eq!(m.hits, 0);
    assert_eq!(m.misses - m.loads, 1, "misses - loads counts the failed loads");
}

#[test]
fn every_pin_lands_in_exactly_one_of_hits_or_misses() {
    // Mixed workload with injected failures: hits + misses must equal the
    // number of pin calls, regardless of how many loads failed. The outage
    // is permanent (AfterReads) rather than periodic so the pool's bounded
    // retry cannot absorb it — failed pins must still be observable here.
    let store = FaultyStore::new(MemStore::new(), FaultPlan::None);
    let chain = store.create_chain(32).unwrap();
    for i in 0..8 {
        store.append_page(chain, &[i as u8; 8]).unwrap();
    }
    store.set_plan(FaultPlan::AfterReads(10));
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    let mut pins = 0u64;
    let mut failures = 0u64;
    for round in 0..4 {
        for p in 0..8u64 {
            pins += 1;
            if pool.pin(PageKey::new(chain, p)).is_err() {
                failures += 1;
            }
            // Evict everything between rounds so later rounds miss again.
            if round % 2 == 1 {
                continue;
            }
        }
        pool.clear();
    }
    assert!(failures > 0, "the fault plan fired");
    let m = pool.metrics();
    assert_eq!(m.hits + m.misses, pins, "every pin call is a hit xor a miss: {m:?}");
    assert_eq!(m.misses - m.loads, failures, "failed pins are misses without loads");
}

#[test]
fn single_flight_wait_counts_and_emits_events() {
    // Deterministic wait window: the gate parks the elected loader at the
    // store while the other pins enter the wait path.
    let store = Arc::new(GateStore::new(MemStore::new()));
    let chain = store.create_chain(32).unwrap();
    store.append_page(chain, &[9; 8]).unwrap();
    let pool = BufferPool::new(
        Arc::clone(&store) as Arc<dyn PageStore>,
        ResourceManager::new(),
    );
    let tracer = pool.registry().tracer().clone();
    tracer.enable();
    let key = PageKey::new(chain, 0);
    store.close();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = pool.clone();
            s.spawn(move || {
                pool.pin(key).unwrap();
            });
        }
        store.wait_for_waiters(1);
        // Hold the gate until a pin has provably joined the load.
        while pool.metrics().load_waits < 1 {
            std::thread::yield_now();
        }
        store.open();
    });
    let m = pool.metrics();
    assert_eq!(m.loads, 1);
    assert!(m.load_waits > 0, "waiters were counted: {m:?}");
    let events = tracer.drain();
    let waits = events
        .iter()
        .filter(|e| e.kind == EventKind::SingleFlightWait)
        .count() as u64;
    assert_eq!(waits, m.load_waits, "one wait event per counted wait");
    assert!(events
        .iter()
        .filter(|e| e.kind == EventKind::SingleFlightWait)
        .all(|e| e.chain == chain.0 && e.page_no == 0));
}

#[test]
fn loads_and_quarantines_carry_the_requesting_span() {
    // The I/O stage completes a load on its own thread after the batch span
    // has closed: its PageLoaded and PageQuarantined events must carry the
    // span of the pin that asked for the page, as IoCompleted does.
    let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
    let chain = store.create_chain(16).unwrap();
    for i in 0..3 {
        store.append_page(chain, &[i as u8; 16]).unwrap();
    }
    store.set_plan(FaultPlan::CorruptPages(vec![PageKey::new(chain, 2)]));
    let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
    let tracer = pool.registry().tracer().clone();
    tracer.enable();
    let query = tracer.span(SpanKind::Query, 0);
    let qid = query.id();
    let pins = pool.pin_many(&[0, 1, 2].map(|p| PageKey::new(chain, p)));
    assert!(pins[0].is_ok() && pins[1].is_ok() && pins[2].is_err());
    drop(pins);
    drop(query);
    let events = tracer.drain();
    let spans_of = |kind| events.iter().filter(|e| e.kind == kind).map(|e| e.span).collect::<Vec<_>>();
    assert_eq!(spans_of(EventKind::PageLoaded), [qid, qid]);
    assert_eq!(spans_of(EventKind::PageQuarantined), [qid]);
}

#[test]
fn pressure_eviction_sequence_is_reconstructable_from_events() {
    // Acceptance: with tracing enabled, the event buffers reconstruct the
    // exact load → pin → evict order for every page of a chain driven
    // through memory pressure.
    let store = MemStore::new();
    let page_size = 64usize;
    let chain = store.create_chain(page_size).unwrap();
    let pages = 6u64;
    for i in 0..pages {
        store.append_page(chain, &[i as u8; 64]).unwrap();
    }
    let resman = ResourceManager::with_paged_limits(PoolLimits::new(0, usize::MAX));
    let pool = BufferPool::new(Arc::new(store), resman.clone());
    let tracer = pool.registry().tracer().clone();
    tracer.enable();

    // Drive: pin each page (load + pin), then evict everything, twice.
    for _ in 0..2 {
        for p in 0..pages {
            drop(pool.pin(PageKey::new(chain, p)).unwrap());
        }
        assert_eq!(resman.reactive_unload(), pages as usize * page_size);
    }

    let events = tracer.drain();
    assert_eq!(tracer.dropped(), 0, "ring capacity not exceeded");
    // The I/O stage adds IoSubmitted/IoBatchIssued/IoCompleted around each
    // cold load; the lifecycle reconstruction looks at the page's
    // load/pin/evict kinds only.
    let lifecycle = [EventKind::PageLoaded, EventKind::PagePinned, EventKind::PageEvicted];
    for p in 0..pages {
        let kinds: Vec<EventKind> = events
            .iter()
            .filter(|e| e.chain == chain.0 && e.page_no == p && lifecycle.contains(&e.kind))
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PageLoaded,
                EventKind::PagePinned,
                EventKind::PageEvicted,
                EventKind::PageLoaded,
                EventKind::PagePinned,
                EventKind::PageEvicted,
            ],
            "page {p}: exact load → pin → evict sequence, twice"
        );
        // Loads, pins and evictions carry the page size: a frame holds its
        // page's bytes and nothing else.
        for e in events
            .iter()
            .filter(|e| e.chain == chain.0 && e.page_no == p && lifecycle.contains(&e.kind))
        {
            assert_eq!(e.bytes, page_size as u64, "{e:?}");
        }
        // Stage events bracket each cold load — submitted, then the
        // physical read it rode, then completed — every time, in that order
        // (each page is loaded alone here, so its batch starts at it).
        let io = [EventKind::IoSubmitted, EventKind::IoBatchIssued, EventKind::IoCompleted];
        let staged: Vec<EventKind> = events
            .iter()
            .filter(|e| e.chain == chain.0 && e.page_no == p && io.contains(&e.kind))
            .map(|e| e.kind)
            .collect();
        assert_eq!(staged, [io, io].concat(), "page {p}: submit → batch → complete per cold load");
    }
    let m = pool.metrics();
    assert_eq!((m.io_submitted, m.io_completions, m.loads), (2 * pages, 2 * pages, 2 * pages));
    // Events are globally ordered by sequence number, and timestamps are
    // monotone along that order per construction of the drain.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}

#[test]
fn proactive_sweep_emits_one_summary_event() {
    let store = MemStore::new();
    let chain = store.create_chain(32).unwrap();
    for i in 0..4 {
        store.append_page(chain, &[i as u8; 32]).unwrap();
    }
    // Manual limits (no background worker): the pool exceeds the 64-byte
    // upper bound, so one proactive pass sweeps everything unpinned down to
    // the lower bound of 0.
    let resman = ResourceManager::new();
    resman.set_paged_limits_manual(Some(PoolLimits::new(0, 64)));
    let pool = BufferPool::new(Arc::new(store), resman.clone());
    let tracer = pool.registry().tracer().clone();
    tracer.enable();
    for p in 0..4 {
        drop(pool.pin(PageKey::new(chain, p)).unwrap());
    }
    let freed = resman.proactive_unload();
    assert_eq!(freed, 4 * 32);
    let events = tracer.drain();
    let sweeps: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::ProactiveSweep)
        .collect();
    assert_eq!(sweeps.len(), 1, "one summary event per sweep");
    assert_eq!(sweeps[0].page_no, 4, "victim count rides in page_no");
    assert_eq!(sweeps[0].bytes, 4 * 32, "reclaimed bytes");
    // The sweep's evictions are also individually visible.
    assert_eq!(
        events.iter().filter(|e| e.kind == EventKind::PageEvicted).count(),
        4
    );
}

#[test]
fn registry_snapshot_covers_pool_and_resman() {
    // One ObsSnapshot::collect carries the pool's and the resman's series.
    let store = MemStore::new();
    let chain = store.create_chain(16).unwrap();
    for i in 0..3 {
        store.append_page(chain, &[i as u8; 16]).unwrap();
    }
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    for p in 0..3 {
        drop(pool.pin(PageKey::new(chain, p)).unwrap());
        drop(pool.pin(PageKey::new(chain, p)).unwrap());
    }
    let snap = ObsSnapshot::collect(pool.registry());
    assert_eq!(snap.counter("pool_loads"), 3);
    assert_eq!(snap.counter("pool_shard_hits"), 3);
    assert_eq!(snap.counter("pool_shard_misses"), 3);
    assert_eq!(snap.gauge("resman_paged_count"), 3);
    assert_eq!(snap.gauge("resman_paged_bytes"), 3 * 16);
    let text = snap.to_prometheus_text();
    assert!(text.contains("pool_loads"), "{text}");
    assert!(text.contains("resman_paged_bytes"), "{text}");
}

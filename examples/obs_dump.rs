//! Observability dump: drive a small page-loadable table under memory
//! pressure, then print everything the `payg-obs` layer collected — the
//! full registry snapshot as Prometheus exposition text and as JSON, the
//! last query's EXPLAIN ANALYZE report (its own span tree, folded) as JSON,
//! and the traced page-lifecycle events.
//! Finishes with a smoke check that the *disabled* tracing path stays
//! cheap (it is one relaxed load and a branch per emit).
//!
//! Run with: `cargo run --release --example obs_dump`

use page_as_you_go::core::{LoadPolicy, PageConfig};
use page_as_you_go::obs::{EventKind, ObsSnapshot};
use page_as_you_go::resman::{PoolLimits, ResourceManager};
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{PartitionSpec, Table};
use page_as_you_go::workload::{generate_rows, QueryGen, TableProfile};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A tightly capped paged pool so the proactive unloader actually runs:
    // crossing 192 KiB evicts LRU pages down to 96 KiB.
    let resman = ResourceManager::with_paged_limits(PoolLimits::new(96 << 10, 192 << 10));
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());

    let profile = TableProfile::erp(20_000, 13, 3);
    let table = Table::create(
        pool,
        PageConfig::default(),
        profile.schema(false).unwrap(),
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    table.insert_all(generate_rows(&profile)).unwrap();
    table.delta_merge_all().unwrap();
    table.unload_all();

    // Trace the page lifecycle while a query stream churns the pool.
    let tracer = table.registry().tracer().clone();
    tracer.enable();
    let mut qg = QueryGen::new(profile, 11);
    for i in 0..300u32 {
        // Mostly point queries, with a predicate count every 10th to
        // exercise the scan kernels (chunks, kernel width, matches).
        let q = if i % 10 == 0 { qg.q_num_count() } else { qg.q_pk_star() };
        table.execute(&q).unwrap();
    }
    // The last query of the stream runs through explain_analyze: its span
    // tree leaves the tracer inside the report, the rest stays for the
    // drain below.
    let (_, report) = table.explain_analyze(&qg.q_num_count()).unwrap();
    resman.quiesce();
    tracer.disable();

    // ---- Per-query report (the last query of the stream) ----------------
    println!("=== EXPLAIN ANALYZE (last query) ===");
    println!("{}\n", report.to_json());

    // ---- Traced page-lifecycle events -----------------------------------
    let mut events = tracer.drain();
    events.extend_from_slice(&report.events);
    events.sort_by_key(|e| e.seq);
    let count_of = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    println!("=== Page-lifecycle events ({} total, {} dropped) ===", events.len(), tracer.dropped());
    for kind in [
        EventKind::PageLoaded,
        EventKind::PagePinned,
        EventKind::PageEvicted,
        EventKind::SingleFlightWait,
        EventKind::ProactiveSweep,
    ] {
        println!("{kind:>16?}: {}", count_of(kind));
    }
    println!("first events in global order:");
    for e in events.iter().take(5) {
        println!(
            "  seq={:<4} {:?} chain={} page={} bytes={}",
            e.seq, e.kind, e.chain, e.page_no, e.bytes
        );
    }
    println!();

    // ---- The whole system's state, two exporters -------------------------
    let snap = ObsSnapshot::collect(table.registry());
    println!("=== Prometheus exposition text ===");
    println!("{}", snap.to_prometheus_text());
    println!("=== JSON ===");
    println!("{}\n", snap.to_json());

    // ---- Consistency checks over the dumped numbers ----------------------
    let hits = snap.counter("pool_shard_hits");
    let misses = snap.counter("pool_shard_misses");
    let loads = snap.counter("pool_loads");
    assert!(loads > 0 && hits > 0, "the stream both loaded and re-hit pages");
    assert_eq!(loads, misses, "no failed loads: every miss became a load");
    assert!(
        count_of(EventKind::PageLoaded) as u64 == loads,
        "one PageLoaded event per counted load"
    );
    assert!(
        snap.gauge("resman_paged_bytes") <= (192 << 10),
        "quiesced pool is back under the upper limit"
    );
    // Pin latency splits by temperature: every cold pin (loads and
    // single-flight waits) records `pool_load_ns`; warm hits are counted
    // exactly and sampled 1-in-64 per shard into `pool_pin_ns`.
    let pin_ns = snap.histogram("pool_pin_ns");
    let load_ns = snap.histogram("pool_load_ns");
    assert_eq!(load_ns.count(), misses, "one cold-latency sample per miss");
    assert!(
        0 < pin_ns.count() && pin_ns.count() <= hits,
        "warm latency is a sample of the hits: {} of {hits}",
        pin_ns.count()
    );
    println!(
        "consistency: hits={hits} misses={misses} loads={loads} \
         hit-rate={:.1}% pin p50={}ns p99={}ns",
        100.0 * hits as f64 / (hits + misses) as f64,
        pin_ns.percentile(0.50),
        pin_ns.percentile(0.99),
    );

    // ---- Disabled-path overhead smoke ------------------------------------
    // The tracer is off again: an emit must be a relaxed load + branch. The
    // bound is deliberately loose (shared CI machines), but catches the
    // disabled path growing a lock or an allocation.
    assert!(!tracer.enabled());
    const EMITS: u64 = 10_000_000;
    let started = Instant::now();
    for i in 0..EMITS {
        tracer.emit(EventKind::PagePinned, 1, i, 0);
    }
    let per_emit = started.elapsed().as_nanos() as f64 / EMITS as f64;
    println!("disabled emit: {per_emit:.2} ns avg over {EMITS} calls");
    assert!(per_emit < 100.0, "disabled tracing must stay branch-cheap, got {per_emit:.2} ns");
}

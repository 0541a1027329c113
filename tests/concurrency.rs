//! Concurrent readers and concurrent eviction: page-loadable structures are
//! shared-read safe, and the resource manager may evict underneath running
//! queries without affecting their answers (pins protect in-flight pages).

use page_as_you_go::core::{LoadPolicy, PageConfig};
use page_as_you_go::resman::{PoolLimits, ResourceManager};
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::obs::names;
use page_as_you_go::table::{PartitionSpec, Projection, Query, Table};
use page_as_you_go::workload::{generate_rows, QueryGen, TableProfile};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn build() -> (Table, ResourceManager, TableProfile) {
    let profile = TableProfile::erp(3_000, 9, 41);
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        profile.schema(true).unwrap(),
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    t.insert_all(generate_rows(&profile)).unwrap();
    t.delta_merge_all().unwrap();
    t.unload_all();
    (t, resman, profile)
}

#[test]
fn parallel_readers_agree_with_serial_answers() {
    let (t, _resman, profile) = build();
    // Precompute serial answers.
    let mut qg = QueryGen::new(profile.clone(), 6);
    let queries: Vec<Query> = (0..60).map(|_| qg.q_pk_star()).collect();
    let expected: Vec<String> =
        queries.iter().map(|q| format!("{:?}", t.execute(q).unwrap())).collect();
    std::thread::scope(|s| {
        for worker in 0..4 {
            let t = &t;
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                // Each worker replays the whole list, offset differently.
                for i in 0..queries.len() {
                    let j = (i + worker * 17) % queries.len();
                    assert_eq!(
                        format!("{:?}", t.execute(&queries[j]).unwrap()),
                        expected[j],
                        "worker {worker} query {j}"
                    );
                }
            });
        }
    });
}

#[test]
fn eviction_racing_with_queries_never_corrupts_results() {
    let (t, resman, profile) = build();
    resman.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
    let mut qg = QueryGen::new(profile.clone(), 7);
    let queries: Vec<Query> = (0..40).map(|_| qg.q_pk_star()).collect();
    let expected: Vec<String> =
        queries.iter().map(|q| format!("{:?}", t.execute(q).unwrap())).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // An evictor thread drains the paged pool continuously.
        let evictor = {
            let resman = resman.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut evictions = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    evictions += u64::from(resman.reactive_unload() > 0);
                    std::thread::yield_now();
                }
                evictions
            })
        };
        // Reader threads replay the workload under fire.
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = &t;
                let queries = &queries;
                let expected = &expected;
                s.spawn(move || {
                    for round in 0..5 {
                        for (q, want) in queries.iter().zip(expected) {
                            assert_eq!(
                                &format!("{:?}", t.execute(q).unwrap()),
                                want,
                                "round {round}"
                            );
                        }
                    }
                })
            })
            .collect();
        // Join the readers first so the evictor runs for the whole
        // workload (stopping it before they finish would leave the race
        // untested on a single CPU); then stop the evictor.
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let evictions = evictor.join().unwrap();
        assert!(evictions > 0, "the evictor must actually have evicted");
    });
}

#[test]
fn full_scans_race_with_proactive_unloader() {
    let profile = TableProfile::erp(2_000, 9, 43);
    let resman = ResourceManager::with_paged_limits(PoolLimits::new(4 * 1024, 8 * 1024));
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        profile.schema(false).unwrap(),
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    t.insert_all(generate_rows(&profile)).unwrap();
    t.delta_merge_all().unwrap();
    t.unload_all();
    let mut qg = QueryGen::new(profile, 3);
    let count_queries: Vec<Query> = (0..20).map(|_| qg.q_str_count()).collect();
    let expected: Vec<u64> =
        count_queries.iter().map(|q| t.execute(q).unwrap().count()).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let t = &t;
            let qs = &count_queries;
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..10 {
                    for (q, &want) in qs.iter().zip(expected) {
                        assert_eq!(t.execute(q).unwrap().count(), want);
                    }
                }
            });
        }
    });
    resman.quiesce();
    assert!(
        resman.stats().paged_bytes <= 8 * 1024,
        "pool back under the upper limit once drained"
    );
}

#[test]
fn sessions_open_without_a_cap_and_the_last_drop_retires() {
    let (t, _resman, profile) = build();
    let rows = profile.rows;
    let count = Query::full(Projection::Count);
    // One thread holds all of them at once: opening a session never waits.
    let held: Vec<_> = (0..200).map(|_| t.session().unwrap()).collect();
    for (i, s) in held.iter().enumerate() {
        assert_eq!(s.execute(&count).unwrap().count(), rows, "session {i}");
    }
    // A row lands and a merge publishes while every session pins the
    // version before it.
    let extra = generate_rows(&TableProfile::erp(rows + 1, 9, 41)).pop().unwrap();
    t.insert(extra).unwrap();
    t.delta_merge_all().unwrap();
    let live = t.registry().gauge(names::TABLE_VERSIONS_LIVE);
    assert!(live.get() > 1, "held sessions keep the replaced version live");
    for (i, s) in held.iter().enumerate() {
        assert_eq!(s.execute(&count).unwrap().count(), rows, "session {i} after the merge");
    }
    drop(held);
    assert_eq!(live.get(), 1, "the last drop retires every replaced version");
    assert_eq!(t.execute(&count).unwrap().count(), rows + 1);
}

#[test]
fn query_result_is_send_for_cross_thread_use() {
    fn assert_send<T: Send>(_: &T) {}
    let (t, _r, profile) = build();
    let mut qg = QueryGen::new(profile, 1);
    let res = t.execute(&qg.q_pk_star()).unwrap();
    assert_send(&res);
    assert_send(&t);
}

//! The one miss path, seen from tier 1: a checkpointed page-loadable table
//! is reopened cold over a real `FileStore` with the paged pool held to a
//! few pages, and the paper's Table 2 point query and Table 3 PK range run
//! through `Table::session()`. Answers must be exact, and every byte that
//! entered the pool must have come through the I/O stage.

use page_as_you_go::core::{LoadPolicy, PageConfig};
use page_as_you_go::resman::{PoolLimits, ResourceManager};
use page_as_you_go::storage::{BufferPool, FileStore};
use page_as_you_go::table::{PartitionSpec, Query, Table};
use page_as_you_go::workload::{generate_rows, QueryGen, TableProfile};
use std::sync::Arc;

#[test]
fn cold_file_store_queries_load_only_through_the_io_stage() {
    let dir = std::env::temp_dir().join(format!("payg-cold-stage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let profile = TableProfile::erp(2_000, 11, 77);
    let mut qg = QueryGen::new(profile.clone(), 9);
    let queries: Vec<Query> = (0..24)
        .map(|i| if i % 2 == 0 { qg.q_pk_star() } else { qg.q_range_star(0.01) })
        .collect();

    // "First process": build, merge, checkpoint; its warm, unlimited pool
    // answers the queries for reference.
    let (catalog, expected) = {
        let pool =
            BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            profile.schema(true).unwrap(),
            vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
        )
        .unwrap();
        t.insert_all(generate_rows(&profile)).unwrap();
        t.delta_merge_all().unwrap();
        let expected: Vec<_> =
            queries.iter().map(|q| t.execute(q).unwrap().into_rows()).collect();
        (t.checkpoint().unwrap(), expected)
    };
    for (i, rows) in expected.iter().enumerate() {
        assert_eq!(rows.len(), if i % 2 == 0 { 1 } else { 20 }, "query {i}");
    }

    // "Second process": reopen cold, a few 256..768-byte pages of budget.
    let resman = ResourceManager::with_paged_limits(PoolLimits::new(4 << 10, 8 << 10));
    let pool = BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), resman);
    let t = Table::open(pool.clone(), catalog).unwrap();
    let before = pool.metrics();
    for (q, want) in queries.iter().zip(&expected) {
        let session = t.session().unwrap();
        assert_eq!(&session.execute(q).unwrap().into_rows(), want, "{q:?}");
    }
    let m = pool.metrics().delta(&before);
    assert!(m.loads > 0, "the queries ran cold: {m:?}");
    assert_eq!(m.loads, m.io_completions, "every load is a stage completion: {m:?}");
    assert_eq!(m.io_submitted, m.io_completions, "every request completed: {m:?}");
    assert!(m.io_physical_reads <= m.loads, "coalescing only ever saves reads: {m:?}");
    assert!(m.loads > pool.resident_pages() as u64, "the pool limit evicted along the way");
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
}

//! A read writes nothing: concurrent sessions running every Table 2 query
//! shape leave the store holding exactly the chains the merge wrote — on a
//! page-loadable and on a fully resident table, with the PK index only and
//! with every column indexed. The index a column has is the one its merge
//! built; no search creates one.

use page_as_you_go::core::{LoadPolicy, PageConfig};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore, PageStore};
use page_as_you_go::table::{PartitionSpec, Query, QueryResult, Table};
use page_as_you_go::workload::{generate_rows, QueryGen, TableProfile};
use std::sync::Arc;

#[test]
fn concurrent_sessions_of_every_query_shape_write_no_chain() {
    let profile = TableProfile::erp(2_000, 9, 43);
    let mut qg = QueryGen::new(profile.clone(), 11);
    let queries: Vec<Query> = (0..6)
        .flat_map(|_| {
            [
                qg.q_pk_num(),
                qg.q_pk_str(),
                qg.q_pk_star(),
                qg.q_pk_rid(),
                qg.q_num_count(),
                qg.q_str_count(),
                qg.q_range_star(0.01),
                qg.q_range_sum(0.01),
            ]
        })
        .collect();
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        for all_indexed in [false, true] {
            let what = format!("{policy:?} all_indexed={all_indexed}");
            let store = Arc::new(MemStore::new());
            let pool = BufferPool::new(
                Arc::clone(&store) as Arc<dyn PageStore>,
                ResourceManager::new(),
            );
            let t = Table::create(
                pool,
                PageConfig::tiny(),
                profile.schema(all_indexed).unwrap(),
                vec![PartitionSpec::single(policy)],
            )
            .unwrap();
            t.insert_all(generate_rows(&profile)).unwrap();
            t.delta_merge_all().unwrap();
            t.unload_all();
            let merged = store.chains();

            let expected: Vec<QueryResult> =
                queries.iter().map(|q| t.execute(q).unwrap()).collect();
            std::thread::scope(|s| {
                for worker in 0..4 {
                    let (t, queries, expected, what) = (&t, &queries, &expected, &what);
                    s.spawn(move || {
                        let session = t.session().unwrap();
                        // Each session replays the list from its own offset,
                        // so first searches of a column race each other.
                        for i in 0..queries.len() {
                            let j = (i + worker * 13) % queries.len();
                            let got = session.execute(&queries[j]).unwrap();
                            assert_eq!(got, expected[j], "{what}: worker {worker} query {j}");
                        }
                    });
                }
            });
            assert_eq!(store.chains(), merged, "{what}: a read created or dropped a chain");
        }
    }
}

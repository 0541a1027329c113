//! Online delta-merge chaos: seeded fault storms kill the merge at every
//! injected step while reader threads run fixed queries against live
//! sessions.
//!
//! The contract under test is the serving layer's trichotomy: every read
//! returns the exact answer (merges never change answers, only layout) or
//! one clean typed error — never a wrong answer, a panic, a leaked pin, a
//! leaked page chain, or stranded budget. An aborted merge leaves the
//! frozen version serving; a retried merge succeeds once the faults lift.
//! A failing seed reproduces with
//! `PAYG_CHAOS_SEED=<seed> cargo test -p payg-table --test merge_chaos`.

use payg_core::{PageConfig, Value, ValuePredicate};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, FaultPlan, FaultyStore, MemStore, PageStore};
use payg_table::{
    ColumnSpec, PartitionRange, PartitionSpec, Projection, Query, QueryResult, Schema, Table,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Seeds to storm with: the CI matrix pins one via `PAYG_CHAOS_SEED`; a
/// plain local run covers a small default set.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("PAYG_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("PAYG_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 2, 3, 4],
    }
}

fn orders_schema() -> Schema {
    // No indexed columns: every read scans a data vector.
    Schema::new(vec![
        ColumnSpec::new("id", payg_core::DataType::Integer),
        ColumnSpec::new("status", payg_core::DataType::Varchar),
        ColumnSpec::new("close_date", payg_core::DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("close_date")
    .unwrap()
}

fn status_of(i: i64) -> &'static str {
    if i % 3 == 0 {
        "open"
    } else {
        "closed"
    }
}

fn order(i: i64) -> Vec<Value> {
    vec![
        Value::Integer(i),
        Value::Varchar(status_of(i).into()),
        Value::Integer(100 + i),
    ]
}

/// A two-partition table over a [`FaultyStore`]; every inserted row routes
/// hot (`close_date >= 100`).
fn faulty_table() -> (Table, Arc<FaultyStore<MemStore>>, ResourceManager) {
    let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, resman.clone());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        orders_schema(),
        vec![
            PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(100))),
            PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(100))),
        ],
    )
    .unwrap();
    (t, store, resman)
}

/// The fixed reader workload with its exact expected answers for a table
/// holding rows `0..rows` (any main/delta split).
fn fixed_queries(rows: i64) -> Vec<(Query, QueryResult)> {
    let open = (0..rows).filter(|&i| status_of(i) == "open").count() as u64;
    let sum: i64 = (10..rows.min(60)).sum();
    vec![
        (Query::full(Projection::Count), QueryResult::Count(rows as u64)),
        (
            Query::filtered(
                "status",
                ValuePredicate::Eq(Value::Varchar("open".into())),
                Projection::Count,
            ),
            QueryResult::Count(open),
        ),
        (
            Query::filtered(
                "id",
                ValuePredicate::Between(Value::Integer(10), Value::Integer(59)),
                Projection::Sum("id".into()),
            ),
            QueryResult::Sum(Value::Integer(sum)),
        ),
    ]
}

fn chain_set(store: &FaultyStore<MemStore>) -> BTreeSet<u64> {
    store.chains().into_iter().map(|c| c.0).collect()
}

/// Runs the fixed workload once; every query must return its exact answer.
fn assert_exact(t: &Table, rows: i64, context: &str) {
    for (q, want) in fixed_queries(rows) {
        let got = t.execute(&q).unwrap_or_else(|e| panic!("{context}: query failed: {e}"));
        assert_eq!(got, want, "{context}: wrong answer");
    }
}

/// An order closed before 100: it routes to the cold, page-loadable
/// partition.
fn cold_order(i: i64) -> Vec<Value> {
    let mut row = order(i);
    row[2] = Value::Integer(i % 100);
    row
}

/// Kills the merge deterministically at each of `steps` in turn, with the
/// fault plan `plan_at(store, step)` armed for the merge only. Every abort
/// must leave the frozen version serving exact answers with the chain set
/// untouched (the side build reclaimed itself), and the retried merge under
/// a clean store must succeed and land at the steady-state chain count.
/// With `cold`, every row is a [`cold_order`] and the pool is emptied
/// before each merge, so the side build reads the old main from the store.
/// Returns, per aborted merge, whether it had written pages before it died.
fn kill_sweep(
    cold: bool,
    steps: std::ops::RangeInclusive<u64>,
    plan_at: impl Fn(&FaultyStore<MemStore>, u64) -> FaultPlan,
) -> Vec<bool> {
    let row = if cold { cold_order } else { order };
    let (t, store, _resman) = faulty_table();
    let mut rows: i64 = 0;
    // Descending: no column's rows are their own identifiers, so every
    // column keeps a data vector for the merge to read and write.
    for i in (0..60).rev() {
        t.insert(row(i)).unwrap();
        rows += 1;
    }
    t.delta_merge_all().unwrap();
    let steady = store.chains().len();

    let mut aborts = Vec::new();
    for step in steps {
        // Dirty the partition so the merge has work to do.
        t.insert(row(rows)).unwrap();
        rows += 1;
        if cold {
            t.unload_all();
        }
        let before = chain_set(&store);
        let writes = store.writes();

        store.set_plan(plan_at(&store, step));
        let merged = t.delta_merge_all();
        store.set_plan(FaultPlan::None);

        if merged.is_err() {
            aborts.push(store.writes() > writes);
            // Aborted: the side build must have reclaimed every chain it
            // created, and the frozen version keeps answering exactly.
            assert_eq!(
                chain_set(&store),
                before,
                "step {step}: aborted side build leaked or lost chains"
            );
            assert_exact(&t, rows, &format!("step {step}: after abort"));
            t.delta_merge_all()
                .unwrap_or_else(|e| panic!("step {step}: clean retry failed: {e}"));
        }
        // Merged (either first try survived the fault phase or the retry
        // ran): steady state — replaced mains retired one for one.
        assert_eq!(
            store.chains().len(),
            steady,
            "step {step}: chain count drifted after a successful merge"
        );
        assert_exact(&t, rows, &format!("step {step}: after merge"));
        t.pool().assert_no_live_pins("merge kill sweep");
    }
    aborts
}

/// The merge killed at its n-th page write, for n = 1..=10.
#[test]
fn a_merge_killed_at_every_write_step_aborts_cleanly() {
    let aborts = kill_sweep(false, 1..=10, |_, step| FaultPlan::EveryNthWrite(step));
    assert!(aborts.len() >= 5, "the sweep must actually kill merges (got {})", aborts.len());
}

/// The merge of a page-loadable partition read cold, killed by a read fault
/// after its first `step` store reads: a fault in a later column's read
/// must also reclaim the chains of the columns already written.
#[test]
fn a_merge_killed_at_every_read_step_aborts_cleanly() {
    let aborts =
        kill_sweep(true, 0..=16, |store, step| FaultPlan::AfterReads(store.reads() + step));
    assert!(aborts.len() >= 5, "the sweep must actually kill merges (got {})", aborts.len());
    assert!(
        aborts.iter().any(|&wrote| wrote),
        "no read fault landed after an earlier column was written"
    );
}

/// Seeded read/corrupt/write storms while 4 reader threads execute the
/// fixed workload through live sessions and the writer keeps attempting
/// merges: every read is exact or a clean error; recovery leaves no leaked
/// pins, chains, or budget; the retried merge succeeds.
#[test]
fn seeded_storms_with_concurrent_readers_never_corrupt_an_answer() {
    const ROWS: i64 = 200;
    for seed in chaos_seeds() {
        let (t, store, resman) = faulty_table();
        for i in 0..150 {
            t.insert(order(i)).unwrap();
        }
        t.delta_merge_all().unwrap();
        let steady = store.chains().len();
        // A delta backlog so the storm's merges have real work.
        for i in 150..ROWS {
            t.insert(order(i)).unwrap();
        }
        assert_exact(&t, ROWS, &format!("seed {seed}: pre-storm"));
        t.unload_all();
        let budget_baseline = resman.stats().total_bytes;

        store.set_plan(FaultPlan::Seeded { seed, p_read: 0.08, p_corrupt: 0.04, p_write: 0.12 });
        std::thread::scope(|s| {
            for reader in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let queries = fixed_queries(ROWS);
                    for round in 0..30 {
                        let Ok(session) = t.session() else { continue };
                        for (q, want) in &queries {
                            // An Err is an injected fault surfacing as a
                            // typed error: the clean arm of the trichotomy.
                            if let Ok(got) = session.execute(q) {
                                assert_eq!(
                                    &got, want,
                                    "seed {seed} reader {reader} round {round}: \
                                     a storm read returned a wrong answer"
                                );
                            }
                        }
                    }
                });
            }
            let t = &t;
            s.spawn(move || {
                // The merge is killed wherever the seed lands a write
                // fault; aborts are expected, wedging is not.
                for _ in 0..6 {
                    let _ = t.delta_merge_all();
                }
            });
        });

        // Recovery: faults lifted, caches and quarantine drained — the
        // retried merge must succeed and every invariant must hold.
        store.set_plan(FaultPlan::None);
        t.pool().clear();
        t.pool().clear_quarantine();
        t.delta_merge_all().unwrap_or_else(|e| panic!("seed {seed}: recovery merge: {e}"));
        assert_exact(&t, ROWS, &format!("seed {seed}: post-recovery"));
        t.pool().assert_no_live_pins("storm quiesce");
        assert_eq!(
            store.chains().len(),
            steady,
            "seed {seed}: chains leaked across aborted merges"
        );
        t.unload_all();
        assert_eq!(
            resman.stats().total_bytes,
            budget_baseline,
            "seed {seed}: stranded resman budget after recovery"
        );
    }
}

/// A snapshot pinned across the whole storm stays on its version: same
/// answer before, during, and after a successful merge, and its retired
/// main's chains survive until the pin drops.
#[test]
fn a_snapshot_pinned_across_the_storm_is_stable() {
    let (t, store, _resman) = faulty_table();
    for i in 0..80 {
        t.insert(order(i)).unwrap();
    }
    t.delta_merge_all().unwrap();
    let steady = store.chains().len();
    for i in 80..100 {
        t.insert(order(i)).unwrap();
    }

    let pinned = t.session().unwrap();
    let before = pinned.visible_rows();
    assert_eq!(before, 100);

    for seed in chaos_seeds() {
        store.set_plan(FaultPlan::Seeded { seed, p_read: 0.1, p_corrupt: 0.0, p_write: 0.2 });
        let _ = t.delta_merge_all();
        store.set_plan(FaultPlan::None);
    }
    t.delta_merge_all().unwrap();

    // The pin held its version through aborted and successful merges.
    assert_eq!(pinned.visible_rows(), before, "pinned snapshot drifted");
    assert!(
        store.chains().len() > steady,
        "retired main chains must survive while the snapshot pins them"
    );
    drop(pinned);
    assert_eq!(store.chains().len(), steady, "retirement ran once the pin dropped");
    assert_exact(&t, 100, "after pin release");
}

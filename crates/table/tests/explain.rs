//! EXPLAIN ANALYZE integration: the annotated plan, span tree, and page
//! provenance of real queries — reconciled against the registry on solo
//! runs, and unchanged by other work on the same pool.

use payg_core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use payg_obs::{names, EventKind, ObsSnapshot, SpanKind};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, MemStore};
use payg_table::{
    ColumnSpec, ExplainAnalyze, PartitionSpec, Projection, Query, QueryResult, Schema, Table,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn paged_table(indexed: bool, rows: i64) -> Table {
    let id = if indexed {
        ColumnSpec::indexed("id", DataType::Integer)
    } else {
        ColumnSpec::new("id", DataType::Integer)
    };
    let schema =
        Schema::new(vec![id, ColumnSpec::new("region", DataType::Varchar)]).unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    // In order but for the last two ids, swapped: a key whose rows ascend
    // would be stored as its dictionary alone, and these plans read its
    // data vector and postings.
    for i in (0..rows - 2).chain([rows - 1, rows - 2]) {
        t.insert(vec![Value::Integer(i), Value::Varchar(format!("region-{}", i % 5).into())]).unwrap();
    }
    t.delta_merge_all().unwrap();
    t
}

/// `explain_analyze` on a pool nothing else drives, with the registry delta
/// collected around it: the report must reconcile with that delta.
fn explain_solo(t: &Table, q: &Query) -> (QueryResult, ExplainAnalyze, ObsSnapshot) {
    let before = ObsSnapshot::collect(t.registry());
    let (result, report) = t.explain_analyze(q).unwrap();
    let delta = ObsSnapshot::delta(&ObsSnapshot::collect(t.registry()), &before);
    report.check_consistency(&delta).expect("the span tree reconciles with the registry delta");
    (result, report, delta)
}

/// A point probe projecting `region` and a COUNT over `region` — two
/// queries over the same chains — with every page they touch resident.
fn warm_point_and_scan(t: &Table) -> (Query, Query) {
    let point = Query::filtered(
        "id",
        ValuePredicate::Eq(Value::Integer(1234)),
        Projection::Columns(vec!["region".into()]),
    );
    let scan = Query::filtered(
        "region",
        ValuePredicate::Eq(Value::Varchar("region-3".into())),
        Projection::Count,
    );
    t.execute(&point).unwrap();
    t.execute(&scan).unwrap();
    (point, scan)
}

#[test]
fn cold_scan_reports_plan_actuals_and_spans() {
    let t = paged_table(false, 600);
    // Unindexed range filter: a data-vector scan on the query's thread. `id`
    // is inserted (nearly) in order, so page summaries prune every
    // non-overlapping page.
    let q = Query::filtered(
        "id",
        ValuePredicate::Between(Value::Integer(100), Value::Integer(140)),
        Projection::RowIds,
    );

    // Freshly merged pages are not resident: the first run is cold.
    let (result, cold, delta) = explain_solo(&t, &q);
    match result {
        QueryResult::RowIds(ids) => assert_eq!(ids.len(), 41),
        other => panic!("expected row ids, got {other:?}"),
    }
    assert_eq!(cold.partitions.len(), 1);
    assert!(cold.totals().cold_loads > 0, "first run loads pages: {:?}", cold.totals());
    assert!(cold.partitions[0].kernel_width > 0, "kernel dispatched: {:?}", cold.partitions[0]);
    assert!(cold.pages_pruned > 0, "sorted ids prune pages: {}", cold.to_text());
    assert_eq!(cold.matches, 41);

    // The span tree: one query root, the scan's I/O batches under it.
    let root = cold.spans.iter().find(|s| s.id == cold.root).expect("root span recorded");
    assert_eq!(root.kind, SpanKind::Query);
    assert_eq!(root.parent, 0);
    assert_eq!(cold.wall_ns, root.duration_ns());
    let batches: Vec<_> = cold.spans.iter().filter(|s| s.kind == SpanKind::IoBatch).collect();
    assert!(!batches.is_empty(), "the cold scan's reads opened batch spans");
    let tree: HashSet<u64> = cold.spans.iter().map(|s| s.id).collect();
    assert!(batches.iter().all(|s| tree.contains(&s.parent)), "batches parent into the tree");
    assert!(cold.spans.iter().all(|s| s.end_ns >= s.start_ns));

    // Every page the query loaded is in its tree: the I/O stage tags each
    // load with the requesting span.
    let loads = delta.counter(names::POOL_LOADS);
    let loaded = cold.events.iter().filter(|e| e.kind == EventKind::PageLoaded);
    assert_eq!(loaded.count() as u64, loads, "every load of the query is in its tree");

    // The filter column's data chain is annotated with the cold traffic.
    let data = cold.partitions[0]
        .chains
        .iter()
        .find(|c| c.column == "id" && c.role == "data")
        .expect("filter column's data chain listed");
    assert!(data.actuals.pins > 0, "data pages pinned: {:?}", data.actuals);
    assert!(data.actuals.cold_loads > 0, "data pages loaded cold: {:?}", data.actuals);

    // Page provenance: every load went through the I/O stage, and this
    // query's tree initiated the coalesced batches that served it (nothing
    // to join — the pool is otherwise idle).
    assert_eq!(delta.counter(names::POOL_IO_SUBMITTED), loads);
    assert_eq!(delta.counter(names::POOL_IO_COMPLETIONS), loads);
    assert!(cold.events.iter().any(|e| e.kind == EventKind::IoBatchIssued));
    assert!(cold.batches_initiated > 0, "cold scan issues batches");
    assert_eq!(cold.batches_joined, 0, "no concurrent query to join");
    assert!(delta.counter(names::POOL_IO_PHYSICAL_READS) >= cold.batches_initiated);

    // Warm re-run: same result, no cold loads, warm pins instead — and the
    // same pages pruned.
    let (result2, warm, _) = explain_solo(&t, &q);
    match result2 {
        QueryResult::RowIds(ids) => assert_eq!(ids.len(), 41),
        other => panic!("expected row ids, got {other:?}"),
    }
    assert_eq!(warm.totals().cold_loads, 0, "second run is warm: {:?}", warm.totals());
    assert!(warm.totals().warm_pins() > 0);
    assert_eq!(warm.pages_pruned, cold.pages_pruned, "{}", warm.to_text());

    // Renderings carry the load-bearing facts.
    let text = cold.to_text();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("partition 0: kernel_width="), "{text}");
    assert!(text.contains("id/data"), "{text}");
    assert!(text.contains("query(0)"), "{text}");
    assert!(text.contains("io-batch"), "{text}");
    let json = cold.to_json();
    assert!(json.contains("\"plan\""), "{json}");
    assert!(json.contains("\"spans\""), "{json}");
    assert!(json.contains("\"batches_initiated\""), "{json}");
    assert!(json.contains("\"pages_pruned\""), "{json}");
    let trace = cold.to_chrome_trace();
    assert!(trace.starts_with('[') && trace.ends_with(']'), "{trace}");
    assert!(trace.contains("\"ph\": \"X\""), "{trace}");
    assert!(trace.contains("\"name\": \"io-batch\""), "{trace}");
}

#[test]
fn an_index_probe_records_its_traversal_span() {
    let t = paged_table(true, 500);
    // Indexed point probe: the rows come from the posting chain, and the
    // traversal records one chunk-dispatch span.
    let q = Query::filtered("id", ValuePredicate::Eq(Value::Integer(123)), Projection::RowIds);
    let (result, ea, _) = explain_solo(&t, &q);
    match result {
        QueryResult::RowIds(ids) => assert_eq!(ids, vec![123]),
        other => panic!("expected row ids, got {other:?}"),
    }
    let dispatch: Vec<_> =
        ea.spans.iter().filter(|s| s.kind == SpanKind::ChunkDispatch).collect();
    assert_eq!(dispatch.len(), 1, "one span for the one index traversal: {dispatch:?}");
    assert_eq!(dispatch[0].detail, 0);
    let index = ea.partitions[0]
        .chains
        .iter()
        .find(|c| c.column == "id" && c.role == "index")
        .expect("index chain listed for the filter column");
    assert!(index.actuals.pins > 0, "posting pages pinned: {:?}", index.actuals);
    assert_eq!(ea.partitions[0].kernel_width, 0, "no data-vector scan ran");
}

#[test]
fn explain_restores_tracer_state_and_handles_errors() {
    let t = paged_table(false, 100);
    let tracer = t.registry().tracer().clone();
    assert!(!tracer.enabled(), "tracer starts disabled");
    let q = Query::full(Projection::Count);
    let (result, ea) = t.explain_analyze(&q).unwrap();
    assert_eq!(result.count(), 100);
    assert!(!tracer.enabled(), "disabled state restored after explain");
    assert!(ea.spans.iter().any(|s| s.id == ea.root));
    assert!(tracer.drain().is_empty() && tracer.drain_spans().is_empty(), "nothing left behind");

    // Unknown column: the error surfaces and the tracer state still
    // restores (no stuck-enabled recorder).
    let bad = Query::filtered("nope", ValuePredicate::Eq(Value::Integer(1)), Projection::Count);
    assert!(t.explain_analyze(&bad).is_err());
    assert!(!tracer.enabled());

    // A pre-enabled tracer stays enabled.
    tracer.enable();
    let _ = t.explain_analyze(&q).unwrap();
    assert!(tracer.enabled(), "explicitly-enabled tracer left on");
}

#[test]
fn cold_select_star_batches_its_page_loads() {
    // Six paged columns, a 600-row range: the projection plans each phase's
    // pages across all columns and pins them as a batch, so the misses
    // reach the I/O stage together — consecutive data-vector and helper
    // pages ride ranged reads, and the query parks once per wave instead of
    // once per page.
    let schema = Schema::new(
        std::iter::once(ColumnSpec::indexed("id", DataType::Integer))
            .chain((0..5).map(|c| ColumnSpec::new(format!("c{c}"), DataType::Varchar)))
            .collect(),
    )
    .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    for i in 0..2000i64 {
        let mut row = vec![Value::Integer(i)];
        row.extend((0..5).map(|c| Value::Varchar(format!("v{c}-{:04}", (i * (c + 3)) % 700).into())));
        t.insert(row).unwrap();
    }
    t.delta_merge_all().unwrap();
    let q = Query::filtered(
        "id",
        ValuePredicate::Between(Value::Integer(100), Value::Integer(699)),
        Projection::All,
    );
    let (result, cold, delta) = explain_solo(&t, &q);
    let rows = result.into_rows();
    assert_eq!(rows.len(), 600);
    assert_eq!(rows[7], t.execute(&q).unwrap().into_rows()[7]);
    let loads = delta.counter(names::POOL_LOADS);
    assert!(loads > 0, "first run is cold: {:?}", cold.totals());
    let reads = delta.counter(names::POOL_IO_PHYSICAL_READS);
    assert!(reads < loads, "{reads} physical reads for {loads} loaded pages");
    assert!(cold.coalesced_pages > 0, "{}", cold.to_text());
    assert_eq!(delta.counter(names::POOL_IO_COMPLETIONS), loads);
    // Every load was requested under this query's span tree, and the
    // query waited in waves: far fewer page-wait spans than pages.
    let tree: HashSet<u64> = cold.spans.iter().map(|s| s.id).collect();
    let submitted: Vec<_> =
        cold.events.iter().filter(|e| e.kind == EventKind::IoSubmitted).collect();
    assert_eq!(submitted.len() as u64, loads);
    assert!(submitted.iter().all(|e| tree.contains(&e.span)), "loads carry the query's span");
    let waves = cold.spans.iter().filter(|s| s.kind == SpanKind::PageWait).count() as u64;
    assert!(waves > 0 && waves * 2 < loads, "{waves} waits for {loads} loads");
    assert_eq!(cold.batches_joined, 0, "no concurrent query to join");
    // Warm: no loads, no pin the cold run did not take (the cold run also
    // preloaded each dictionary's value-helper chain), and the ledger
    // still closes.
    let (_, warm, warm_delta) = explain_solo(&t, &q);
    assert_eq!(warm_delta.counter(names::POOL_LOADS), 0);
    assert!(
        warm.totals().pins <= cold.totals().pins,
        "warm {} > cold {}",
        warm.totals().pins,
        cold.totals().pins
    );
}

#[test]
fn traced_q_pk_num_attributes_its_two_pins_to_data_and_dict() {
    // A numeric column is a data chain and one dictionary chain: the plan
    // rows of a `Q_pk^num` must group by exactly those two roles — no
    // helper or overflow row, active or idle.
    let schema = Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("amount", DataType::Integer),
        ColumnSpec::new("region", DataType::Varchar),
    ])
    .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    // The last two ids swapped, so `id` keeps its data vector and index.
    for i in (0..598i64).chain([599, 598]) {
        t.insert(vec![
            Value::Integer(i),
            Value::Integer(i * 7 % 500),
            Value::Varchar(format!("region-{}", i % 5).into()),
        ])
        .unwrap();
    }
    t.delta_merge_all().unwrap();

    let q = Query::filtered(
        "id",
        ValuePredicate::Eq(Value::Integer(321)),
        Projection::Columns(vec!["amount".into()]),
    );
    let (result, report, _) = explain_solo(&t, &q);
    assert_eq!(result.into_rows(), vec![vec![Value::Integer(321 * 7 % 500)]]);
    let chains = &report.partitions[0].chains;
    let of = |column: &str| -> Vec<(&str, u64)> {
        chains.iter().filter(|c| c.column == column).map(|c| (c.role, c.actuals.pins)).collect()
    };
    assert_eq!(of("amount"), [("data", 1), ("dict", 1)], "one pin each: {chains:?}");
    // The filter column lists every chain it owns, idle ones included.
    let id_roles: Vec<&str> = of("id").into_iter().map(|(role, _)| role).collect();
    assert_eq!(id_roles, ["data", "dict", "index"]);
    assert!(of("region").is_empty(), "an unprojected column is not touched");
    let text = report.to_text();
    assert!(text.contains("amount/data") && text.contains("amount/dict"), "{text}");
}

#[test]
fn explain_is_exact_while_another_thread_scans_the_pool() {
    // A report folded from the registry, or from every event the tracer
    // holds, counts the scanner's pins as the point query's.
    let t = paged_table(true, 3000);
    let (point, scan) = warm_point_and_scan(&t);
    let (want, solo, _) = explain_solo(&t, &point);
    assert!(solo.totals().pins > 0 && solo.totals().cold_loads == 0, "{}", solo.to_text());
    let stop = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(t.execute(&scan).unwrap().count(), 600);
                scans.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Explain until the scanner has run many scans alongside.
        let mut explains = 0;
        while (explains < 50 || scans.load(Ordering::Relaxed) < 20) && !scanner.is_finished() {
            let (result, ea) = t.explain_analyze(&point).unwrap();
            assert_eq!(result, want);
            assert_eq!(ea.partitions[0].chains, solo.partitions[0].chains, "{}", ea.to_text());
            assert_eq!(ea.totals(), solo.totals());
            explains += 1;
        }
        stop.store(true, Ordering::Relaxed);
        scanner.join().unwrap();
    });
}

#[test]
fn concurrent_explains_each_equal_their_solo_runs() {
    // Two recordings at once: neither cuts the other off, and each takes
    // out only its own tree.
    let t = paged_table(true, 3000);
    let (point, scan) = warm_point_and_scan(&t);
    let (_, solo_point, _) = explain_solo(&t, &point);
    let (_, solo_scan, _) = explain_solo(&t, &scan);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (q, solo) in [(&point, &solo_point), (&scan, &solo_scan)] {
            let (t, start) = (&t, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..30 {
                    let (_, ea) = t.explain_analyze(q).unwrap();
                    assert_eq!(ea.partitions[0].chains, solo.partitions[0].chains);
                    assert_eq!(
                        (ea.pages_pruned, ea.chunks_scanned, ea.matches),
                        (solo.pages_pruned, solo.chunks_scanned, solo.matches)
                    );
                    assert!(ea.spans.iter().any(|s| s.id == ea.root), "the root span survived");
                }
            });
        }
    });
    let tracer = t.registry().tracer();
    assert!(!tracer.enabled(), "the last recording turned the tracer off");
    assert!(tracer.drain().is_empty() && tracer.drain_spans().is_empty(), "nothing left behind");
}

#[test]
fn a_user_drain_keeps_its_events_across_another_explain() {
    // The user's trace is not the explain's to drain, and the user flag is
    // not the explain's to clear.
    let t = paged_table(true, 3000);
    let (point, scan) = warm_point_and_scan(&t);
    let (_, solo, _) = explain_solo(&t, &scan);
    let tracer = t.registry().tracer();
    tracer.enable();
    assert_eq!(t.execute(&scan).unwrap().count(), 600);
    std::thread::scope(|s| {
        s.spawn(|| t.explain_analyze(&point).unwrap());
    });
    assert!(tracer.enabled(), "another thread's explain leaves the user flag set");
    let pins = tracer.drain().iter().filter(|e| e.kind == EventKind::PagePinned).count() as u64;
    tracer.disable();
    assert_eq!(pins, solo.totals().pins, "the user's scan, and none of the explain's pins");
}

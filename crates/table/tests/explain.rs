//! EXPLAIN ANALYZE integration: the annotated plan, span tree, and page
//! provenance of real queries, reconciled against the registry.

use payg_core::{DataType, LoadPolicy, PageConfig, ScanPath, Value, ValuePredicate};
use payg_obs::{names, EventKind, SpanKind};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, MemStore};
use payg_table::{ColumnSpec, PartitionSpec, Projection, Query, Schema, Table};
use std::sync::Arc;

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
    for i in 0..rows {
        t.insert(vec![Value::Integer(i), Value::Varchar(format!("region-{}", i % 5))]).unwrap();
    }
    t.delta_merge_all().unwrap();
    t
}

#[test]
fn cold_scan_reports_plan_actuals_and_spans() {
    let t = paged_table(false, 600);
    // Unindexed range filter: a data-vector scan on the query's thread. `id`
    // is inserted in order, so page summaries prune every non-overlapping
    // page.
    let q = Query::filtered(
        "id",
        ValuePredicate::Between(Value::Integer(100), Value::Integer(140)),
        Projection::RowIds,
    );

    // Freshly merged pages are not resident: the first run is cold.
    let (result, cold) = t.explain_analyze(&q).unwrap();
    match result {
        payg_table::QueryResult::RowIds(ids) => assert_eq!(ids.len(), 41),
        other => panic!("expected row ids, got {other:?}"),
    }
    assert_eq!(cold.partitions.len(), 1);
    assert_eq!(cold.partitions[0].path, ScanPath::DecodeThenScan);
    assert!(cold.profile.cold_loads > 0, "first run loads pages: {:?}", cold.profile);
    assert!(cold.profile.dispatch_width > 0, "kernel dispatched: {:?}", cold.profile);
    assert!(cold.profile.pages_pruned > 0, "sorted ids prune pages: {:?}", cold.profile);
    cold.check_consistency().expect("cold event log reconciles with the registry delta");

    // The span tree: one query root, the scan's I/O batches under it.
    let root = cold.spans.iter().find(|s| s.id == cold.root).expect("root span recorded");
    assert_eq!(root.kind, SpanKind::Query);
    assert_eq!(root.parent, 0);
    let batches: Vec<_> = cold.spans.iter().filter(|s| s.kind == SpanKind::IoBatch).collect();
    assert!(!batches.is_empty(), "the cold scan's reads opened batch spans");
    let tree = cold.tree();
    assert!(batches.iter().all(|s| tree.contains(&s.id)), "batches parent into the tree");
    assert!(cold.spans.iter().all(|s| s.end_ns >= s.start_ns));

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
    let loads = cold.delta.counter(names::POOL_LOADS);
    assert_eq!(cold.delta.counter(names::POOL_IO_SUBMITTED), loads);
    assert_eq!(cold.delta.counter(names::POOL_IO_COMPLETIONS), loads);
    assert!(cold.events.iter().any(|e| e.kind == EventKind::IoBatchIssued));
    assert!(cold.batches_initiated > 0, "cold scan issues batches");
    assert_eq!(cold.batches_joined, 0, "no concurrent query to join");
    assert!(cold.profile.io_batches >= cold.batches_initiated);

    // Warm re-run: same result, no cold loads, warm pins instead — and the
    // same pages pruned.
    let (result2, warm) = t.explain_analyze(&q).unwrap();
    match result2 {
        payg_table::QueryResult::RowIds(ids) => assert_eq!(ids.len(), 41),
        other => panic!("expected row ids, got {other:?}"),
    }
    assert_eq!(warm.profile.cold_loads, 0, "second run is warm: {:?}", warm.profile);
    assert!(warm.profile.warm_hits > 0);
    assert_eq!(warm.profile.pages_pruned, cold.profile.pages_pruned, "{:?}", warm.profile);
    warm.check_consistency().expect("warm event log reconciles too");

    // Renderings carry the load-bearing facts.
    let text = cold.to_text();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("partition 0: path=DecodeThenScan"), "{text}");
    assert!(text.contains("id/data"), "{text}");
    assert!(text.contains("query(0)"), "{text}");
    assert!(text.contains("io-batch"), "{text}");
    let json = cold.to_json();
    assert!(json.contains("\"plan\""), "{json}");
    assert!(json.contains("\"spans\""), "{json}");
    assert!(json.contains("\"batches_initiated\""), "{json}");
    let trace = cold.to_chrome_trace();
    assert!(trace.starts_with('[') && trace.ends_with(']'), "{trace}");
    assert!(trace.contains("\"ph\": \"X\""), "{trace}");
    assert!(trace.contains("\"name\": \"io-batch\""), "{trace}");
}

#[test]
fn compressed_domain_plan_shows_chunk_dispatch() {
    let t = paged_table(true, 500);
    // Indexed point probe under PEF postings: the plan says compressed
    // domain, and the execution records the dispatch decision as a span.
    let q = Query::filtered("id", ValuePredicate::Eq(Value::Integer(123)), Projection::RowIds);
    assert_eq!(t.scan_plan(&q).unwrap(), vec![ScanPath::CompressedDomain]);
    let (result, ea) = t.explain_analyze(&q).unwrap();
    match result {
        payg_table::QueryResult::RowIds(ids) => assert_eq!(ids, vec![123]),
        other => panic!("expected row ids, got {other:?}"),
    }
    assert_eq!(ea.partitions[0].path, ScanPath::CompressedDomain);
    let dispatch: Vec<_> =
        ea.spans.iter().filter(|s| s.kind == SpanKind::ChunkDispatch).collect();
    assert!(!dispatch.is_empty(), "index traversal records its dispatch");
    assert!(
        dispatch.iter().all(|s| s.detail == 1),
        "PEF point probe dispatches compressed-domain: {dispatch:?}"
    );
    let index = ea.partitions[0]
        .chains
        .iter()
        .find(|c| c.column == "id" && c.role == "index")
        .expect("index chain listed for the filter column");
    assert!(index.actuals.pins > 0, "posting pages pinned: {:?}", index.actuals);
    ea.check_consistency().expect("event log reconciles with the registry delta");
    assert!(ea.to_text().contains("path=CompressedDomain"));
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
        row.extend((0..5).map(|c| Value::Varchar(format!("v{c}-{:04}", (i * (c + 3)) % 700))));
        t.insert(row).unwrap();
    }
    t.delta_merge_all().unwrap();
    let q = Query::filtered(
        "id",
        ValuePredicate::Between(Value::Integer(100), Value::Integer(699)),
        Projection::All,
    );
    let (result, cold) = t.explain_analyze(&q).unwrap();
    let rows = result.into_rows();
    assert_eq!(rows.len(), 600);
    assert_eq!(rows[7], t.execute(&q).unwrap().into_rows()[7]);
    cold.check_consistency().expect("batched loads reconcile event for event");
    let loads = cold.delta.counter(names::POOL_LOADS);
    assert!(loads > 0, "first run is cold: {:?}", cold.profile);
    let reads = cold.delta.counter(names::POOL_IO_PHYSICAL_READS);
    assert!(reads < loads, "{reads} physical reads for {loads} loaded pages");
    assert_eq!(cold.delta.counter(names::POOL_IO_COMPLETIONS), loads);
    // Every load was requested under this query's span tree, and the
    // query waited in waves: far fewer page-wait spans than pages.
    let tree = cold.tree();
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
    let (_, warm) = t.explain_analyze(&q).unwrap();
    assert_eq!(warm.delta.counter(names::POOL_LOADS), 0);
    let pins = |ea: &payg_table::ExplainAnalyze| {
        ea.events.iter().filter(|e| e.kind == EventKind::PagePinned).count()
    };
    assert!(pins(&warm) <= pins(&cold), "warm {} > cold {}", pins(&warm), pins(&cold));
    warm.check_consistency().expect("warm event log reconciles too");
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
    for i in 0..600i64 {
        t.insert(vec![
            Value::Integer(i),
            Value::Integer(i * 7 % 500),
            Value::Varchar(format!("region-{}", i % 5)),
        ])
        .unwrap();
    }
    t.delta_merge_all().unwrap();

    let q = Query::filtered(
        "id",
        ValuePredicate::Eq(Value::Integer(321)),
        Projection::Columns(vec!["amount".into()]),
    );
    let (result, report) = t.explain_analyze(&q).unwrap();
    assert_eq!(result, payg_table::QueryResult::Rows(vec![vec![Value::Integer(321 * 7 % 500)]]));
    report.check_consistency().expect("event log reconciles with the registry delta");
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

//! EXPLAIN ANALYZE walkthrough: run a cold scan over a compressed
//! page-loadable table, print the flight recorder's report — the static
//! plan annotated with per-chain actuals, the span tree, and the
//! page-provenance summary, all folded from the query's own span tree —
//! then re-run warm, checking every report against the registry delta of
//! its run. Also writes the span tree as a Chrome `trace_event` file
//! loadable in `about://tracing`.
//!
//! Run with: `cargo run --release --example explain`

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, ScanPath, Value, ValuePredicate};
use page_as_you_go::obs::{ObsSnapshot, SpanKind};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, ExplainAnalyze, PartitionSpec, Projection, Query, QueryResult, Schema, Table,
};
use std::sync::Arc;

/// `explain_analyze`, checked against the registry delta around it — this
/// example is the pool's only user, so every run is solo.
fn explain(table: &Table, q: &Query) -> (QueryResult, ExplainAnalyze) {
    let before = ObsSnapshot::collect(table.registry());
    let (result, report) = table.explain_analyze(q).unwrap();
    let delta = ObsSnapshot::delta(&ObsSnapshot::collect(table.registry()), &before);
    report.check_consistency(&delta).expect("the span tree reconciles with the registry delta");
    (result, report)
}

fn main() {
    let schema = Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("region", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
    ])
    .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let table = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    for i in 0..4_000i64 {
        table
            .insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("region-{}", i % 17)),
                Value::Decimal(i as i128 * 100),
            ])
            .unwrap();
    }
    table.delta_merge_all().unwrap();

    // ---- Cold run: a scan over an unindexed column -----------------------
    let scan = Query::filtered(
        "region",
        ValuePredicate::Eq(Value::Varchar("region-3".into())),
        Projection::Count,
    );
    let (result, cold) = explain(&table, &scan);
    println!("=== cold scan (COUNT = {}) ===", result.count());
    println!("{}", cold.to_text());
    assert!(cold.totals().cold_loads > 0, "first run must load pages");
    assert!(cold.partitions[0].kernel_width > 0, "the scan kernel ran");
    assert_eq!(cold.matches, result.count(), "the scan's matches are the count");
    assert!(cold.batches_initiated > 0, "cold scan issues I/O batches");
    assert!(cold.coalesced_pages > 0, "consecutive cold pages share reads");
    assert!(
        cold.spans.iter().any(|s| s.kind == SpanKind::IoBatch),
        "coalesced reads record batch spans"
    );

    // ---- Warm re-run: same plan, no cold loads ---------------------------
    let (result2, warm) = explain(&table, &scan);
    assert_eq!(result.count(), result2.count(), "warm run returns the same answer");
    assert_eq!(warm.totals().cold_loads, 0, "warm run re-hits resident pages");
    assert!(warm.totals().warm_pins() > 0);
    println!("=== warm re-run ===");
    println!(
        "cold={} warm={} batches_initiated={} wall={}ns",
        warm.totals().cold_loads,
        warm.totals().warm_pins(),
        warm.batches_initiated,
        warm.wall_ns
    );

    // ---- Compressed-domain point probe -----------------------------------
    let point =
        Query::filtered("id", ValuePredicate::Eq(Value::Integer(1234)), Projection::RowIds);
    let (_, probe) = explain(&table, &point);
    assert_eq!(probe.partitions[0].path, ScanPath::CompressedDomain, "PEF point probe");
    assert!(
        probe.spans.iter().any(|s| s.kind == SpanKind::ChunkDispatch && s.detail == 1),
        "dispatch decision recorded as a span"
    );
    println!("\n=== compressed-domain point probe ===");
    println!("{}", probe.to_text());

    // ---- Exporters --------------------------------------------------------
    println!("=== JSON (cold run) ===");
    println!("{}\n", cold.to_json());
    let trace = cold.to_chrome_trace();
    assert!(trace.contains("\"ph\": \"X\""));
    let out = std::env::temp_dir().join("payg_explain_trace.json");
    std::fs::write(&out, &trace).unwrap();
    println!("chrome trace written to {} ({} bytes)", out.display(), trace.len());
    println!("open about://tracing (or ui.perfetto.dev) and load it.");
}

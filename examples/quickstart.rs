//! Quickstart: create a table with page-loadable columns, query it, and
//! watch the memory footprint stay proportional to what you touch.
//!
//! Run with: `cargo run --release --example quickstart`

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionSpec, Projection, Query, Schema, Table,
};
use std::sync::Arc;

fn main() {
    // 1. Storage: a page store + buffer pool + resource manager. Every page
    //    a query pins is registered with the resource manager; its stats are
    //    the engine's memory footprint.
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());

    // 2. Schema: orders with an indexed primary key. The whole partition is
    //    declared PAGE LOADABLE — columns load piecewise, never whole.
    let schema = Schema::new(vec![
        ColumnSpec::new("order_id", DataType::Integer),
        ColumnSpec::new("customer", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
    ])
    .unwrap()
    .with_primary_key("order_id")
    .unwrap();
    let table = Table::create(
        pool,
        PageConfig::default(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();

    // 3. Load data. Inserts land in the write-optimized delta fragment;
    //    the delta merge builds the read-optimized main fragment: sorted
    //    dictionary, n-bit packed data vector, inverted index — persisted
    //    as page chains.
    for i in 0..50_000i64 {
        table
            .insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("customer-{:05}", i % 9_000).into()),
                Value::Decimal(i as i128 * 17 % 100_000),
            ])
            .unwrap();
    }
    table.delta_merge_all().unwrap();
    table.unload_all(); // start cold
    println!("loaded 50k orders; cold footprint: {} bytes", resman.stats().total_bytes);

    // 4. A point query touches a handful of pages, not whole columns.
    let q = Query::filtered(
        "order_id",
        ValuePredicate::Eq(Value::Integer(41_417)),
        Projection::All,
    );
    let rows = table.execute(&q).unwrap().into_rows();
    println!("point query -> {:?}", rows[0]);
    let after_point = resman.stats();
    println!(
        "footprint after one point read: {} bytes across {} paged resources",
        after_point.total_bytes, after_point.paged_count
    );

    // 5. An aggregate over a key range loads only the overlapping pages.
    let q = Query::filtered(
        "order_id",
        ValuePredicate::Between(Value::Integer(10_000), Value::Integer(10_499)),
        Projection::Sum("amount".into()),
    );
    println!("range SUM -> {:?}", table.execute(&q).unwrap());
    println!(
        "footprint after the range scan: {} bytes",
        resman.stats().total_bytes
    );

    // 6. Under memory pressure the resource manager evicts pages piecewise;
    //    queries keep working, reloading on demand.
    let freed = resman.handle_low_memory(usize::MAX / 2);
    println!("low-memory sweep evicted {freed} bytes");
    println!("query still works: {:?}", table.execute(&q).unwrap());
}

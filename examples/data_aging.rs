//! Data aging (paper §4): hot orders in fully-resident columns, cold orders
//! in page-loadable columns — same table, same SQL, different storage.
//!
//! Run with: `cargo run --release --example data_aging`

use page_as_you_go::core::{DataType, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionRange, PartitionSpec, Projection, Query, Schema, Table,
};
use std::sync::Arc;

fn main() {
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());

    // An aging-aware table: the artificial temperature column `closed_on`
    // is the partition column. Orders still open carry closed_on = 9999-12
    // (a date far in the future keeps them hot).
    let schema = Schema::new(vec![
        ColumnSpec::new("order_id", DataType::Integer),
        ColumnSpec::new("customer", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("closed_on", DataType::Integer), // yyyymm
    ])
    .unwrap()
    .with_primary_key("order_id")
    .unwrap()
    .with_partition_column("closed_on")
    .unwrap();

    // Hot partition: default (fully resident) columns. Cold partition:
    // PAGE LOADABLE columns from the very beginning (§4.2).
    let table = Table::create(
        pool,
        PageConfig::default(),
        schema,
        vec![
            PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(202401))),
            PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(202401))),
        ],
    )
    .unwrap();

    const OPEN: i64 = 999912;
    for i in 0..40_000i64 {
        table
            .insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("cust-{:04}", i % 2_500).into()),
                Value::Decimal((i as i128 * 37) % 500_000),
                Value::Integer(OPEN),
            ])
            .unwrap();
    }
    table.delta_merge_all().unwrap();
    println!(
        "inserted 40k open orders -> hot {} rows, cold {} rows",
        table.partitions()[0].visible_rows(),
        table.partitions()[1].visible_rows()
    );

    // The application closes old orders: an ordinary UPDATE on the
    // temperature column. Because it is the partition column, the rows move
    // into the cold partition's delta — no downtime, nothing blocked.
    let closed = table
        .update_rows(
            "order_id",
            &ValuePredicate::Between(Value::Integer(0), Value::Integer(29_999)),
            "closed_on",
            &Value::Integer(202311),
        )
        .unwrap();
    // The aging run: relocate rows a boundary shift left misplaced (none
    // here), then merge so the moved rows become page-loadable main data.
    let relocated = table.relocate_misplaced().unwrap();
    table.delta_merge_all().unwrap();
    println!(
        "closed {closed} orders (moved {relocated} more during the run) -> \
         hot {} rows, cold {} rows",
        table.partitions()[0].visible_rows(),
        table.partitions()[1].visible_rows()
    );

    // Cold data is still plain SQL — same table, same operators.
    table.unload_all();
    let audit = Query::filtered(
        "order_id",
        ValuePredicate::Eq(Value::Integer(12_345)),
        Projection::All,
    );
    println!("audit of an aged order: {:?}", table.execute(&audit).unwrap());
    let after_audit = resman.stats();
    println!(
        "footprint after the audit: {} bytes ({} paged resources) — \
         a resident cold store would have loaded whole columns",
        after_audit.total_bytes, after_audit.paged_count
    );

    // An analysis across both temperatures still works.
    let q = Query::filtered(
        "customer",
        ValuePredicate::Eq(Value::Varchar("cust-0042".into())),
        Projection::Count,
    );
    match table.execute(&q).unwrap() {
        page_as_you_go::table::QueryResult::Count(n) => {
            println!("orders of cust-0042 across hot+cold: {n}")
        }
        other => panic!("{other:?}"),
    }

    println!("\n{}", table.table_stats());
}

//! Aggregates in the vid domain, seen from tier 1: a two-partition table
//! (one resident, one page loadable) is checkpointed to a `FileStore`,
//! reopened cold with a small paged pool, then updated and appended to — so
//! it holds merged main rows, deleted main rows and live delta rows — and
//! filtered `SUM` / `MIN` / `MAX` / `DISTINCT` through `Table::session()`
//! must equal the reference executor's fold over a plain `Vec<Row>`.

mod reference;

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::{PoolLimits, ResourceManager};
use page_as_you_go::storage::{BufferPool, FileStore, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionRange, PartitionSpec, Projection, Query, Row, Schema, Table,
};
use std::sync::Arc;

fn row(id: i64) -> Row {
    vec![
        Value::Integer(id),
        Value::Integer((id * 37) % 400), // day: the partition column
        Value::Varchar(format!("customer-{:03}", (id * 13) % 97).into()),
        Value::Decimal(i128::from((id * 7919) % 1_000) * 25),
    ]
}

#[test]
fn filtered_aggregates_equal_a_row_fold_on_a_reopened_file_store() {
    let dir = std::env::temp_dir().join(format!("payg-aggregates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("day", DataType::Integer),
        ColumnSpec::new("customer", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("day")
    .unwrap();
    let mut model: Vec<Row> = (0..1_500).map(row).collect();

    // "First process": build, merge, checkpoint.
    let catalog = {
        let pool =
            BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema,
            vec![
                PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(200))),
                PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(200))),
            ],
        )
        .unwrap();
        t.insert_all(model.iter().cloned()).unwrap();
        t.delta_merge_all().unwrap();
        t.checkpoint().unwrap()
    };

    // "Second process": reopen cold under a few pages of budget, then leave
    // deleted main rows and live delta rows behind.
    let resman = ResourceManager::with_paged_limits(PoolLimits::new(4 << 10, 8 << 10));
    let pool = BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), resman);
    let t = Table::open(pool, catalog).unwrap();
    let rebooked = ValuePredicate::Between(Value::Integer(300), Value::Integer(420));
    let moved = t.update_rows("id", &rebooked, "amount", &Value::Decimal(-1)).unwrap();
    assert_eq!(moved, 121);
    for r in model.iter_mut().filter(|r| rebooked.matches(&r[0])) {
        r[3] = Value::Decimal(-1);
    }
    for id in 1_500..1_540 {
        model.push(row(id));
        t.insert(row(id)).unwrap();
    }

    let session = t.session().unwrap();
    let filters = [
        // On the key: one posting run per partition.
        ("id", ValuePredicate::Between(Value::Integer(250), Value::Integer(1_520))),
        // On the partition column: the hot partition is pruned.
        ("day", ValuePredicate::Between(Value::Integer(20), Value::Integer(150))),
        ("customer", ValuePredicate::StartsWith("customer-01".into())),
        ("id", ValuePredicate::Eq(Value::Integer(-5))),
    ];
    for (name, pred) in filters {
        let mut projections = vec![Projection::Sum("amount".into())];
        for col in ["customer", "amount", "day"] {
            projections.push(Projection::Min(col.into()));
            projections.push(Projection::Max(col.into()));
            projections.push(Projection::Distinct(col.into()));
        }
        for projection in projections {
            let q = Query::filtered(name, pred.clone(), projection);
            reference::assert_answers(&session, &model, &q, "reopened, updated, appended");
        }
    }
    drop(session);
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `SUM` / `MIN` / `MAX` over primary-key ranges of random length — one
/// row to a fifth of the table, some from its first row, some through its
/// last — on high-cardinality page-loadable numeric columns (data vectors
/// of many small pages at widths that are no power of two, array
/// dictionaries of many pages, of 8- and 16-byte keys) equal the reference
/// executor's fold over the same rows. Every `DOUBLE` is a multiple of 1/8
/// small enough that its sums are exact in any order.
#[test]
fn range_aggregates_on_high_cardinality_paged_columns_equal_a_row_fold() {
    let schema = Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("price", DataType::Integer),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("ratio", DataType::Double),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap();
    let rows = 12_000i64;
    let model: Vec<Row> = (0..rows)
        .map(|id| {
            vec![
                Value::Integer(id),
                Value::Integer((id * 7919 + 13) % 3001 - 1500),
                Value::Decimal(i128::from((id * 104_729) % 2503) * 25 - 9_000),
                Value::Double(((id * 31) % 1997) as f64 / 8.0 - 100.0),
            ]
        })
        .collect();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let config = PageConfig { dict_page: 2048, ..PageConfig::tiny() };
    let spec = vec![PartitionSpec::single(LoadPolicy::PageLoadable)];
    let t = Table::create(pool, config, schema, spec).unwrap();
    t.insert_all(model.iter().cloned()).unwrap();
    t.delta_merge_all().unwrap();
    let session = t.session().unwrap();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |below: i64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % below as u64) as i64
    };
    for i in 0..60 {
        let len = 1 + next(rows / 5);
        let from = match i % 6 {
            0 => 0,
            1 => rows - len,
            _ => next(rows - len + 1),
        };
        let pred = ValuePredicate::Between(Value::Integer(from), Value::Integer(from + len - 1));
        for col in ["price", "amount", "ratio"] {
            for projection in [
                Projection::Sum(col.into()),
                Projection::Min(col.into()),
                Projection::Max(col.into()),
            ] {
                let q = Query::filtered("id", pred.clone(), projection);
                reference::assert_answers(&session, &model, &q, "a primary-key range");
            }
        }
    }
}

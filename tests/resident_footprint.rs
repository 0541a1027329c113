//! The memory ledger closing for one structure, seen from tier 1: a fully
//! resident table keyed by a VARCHAR column is checkpointed to a
//! `FileStore` and reopened; after its first query the resource manager
//! holds exactly what the loaded column says it holds, and that is the key
//! bytes plus four bytes a key, the data vector and the index — no per-key
//! allocation, no growth slack. The answers equal the reference executor's.

mod reference;

use page_as_you_go::core::column::Column;
use page_as_you_go::core::invidx::InMemoryInvertedIndex;
use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::encoding::BitPackedVec;
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, FileStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionSpec, Projection, Query, QueryResult, Row, Schema, Table,
};
use std::sync::Arc;

const KEYS: i64 = 20_000;

fn row(i: i64) -> Row {
    vec![
        // Scattered, so identifier order is not insertion order.
        Value::Varchar(format!("MAT-{:09}", (i * 7_919) % 1_000_003)),
        Value::Varchar(format!("plant-{:02}", i % 37)),
        Value::Integer(i % 1_000),
    ]
}

fn loaded_bytes(column: &Column) -> Option<usize> {
    match column {
        Column::Resident(c) => c.loaded_bytes(),
        Column::Paged(_) => panic!("the table is fully resident"),
    }
}

#[test]
fn a_resident_key_column_registers_what_it_holds_and_holds_no_slack() {
    let dir = std::env::temp_dir().join(format!("payg-resident-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::new(vec![
        ColumnSpec::indexed("material", DataType::Varchar),
        ColumnSpec::new("plant", DataType::Varchar),
        ColumnSpec::new("quantity", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("material")
    .unwrap();
    let model: Vec<Row> = (0..KEYS).map(row).collect();

    // "First process": build, merge, checkpoint.
    let catalog = {
        let pool =
            BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::default(),
            schema,
            vec![PartitionSpec::single(LoadPolicy::FullyResident)],
        )
        .unwrap();
        t.insert_all(model.iter().cloned()).unwrap();
        t.delta_merge_all().unwrap();
        t.checkpoint().unwrap()
    };

    // "Second process": nothing is loaded until a query asks.
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), resman.clone());
    let t = Table::open(pool, catalog).unwrap();
    let session = t.session().unwrap();
    let columns = session.partitions()[0].main().columns();
    assert_eq!(resman.stats().total_bytes, 0);
    assert_eq!(loaded_bytes(&columns[0]), None);

    // The first query reads the key column alone.
    let probe = model[4_217][0].clone();
    let q = Query::filtered("material", ValuePredicate::Eq(probe), Projection::Count);
    assert_eq!(session.execute(&q).unwrap(), QueryResult::Count(1));
    let held = loaded_bytes(&columns[0]).expect("the query loaded the key column");
    let stats = resman.stats();
    assert_eq!(stats.total_bytes, held, "the resman holds exactly the image's heap bytes");
    assert_eq!((stats.paged_bytes, stats.resource_count), (0, 1));

    // What a column of these keys has to hold, built independently.
    let mut sorted: Vec<&Value> = model.iter().map(|r| &r[0]).collect();
    sorted.sort_by_key(|v| v.to_key());
    let vids: Vec<u64> = model
        .iter()
        .map(|r| sorted.binary_search_by_key(&r[0].to_key(), |v| v.to_key()).unwrap() as u64)
        .collect();
    let n = sorted.len();
    assert_eq!(n as i64, KEYS, "the keys are distinct");
    let key_bytes: usize = sorted.iter().map(|v| v.to_key().len()).sum();
    let floor = key_bytes
        + 4 * (n + 1)
        + BitPackedVec::from_values(&vids).heap_bytes()
        + InMemoryInvertedIndex::build(&vids, n as u64).heap_bytes();
    assert!(
        held <= floor + floor / 100,
        "the key column holds {held} bytes; keys + offsets + data vector + index are {floor}"
    );

    // Q_pk^* and Q_str^count against the reference executor; the ledger
    // still closes once every column is loaded.
    let mut queries: Vec<Query> = [0, 1, 4_217, KEYS - 1]
        .map(|i| ValuePredicate::Eq(model[i as usize][0].clone()))
        .into_iter()
        .chain([ValuePredicate::Eq(Value::Varchar("MAT-".into()))])
        .map(|pred| Query::filtered("material", pred, Projection::All))
        .collect();
    for plant in ["plant-00", "plant-36", "plant-37", ""] {
        let pred = ValuePredicate::Eq(Value::Varchar(plant.into()));
        queries.push(Query::filtered("plant", pred, Projection::Count));
    }
    for q in &queries {
        reference::assert_answers(&session, &model, q, "reopened");
    }
    let all: usize = columns.iter().map(|c| loaded_bytes(c).expect("every column was read")).sum();
    assert_eq!(resman.stats().total_bytes, all);

    drop(session);
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
}

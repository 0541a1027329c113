//! The memory ledger closing for one structure, seen from tier 1: a fully
//! resident table keyed by a VARCHAR column is checkpointed to a
//! `FileStore` and reopened; after its first query the resource manager
//! holds exactly what the loaded column says it holds, and that is at most
//! the key bytes plus four bytes a key, the data vector and the index — no
//! per-key allocation, no growth slack. The answers equal the reference
//! executor's. A resident key column like the benchmark's holds its
//! dictionary front-coded, in under half its key bytes.

mod reference;

use page_as_you_go::core::column::Column;
use page_as_you_go::core::invidx::InMemoryInvertedIndex;
use page_as_you_go::core::{
    ColumnBuilder, ColumnRead, DataType, LoadPolicy, PageConfig, Value, ValuePredicate,
};
use page_as_you_go::encoding::BitPackedVec;
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, FileStore, MemStore};
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

/// The benchmark's key shape: `C00-` and a zero-padded number, padded with
/// one letter to 14 bytes.
fn benchmark_key(i: u64) -> String {
    let mut key = format!("C00-{i:09}");
    key.push(char::from(b'a' + ((i + 13) % 26) as u8));
    key
}

#[test]
fn resident_dictionary_is_front_coded() {
    const ROWS: u64 = 100_000;
    // Unique, inserted in scattered order.
    let values: Vec<Value> =
        (0..ROWS).map(|i| Value::Varchar(benchmark_key((i * 7_919) % ROWS))).collect();
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
    let build = |policy| {
        ColumnBuilder::new(DataType::Varchar)
            .policy(policy)
            .build(&pool, &PageConfig::default(), &values)
            .unwrap()
            .column
    };
    let resident = build(LoadPolicy::FullyResident);
    let paged = build(LoadPolicy::PageLoadable);
    assert_eq!(resident.cardinality(), ROWS);

    // The ledger: the resource manager holds what the image says it holds.
    let probe = ValuePredicate::Eq(values[17].clone());
    assert_eq!(resident.find_rows(&probe, 0, ROWS).unwrap(), vec![17]);
    let held = loaded_bytes(&resident).expect("the probe loaded the column");
    let stats = resman.stats();
    assert_eq!(stats.total_bytes - stats.paged_bytes, held);

    // The dictionary is what the image holds beyond its data vector.
    let vids: Vec<u64> = values
        .iter()
        .map(|v| match v {
            Value::Varchar(s) => s[4..13].parse().unwrap(),
            _ => unreachable!(),
        })
        .collect();
    let dict = held - BitPackedVec::from_values(&vids).heap_bytes();
    assert!(
        dict as u64 <= 7 * ROWS,
        "the dictionary holds {dict} bytes for {ROWS} 14-byte keys: over 7 bytes a key"
    );

    // Both load policies answer every find and every identifier alike.
    let all: Vec<u64> = (0..ROWS).collect();
    assert_eq!(resident.values_by_vid(&all).unwrap(), paged.values_by_vid(&all).unwrap());
    let mut probes = vec![String::new(), "C00-".into(), "C01".into()];
    for i in 0..ROWS {
        let key = benchmark_key(i);
        probes.push(key[..13].into());
        probes.push(format!("{key}\0"));
        probes.push(key);
    }
    // A hit or an empty set, then the insertion point as a range's start.
    let top = Value::Varchar("D".into());
    for p in probes.into_iter().map(Value::Varchar) {
        for pred in [ValuePredicate::Eq(p.clone()), ValuePredicate::Between(p, top.clone())] {
            assert_eq!(resident.vid_set_for(&pred).unwrap(), paged.vid_set_for(&pred).unwrap());
        }
    }
}

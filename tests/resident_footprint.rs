//! The memory ledger closing for one structure, seen from tier 1: a fully
//! resident table keyed by a VARCHAR column is checkpointed to a
//! `FileStore` and reopened; after its first query the resource manager
//! holds exactly what the loaded column says it holds, and that is at most
//! the key bytes plus four bytes a key, the data vector and the index — no
//! per-key allocation, no growth slack. The answers equal the reference
//! executor's. A resident key column like the benchmark's holds its
//! dictionary front-coded, in under half its key bytes — and, when its keys
//! ascend with the rows, nothing else: every row is its own identifier, so
//! neither a data vector nor postings are stored or loaded.

mod reference;

use page_as_you_go::core::column::Column;
use page_as_you_go::core::dict::BlockDict;
use page_as_you_go::core::invidx::InMemoryInvertedIndex;
use page_as_you_go::core::{
    ColumnBuilder, ColumnRead, DataType, LoadPolicy, PageConfig, Value, ValuePredicate,
};
use page_as_you_go::encoding::BitPackedVec;
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, ChainId, FileStore, MemStore, PageStore};
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

/// The benchmark's key column: `ROWS` benchmark-shaped keys inserted in
/// ascending order, beside a plant and a quantity column.
fn benchmark_rows() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            vec![
                Value::Varchar(benchmark_key(i)),
                Value::Varchar(format!("plant-{:02}", i * 7 % 37)),
                Value::Integer((i * 7_919 % 1_000) as i64),
            ]
        })
        .collect()
}

const ROWS: u64 = 100_000;

/// Inserts `model` into a fully resident table keyed by its first column on
/// a `FileStore` in `dir`, merges and checkpoints it; returns the catalog.
fn checkpointed_key_table(dir: &std::path::Path, model: &[Row]) -> ChainId {
    let _ = std::fs::remove_dir_all(dir);
    let schema = Schema::new(vec![
        ColumnSpec::indexed("material", DataType::Varchar),
        ColumnSpec::new("plant", DataType::Varchar),
        ColumnSpec::new("quantity", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("material")
    .unwrap();
    let pool = BufferPool::new(Arc::new(FileStore::open(dir).unwrap()), ResourceManager::new());
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
}

/// The size gate of the benchmark's key dictionary: 100 000 benchmark-shaped
/// keys, merged and checkpointed on a `FileStore`, store their `dict` chain
/// in at most 5.5 bytes a key counting every page whole, and the resident
/// image of the reopened key column registers at most 522 050 bytes.
#[test]
fn the_key_dictionary_fits_its_chain_and_image_bounds() {
    let dir = std::env::temp_dir().join(format!("payg-key-dict-size-{}", std::process::id()));
    let model = benchmark_rows();
    let catalog = checkpointed_key_table(&dir, &model);

    let resman = ResourceManager::new();
    let store = Arc::new(FileStore::open(&dir).unwrap());
    let pool = BufferPool::new(store.clone(), resman.clone());
    let t = Table::open(pool, catalog).unwrap();
    let session = t.session().unwrap();
    let key = &session.partitions()[0].main().columns()[0];
    let (_, dict) = key.chains().into_iter().find(|(role, _)| *role == "dict").unwrap();
    let dict = ChainId(dict);
    let chain_bytes = store.chain_len(dict).unwrap() * store.page_size(dict).unwrap() as u64;
    assert!(
        chain_bytes * 10 <= 55 * ROWS,
        "the key's dict chain is {chain_bytes} B for {ROWS} keys: over 5.5 B a key"
    );

    let probe = ValuePredicate::Eq(model[4_217][0].clone());
    let q = Query::filtered("material", probe, Projection::Count);
    assert_eq!(session.execute(&q).unwrap(), QueryResult::Count(1));
    let held = loaded_bytes(key).expect("the probe loaded the key column");
    assert_eq!(resman.stats().total_bytes, held);
    assert!(held <= 522_050, "the key column's image registers {held} B, over 522 050");

    drop(session);
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark's key column after every merge: 100 000 benchmark-shaped
/// keys inserted in ascending order into a fully resident table on a
/// `FileStore`, merged, checkpointed and reopened. The first probe loads
/// the key column, and the resource manager then holds its front-coded
/// dictionary and nothing else; the store holds no data-vector or postings
/// chain for it. `Q_pk^*`, PK ranges, counts and row identifiers equal the
/// reference executor's.
#[test]
fn a_key_stored_in_row_order_holds_and_stores_its_dictionary_alone() {
    let dir = std::env::temp_dir().join(format!("payg-row-order-key-{}", std::process::id()));
    let model = benchmark_rows();
    let catalog = checkpointed_key_table(&dir, &model);

    // "Second process": the key column stores its dictionary chains alone,
    // and the store holds nothing but the columns' chains and the catalog.
    let resman = ResourceManager::new();
    let store = Arc::new(FileStore::open(&dir).unwrap());
    let pool = BufferPool::new(store.clone(), resman.clone());
    let t = Table::open(pool, catalog).unwrap();
    let session = t.session().unwrap();
    let columns = session.partitions()[0].main().columns();
    let roles: Vec<&str> = columns[0].chains().into_iter().map(|(role, _)| role).collect();
    assert_eq!(roles, ["dict", "dict-overflow", "dict-vid-helper", "dict-value-helper"]);
    assert!(columns[0].has_index(), "the key answers as indexed");
    assert_eq!(columns[0].index_codec(), None, "from no postings");
    let chains: usize = columns.iter().map(|c| c.chains().len()).sum();
    assert_eq!(store.chains().len(), chains + 1, "the columns' chains and the catalog");
    assert_eq!(resman.stats().total_bytes, 0);

    // The first probe loads the key column: its dictionary, front-coded.
    let probe = model[4_217][0].clone();
    let q = Query::filtered("material", ValuePredicate::Eq(probe), Projection::Count);
    assert_eq!(session.execute(&q).unwrap(), QueryResult::Count(1));
    let held = loaded_bytes(&columns[0]).expect("the probe loaded the key column");
    let stats = resman.stats();
    assert_eq!((stats.total_bytes, stats.resource_count), (held, 1));
    let keys: Vec<Vec<u8>> = model.iter().map(|r| r[0].to_key()).collect();
    let dict = BlockDict::from_sorted_keys(&keys).unwrap();
    assert_eq!(held, dict.heap_bytes(), "the image is the dictionary alone");

    // Q_pk^* (present and absent keys), PK ranges under every projection
    // a range runs, and counts, against the reference executor.
    let key = |i: u64| model[i as usize][0].clone();
    let absent = [String::new(), "C00-".into(), format!("{}\0", benchmark_key(500)), "D".into()];
    let mut queries: Vec<Query> = [0, 1, 4_217, ROWS / 2, ROWS - 1]
        .map(key)
        .into_iter()
        .chain(absent.into_iter().map(Value::Varchar))
        .map(|k| Query::filtered("material", ValuePredicate::Eq(k), Projection::All))
        .collect();
    let ranges = [
        ValuePredicate::Between(key(1_000), key(1_999)),
        ValuePredicate::Between(key(ROWS - 10), Value::Varchar("D".into())),
        ValuePredicate::Between(Value::Varchar("C00-000050000".into()), key(50_099)),
        ValuePredicate::Between(key(7), key(6)),
        ValuePredicate::In(vec![key(3), key(99_998), Value::Varchar("C00-".into())]),
    ];
    for range in ranges {
        for projection in [
            Projection::Count,
            Projection::RowIds,
            Projection::All,
            Projection::Sum("quantity".into()),
            Projection::Max("plant".into()),
        ] {
            queries.push(Query::filtered("material", range.clone(), projection));
        }
    }
    for plant in ["plant-00", "plant-36", "plant-37"] {
        let pred = ValuePredicate::Eq(Value::Varchar(plant.into()));
        queries.push(Query::filtered("plant", pred, Projection::Count));
    }
    queries.push(Query::full(Projection::Count));
    for q in &queries {
        reference::assert_answers(&session, &model, q, "reopened");
    }
    assert_eq!(loaded_bytes(&columns[0]), Some(held), "answers need nothing more loaded");

    drop(session);
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Numeric dictionaries are sorted key arrays, seen from tier 1: a table of
//! integer, decimal, double and string columns is built on a `FileStore`,
//! checkpointed and reopened — page loadable and fully resident — and the
//! Table 2 shapes that go through a numeric dictionary (`Q_pk^*`,
//! `Q_num^count` with `=` / `BETWEEN` / `IN`, aggregates over a 1 % key
//! range) must equal the reference executor's fold over a plain
//! `Vec<Row>`, before and after a delta merge with updates. Every numeric column owns exactly a
//! data chain, one dictionary chain and (when indexed) an index chain —
//! the key only its dictionary chain while its rows ascend, and again once
//! the updates moved rows to the end; a multi-page string dictionary keeps
//! the paper's four chains, a one-page one drops the two helpers.

mod reference;

use page_as_you_go::core::column::ColumnRead;
use page_as_you_go::core::{CoreError, DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{
    BufferPool, ChainId, FaultPlan, FaultyStore, FileStore, MemStore, PageKey, PageStore,
    StorageError,
};
use page_as_you_go::table::{
    ColumnSpec, PartitionSpec, Projection, Query, Row, Schema, Table, TableError,
};
use std::sync::Arc;

const ROWS: i64 = 3_000;

fn row(id: i64) -> Row {
    vec![
        Value::Integer(id * 3 - 4_000),
        Value::Integer((id * 37) % 211 - 100),
        Value::Decimal(i128::from((id * 7_919) % 1_000) * 25 - 9_999),
        Value::Double(((id * 31) % 257) as f64 * 0.125 - 8.0),
        Value::Varchar(format!("customer-{:05}", (id * 13) % 1_777).into()),
        Value::Varchar(["open", "paid", "void"][(id % 3) as usize].into()),
    ]
}

const NAMES: [&str; 6] = ["id", "qty", "price", "weight", "customer", "status"];

fn schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::indexed("qty", DataType::Integer),
        ColumnSpec::new("price", DataType::Decimal),
        ColumnSpec::new("weight", DataType::Double),
        ColumnSpec::new("customer", DataType::Varchar),
        ColumnSpec::indexed("status", DataType::Varchar),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
}

/// Numeric columns: `data`, `dict` (+ `index`); the key `dict` alone while
/// its rows ascend (`key_in_row_order`), every row its own identifier.
/// Strings: the §3.2 chains, without helpers for the three-key `status`.
fn assert_chain_roles(t: &Table, key_in_row_order: bool) {
    let schema = schema();
    for p in t.partitions() {
        for (spec, column) in schema.columns().iter().zip(p.main().columns()) {
            let roles: Vec<&str> = column.chains().into_iter().map(|(role, _)| role).collect();
            let mut expect = match (spec.data_type, spec.name.as_str()) {
                (DataType::Varchar, "status") => vec!["data", "dict", "dict-overflow"],
                (DataType::Varchar, _) => {
                    vec!["data", "dict", "dict-overflow", "dict-vid-helper", "dict-value-helper"]
                }
                _ => vec!["data", "dict"],
            };
            if spec.with_index {
                expect.push("index");
            }
            if spec.name == "id" && key_in_row_order {
                expect = vec!["dict"];
            }
            assert_eq!(roles, expect, "chains of {}", spec.name);
        }
    }
}

/// Every shape against the reference executor.
fn assert_queries_equal_fold(t: &Table, model: &[Row], when: &str) {
    let session = t.session().unwrap();
    let mut queries = Vec::new();

    // Q_pk^*: present keys (first, last, somewhere) and absent ones.
    let keys = [0, ROWS - 1, 1_234, 77].map(|id| row(id)[0].clone());
    let absent = [-4_001, -3_999, 5_000, i64::MIN, i64::MAX].map(Value::Integer);
    for key in keys.into_iter().chain(absent) {
        queries.push(Query::filtered("id", ValuePredicate::Eq(key), Projection::All));
    }

    // Q_num^count on every numeric column: `=` / `BETWEEN` / `IN`, present
    // and absent values, bounds on and between keys and beyond both ends.
    let probes: [(usize, Vec<Value>); 3] = [
        (1, [-101, -100, -37, 0, 55, 110, 111].map(Value::Integer).to_vec()),
        (2, [-10_000, -9_999, -9_998, 26, 14_976, 14_977].map(Value::Decimal).to_vec()),
        (3, [-8.5, -8.0, -0.0, 0.0, 0.0625, 24.0, f64::INFINITY].map(Value::Double).to_vec()),
    ];
    for (c, values) in &probes {
        let mut count = |pred| queries.push(Query::filtered(NAMES[*c], pred, Projection::Count));
        for v in values {
            count(ValuePredicate::Eq(v.clone()));
        }
        for lo in values {
            for hi in values {
                count(ValuePredicate::Between(lo.clone(), hi.clone()));
            }
        }
        count(ValuePredicate::In(values.clone()));
        count(ValuePredicate::In(values[..1].to_vec()));
    }

    // Aggregates over a 1 % PK range (30 rows), and over an empty one.
    let ranges = [
        ValuePredicate::Between(row(1_500)[0].clone(), row(1_529)[0].clone()),
        ValuePredicate::Between(Value::Integer(6_000), Value::Integer(7_000)),
    ];
    for range in ranges {
        for name in &NAMES[1..=3] {
            let name = name.to_string();
            for projection in [
                Projection::Sum(name.clone()),
                Projection::Min(name.clone()),
                Projection::Max(name.clone()),
                Projection::Distinct(name),
            ] {
                queries.push(Query::filtered("id", range.clone(), projection));
            }
        }
    }
    for q in &queries {
        reference::assert_answers(&session, model, q, when);
    }
}

#[test]
fn numeric_shapes_equal_a_row_fold_paged_and_resident_across_a_merge() {
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let dir = std::env::temp_dir()
            .join(format!("payg-numeric-dicts-{policy:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut model: Vec<Row> = (0..ROWS).map(row).collect();

        // "First process": build, merge, checkpoint.
        let catalog = {
            let pool =
                BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
            let t = Table::create(
                pool,
                PageConfig::tiny(),
                schema(),
                vec![PartitionSpec::single(policy)],
            )
            .unwrap();
            t.insert_all(model.iter().cloned()).unwrap();
            t.delta_merge_all().unwrap();
            assert_chain_roles(&t, true);
            t.checkpoint().unwrap()
        };

        // "Second process": reopen cold.
        let pool = BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
        let t = Table::open(pool, catalog).unwrap();
        assert_chain_roles(&t, true);
        for p in t.partitions() {
            for (c, column) in p.main().columns().iter().enumerate() {
                assert_eq!(column.len(), ROWS as u64, "{}", NAMES[c]);
            }
        }
        assert_queries_equal_fold(&t, &model, &format!("{policy:?}, reopened"));

        // Updates move values in every numeric column (new extremes among
        // them), then a merge rebuilds every dictionary.
        let touched = ValuePredicate::Between(row(1_490)[0].clone(), row(1_510)[0].clone());
        let updates = [(1, Value::Integer(-100_000)), (2, Value::Decimal(1 << 80)), (3, Value::Double(-4_096.5))];
        for (c, v) in &updates {
            assert_eq!(t.update_rows("id", &touched, NAMES[*c], v).unwrap(), 21);
            for r in model.iter_mut().filter(|r| touched.matches(&r[0])) {
                r[*c] = v.clone();
            }
        }
        assert_queries_equal_fold(&t, &model, &format!("{policy:?}, updated"));
        t.delta_merge_all().unwrap();
        assert_chain_roles(&t, false);
        assert_queries_equal_fold(&t, &model, &format!("{policy:?}, merged"));
        drop(t);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_corrupt_array_page_is_a_typed_error_not_a_panic() {
    let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
    let pool = BufferPool::new(store.clone() as Arc<dyn PageStore>, ResourceManager::new());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        schema(),
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    t.insert_all((0..ROWS).map(row)).unwrap();
    t.delta_merge_all().unwrap();
    t.unload_all();

    let price_dict = t.partitions()[0].main().column(2).chains()[1];
    assert_eq!(price_dict.0, "dict");
    let chain = ChainId(price_dict.1);
    let pages = store.chain_len(chain).unwrap();
    assert!(pages > 1);
    store.set_plan(FaultPlan::CorruptPages(
        (0..pages).map(|p| PageKey::new(chain, p)).collect(),
    ));
    let session = t.session().unwrap();
    let checksum_failure = |q: &Query| match session.execute(q) {
        Err(TableError::Core(CoreError::Storage(mut e))) => loop {
            e = match e {
                StorageError::ChecksumMismatch { key, .. } => break key.chain == chain,
                StorageError::LoadFailed { source, .. }
                | StorageError::Quarantined { source, .. } => match Arc::try_unwrap(source) {
                    Ok(inner) => inner,
                    Err(shared) => break matches!(*shared, StorageError::ChecksumMismatch { .. }),
                },
                other => panic!("expected a checksum failure, got {other:?}"),
            }
        },
        other => panic!("expected a storage error, got {other:?}"),
    };
    let key = ValuePredicate::Eq(row(42)[0].clone());
    // Both directions through the array: identifier → value, value → identifier.
    assert!(checksum_failure(&Query::filtered("id", key.clone(), Projection::All)));
    assert!(checksum_failure(&Query::filtered(
        "price",
        ValuePredicate::Eq(row(42)[2].clone()),
        Projection::Count
    )));
    // The other columns are untouched.
    let q = Query::filtered("id", key, Projection::Columns(vec!["qty".into(), "weight".into()]));
    let expect = vec![vec![row(42)[1].clone(), row(42)[3].clone()]];
    assert_eq!(session.execute(&q).unwrap().into_rows(), expect);
}

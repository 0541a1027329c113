//! A string value decoded once is shared by every cell that holds it: a
//! range projection, a projection of shuffled and repeated rows of a main
//! fragment, and `get_values` / `values_by_vid` over repeated rows and
//! identifiers — of paged and resident columns alike — hand out equal
//! VARCHAR cells of a column as one allocation.

use payg_core::{ColumnRead, DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, MemStore};
use payg_table::{ColumnSpec, PartitionSpec, Projection, Query, Row, Schema, Table};
use std::collections::HashMap;
use std::sync::Arc;

const ROWS: i64 = 3000;

/// Columns: an INTEGER key, then strings of 7 values (one dictionary
/// page), of 300 values (pages routed through the helper chain) and of 90
/// long values (entries that spill to the overflow chain), and a number.
fn row(i: i64) -> Row {
    let long = format!("{}-{}", "spilled ".repeat(8), (i * 31) % 90);
    vec![
        Value::Integer(i),
        Value::Varchar(format!("tag-{}", i % 7).into()),
        Value::Varchar(format!("customer-{:05}", (i * 13) % 300).into()),
        Value::Varchar(long.into()),
        Value::Integer(i % 11),
    ]
}

/// A merged table of [`ROWS`] rows, inserted out of key order, every
/// column under `policy`.
fn table(policy: LoadPolicy) -> Table {
    let schema = Schema::new(vec![
        ColumnSpec::indexed("pk", DataType::Integer),
        ColumnSpec::new("tag", DataType::Varchar),
        ColumnSpec::new("name", DataType::Varchar),
        ColumnSpec::new("long", DataType::Varchar),
        ColumnSpec::new("num", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("pk")
    .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let spec = vec![PartitionSpec::single(policy)];
    let t = Table::create(pool, PageConfig::tiny(), schema, spec).unwrap();
    t.insert_all((0..ROWS).map(|i| row((i * 1_237) % ROWS)).collect::<Vec<_>>()).unwrap();
    t.delta_merge_all().unwrap();
    t
}

/// Asserts that every two equal strings among `cells` are one allocation,
/// and returns how many cells shared an earlier cell's string.
fn assert_shared<'a>(what: &str, cells: impl Iterator<Item = &'a Value>) -> usize {
    let mut first: HashMap<&str, &Arc<str>> = HashMap::new();
    let mut shared = 0;
    for cell in cells {
        let Value::Varchar(s) = cell else { continue };
        match first.get(&**s) {
            Some(earlier) => {
                assert!(Arc::ptr_eq(earlier, s), "{what}: two copies of {s:?}");
                shared += 1;
            }
            None => {
                first.insert(s, s);
            }
        }
    }
    shared
}

/// Asserts [`assert_shared`] column by column over `rows`, and that rows
/// did repeat strings.
fn assert_columns_shared(what: &str, rows: &[Row]) {
    let shared: usize = (1..4)
        .map(|c| assert_shared(&format!("{what}, column {c}"), rows.iter().map(|r| &r[c])))
        .sum();
    assert!(shared > rows.len(), "{what}: {shared} shared cells over {} rows", rows.len());
}

#[test]
fn equal_string_cells_share_one_allocation() {
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let t = table(policy);
        let what = |s: &str| format!("{policy:?} {s}");

        let range = ValuePredicate::Between(Value::Integer(500), Value::Integer(1_499));
        let q = Query::filtered("pk", range, Projection::All);
        let mut rows = t.execute(&q).unwrap().into_rows();
        rows.sort_by_key(|r| r[0].to_key());
        assert_eq!(rows, (500..1_500).map(row).collect::<Vec<_>>(), "{policy:?}");
        assert_columns_shared(&what("range"), &rows);

        // Shuffled rows of the main fragment, 300 of them twice.
        let partitions = t.partitions();
        let main = partitions[0].main();
        let mut rposs: Vec<u64> = (0..1_200).map(|i| (i * 7_919) % ROWS as u64).collect();
        rposs.extend_from_within(..300);
        let rows = main.rows_at(&rposs).unwrap();
        for (at, &rpos) in rposs.iter().enumerate().step_by(97) {
            assert_eq!(rows[at], main.rows_at(&[rpos]).unwrap()[0], "{policy:?} row {rpos}");
        }
        assert_columns_shared(&what("shuffled rows"), &rows);

        for c in 1..4 {
            let column = main.column(c);
            let values = column.get_values(&rposs).unwrap();
            assert_eq!(values, rows.iter().map(|r| r[c].clone()).collect::<Vec<_>>());
            assert!(assert_shared(&what("get_values"), values.iter()) > 0);
            // Identifiers descending, each repeated: one value each.
            let card = column.cardinality();
            let vids: Vec<u64> = (0..card).rev().flat_map(|v| [v, v, card - 1 - v]).collect();
            let values = column.values_by_vid(&vids).unwrap();
            let by_vid: HashMap<u64, &Value> = vids.iter().copied().zip(&values).collect();
            for (vid, value) in vids.iter().zip(&values) {
                let (Value::Varchar(a), Value::Varchar(b)) = (value, by_vid[vid]) else {
                    panic!("{policy:?} column {c}: strings expected")
                };
                assert!(Arc::ptr_eq(a, b), "{policy:?} column {c}: identifier {vid} twice");
            }
            assert_shared(&what("values_by_vid"), values.iter());
        }
    }
}

//! One predicate form, seen from tier 1: every reader — main dictionaries,
//! the delta's unsorted dictionaries, partition pruning — evaluates a
//! filter as the key predicate it compiles to, so every projection under
//! every predicate shape must equal the reference executor. The table is
//! range partitioned and holds live rows in all three places a row can be:
//! a main fragment, a frozen delta cell left by an aborted merge, and the
//! active delta cell — plus rows `update_rows` deleted from each of them.
//! Checked under both load policies, before and after the merge that
//! finally succeeds.

mod reference;

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, FaultPlan, FaultyStore, MemStore, PageStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionId, PartitionRange, PartitionSpec, Projection, Query, Row, Schema, Table,
};
use std::sync::Arc;

const NAMES: [&str; 6] = ["id", "day", "cat", "price", "weight", "ratio"];

fn schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("day", DataType::Integer),
        ColumnSpec::indexed("cat", DataType::Varchar),
        ColumnSpec::new("price", DataType::Decimal),
        ColumnSpec::new("weight", DataType::Double),
        ColumnSpec::new("ratio", DataType::Double),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("day")
    .unwrap()
}

/// Row `i`: ids reach both `i64` extremes (so `SUM(id)` widens), strings
/// include the empty one and the largest character, and every weight is a
/// multiple of 1/4 — a sum exact in any order — with both zeros among them.
/// Prices near ±`i128::MAX / 1024` put the extremes in different fragments
/// (main rows are 0..240, frozen 240..320, active 320..380) and no sum
/// overflows. Ratios repeat both zeros, both infinities and NaN of both
/// signs, the least and greatest keys, which only delta rows hold; `SUM`
/// skips them, since a NaN sum's payload depends on the order of addition.
fn row(i: i64) -> Row {
    const BIG: i128 = i128::MAX / 1024;
    let id = match i {
        7 => i64::MAX,
        8 => i64::MIN + 1,
        _ => i * 3,
    };
    let cat = match i % 11 {
        0 => String::new(),
        1 => "\u{10FFFF}".into(),
        k => format!("cat-{k}{}", "x".repeat((i % 3) as usize)),
    };
    let weight = match i % 17 {
        0 => -0.0,
        1 => 0.0,
        k => (k as f64 - 8.0) * 0.25,
    };
    let price = match i {
        5 | 370 => BIG,
        6 => 1 - BIG,
        260 => -BIG,
        360 => BIG - 1,
        _ => i128::from((i * 37) % 500) - 250,
    };
    let ratio = match i % 13 {
        0 if i >= 320 => f64::NAN,
        1 if (240..320).contains(&i) => -f64::NAN,
        0 | 1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        k => (k % 3) as f64 * 0.25,
    };
    vec![
        Value::Integer(id),
        Value::Integer((i * 7) % 100),
        Value::Varchar(cat.into()),
        Value::Decimal(price),
        Value::Double(weight),
        Value::Double(ratio),
    ]
}

/// Every predicate shape on every column: present and absent points,
/// duplicate and empty `IN` lists, inclusive bounds on keys, `lo > hi`,
/// and prefixes — empty, matching and not.
fn predicates() -> Vec<(&'static str, ValuePredicate)> {
    use ValuePredicate::{Between, Eq, In, StartsWith};
    let int = Value::Integer;
    let dec = Value::Decimal;
    let dbl = Value::Double;
    let s = |v: &str| Value::Varchar(v.into());
    vec![
        ("id", Eq(int(30))),
        ("id", Eq(int(i64::MAX))),
        ("id", Eq(int(31))),
        ("id", Between(int(90), int(600))),
        ("id", Between(int(i64::MIN), int(0))),
        ("id", Between(int(600), int(90))),
        ("id", In(vec![int(3), int(3), int(999), int(i64::MIN + 1), int(4)])),
        ("id", In(Vec::new())),
        // The partition column: points and ranges prune a partition.
        ("day", Eq(int(14))),
        ("day", Between(int(0), int(49))),
        ("day", Between(int(45), int(55))),
        ("day", In(vec![int(70), int(3), int(70)])),
        ("cat", Eq(s(""))),
        ("cat", Eq(s("cat-5x"))),
        ("cat", Eq(s("\u{10FFFF}"))),
        ("cat", Between(s("cat-3"), s("cat-6"))),
        ("cat", In(vec![s("cat-2"), s("nope"), s("cat-2")])),
        ("cat", StartsWith("cat-1".into())),
        ("cat", StartsWith(String::new())),
        ("cat", StartsWith("\u{10FFFF}".into())),
        ("cat", StartsWith("dog".into())),
        ("price", Eq(dec(-250))),
        ("price", Between(dec(-100), dec(100))),
        ("price", In(vec![dec(12), dec(0), dec(-7)])),
        ("weight", Eq(dbl(-0.0))),
        ("weight", Eq(dbl(0.0))),
        ("weight", Between(dbl(-0.0), dbl(1.0))),
        ("weight", Between(dbl(f64::NEG_INFINITY), dbl(-1.0))),
        ("weight", In(vec![dbl(0.5), dbl(f64::NAN), dbl(0.5)])),
        ("ratio", Eq(dbl(f64::NAN))),
        ("ratio", Between(dbl(-0.0), dbl(f64::INFINITY))),
    ]
}

fn projections() -> Vec<Projection> {
    let mut out = vec![
        Projection::All,
        Projection::Columns(vec!["weight".into(), "cat".into()]),
        Projection::Count,
        Projection::RowIds,
    ];
    for name in NAMES {
        out.push(Projection::Min(name.into()));
        out.push(Projection::Max(name.into()));
        out.push(Projection::Distinct(name.into()));
    }
    for name in ["id", "day", "price", "weight"] {
        out.push(Projection::Sum(name.into()));
    }
    out
}

fn assert_every_query(t: &Table, model: &[Row], when: &str) {
    let session = t.session().unwrap();
    assert_eq!(session.visible_rows(), model.len() as u64, "{when}");
    for projection in projections() {
        let full = Query::full(projection.clone());
        reference::assert_answers(&session, model, &full, when);
        for (name, pred) in predicates() {
            let q = Query::filtered(name, pred, projection.clone());
            reference::assert_answers(&session, model, &q, when);
        }
    }
}

/// Applies `update_rows(filter, pred, set, value)` to the table and to the
/// model; returns the number of rows it moved.
fn update(
    t: &Table,
    model: &mut [Row],
    (filter, pred): (usize, ValuePredicate),
    (set, v): (usize, Value),
) -> u64 {
    let moved = t.update_rows(NAMES[filter], &pred, NAMES[set], &v).unwrap();
    let matching = model.iter_mut().filter(|r| pred.matches(&r[filter]));
    assert_eq!(matching.map(|r| r[set] = v.clone()).count() as u64, moved);
    moved
}

#[test]
fn every_projection_and_predicate_shape_equals_the_reference_executor() {
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let pool = BufferPool::new(store.clone() as Arc<dyn PageStore>, ResourceManager::new());
        let partition = |name: &str, range| {
            let mut spec = PartitionSpec::hot(name, range);
            spec.load_policy = policy;
            spec
        };
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema(),
            vec![
                partition("late", PartitionRange::AtLeast(Value::Integer(50))),
                partition("early", PartitionRange::Below(Value::Integer(50))),
            ],
        )
        .unwrap();
        let when = |what: &str| format!("{policy:?}, {what}");

        // Main rows, then rows a failed merge leaves frozen in both
        // partitions, then active rows.
        let mut model: Vec<Row> = (0..240).map(row).collect();
        t.insert_all(model.iter().cloned()).unwrap();
        t.delta_merge_all().unwrap();
        model.extend((240..320).map(row));
        t.insert_all(model[240..].iter().cloned()).unwrap();
        store.set_plan(FaultPlan::EveryNthWrite(1));
        for p in 0..2 {
            assert!(t.delta_merge(PartitionId(p)).is_err(), "the merge of partition {p} aborts");
        }
        store.set_plan(FaultPlan::None);
        model.extend((320..380).map(row));
        t.insert_all(model[320..].iter().cloned()).unwrap();
        assert_every_query(&t, &model, &when("main, frozen and active rows"));

        // Deletes from every fragment: an update in place (rows re-enter
        // the active cell of their partition) and one that moves rows
        // across partitions by their partition column.
        let spans_all = ValuePredicate::Between(Value::Integer(600), Value::Integer(1_050));
        assert!(update(&t, &mut model, (0, spans_all), (3, Value::Decimal(-7))) > 100);
        let prefix = ValuePredicate::StartsWith("cat-3".into());
        assert!(update(&t, &mut model, (2, prefix), (1, Value::Integer(75))) > 0);
        assert_every_query(&t, &model, &when("after update_rows"));

        t.delta_merge_all().unwrap();
        assert_every_query(&t, &model, &when("merged"));
    }
}

//! A projection answers in columns — per projected column, values tables
//! and each row's rank in them — and the answer read through `into_rows()`
//! equals the reference executor's. The table has two partitions, each
//! with merged main rows and live delta rows (and main rows an update
//! moved away), checked under both load policies. `SELECT *` and column
//! lists — one column projected twice — are asked over both partitions,
//! one partition, an equality and a filter that matches nothing; a main
//! fragment is also read at unsorted, repeated positions and its delta
//! appended behind, into one answer. An answer equals, and prints as, its
//! logical rows, whatever its tables.

mod reference;

use page_as_you_go::core::column::{materialize, ColumnRead};
use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionRange, PartitionSpec, Projection, Query, QueryResult, Row, Rows, Schema,
    Snapshot, Table,
};
use std::sync::Arc;

/// Rows per partition merged into its main fragment; the next [`LATE`]
/// stay in its delta.
const MERGED: i64 = 300;
const LATE: i64 = 40;

/// `id` splits the partitions at [`SPLIT`].
const SPLIT: i64 = 10_000;

/// Row `i` of partition `p`: a key, a low-cardinality string, a
/// high-cardinality one, a decimal and a double.
fn row(p: i64, i: i64) -> Row {
    vec![
        Value::Integer(p * SPLIT + i),
        Value::Varchar(format!("region-{}", i % 6).into()),
        Value::Varchar(format!("note-{:05}", (i * 7) % 251).into()),
        Value::Decimal(i128::from(i % 13) * 25),
        Value::Double(i as f64 / 4.0),
    ]
}

/// Two partitions under `policy`, each with [`MERGED`] main rows and
/// [`LATE`] delta rows, and the rows a model holds.
fn table(policy: LoadPolicy) -> (Table, Vec<Row>) {
    let schema = Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("region", DataType::Varchar),
        ColumnSpec::new("note", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("score", DataType::Double),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("id")
    .unwrap();
    let split = Value::Integer(SPLIT);
    let partition = |name: &str, range| PartitionSpec {
        load_policy: policy,
        ..PartitionSpec::hot(name, range)
    };
    let partitions = vec![
        partition("low", PartitionRange::Below(split.clone())),
        partition("high", PartitionRange::AtLeast(split)),
    ];
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let t = Table::create(pool, PageConfig::tiny(), schema, partitions).unwrap();
    let mut model = Vec::new();
    for (range, merge) in [(0..MERGED, true), (MERGED..MERGED + LATE, false)] {
        for i in range {
            for p in 0..2 {
                t.insert(row(p, i)).unwrap();
                model.push(row(p, i));
            }
        }
        if merge {
            t.delta_merge_all().unwrap();
        }
    }
    // Main rows deleted and their new versions in the delta.
    let moved = ValuePredicate::Between(Value::Integer(SPLIT + 100), Value::Integer(SPLIT + 109));
    let note = Value::Varchar("note-moved".into());
    assert_eq!(t.update_rows("id", &moved, "note", &note).unwrap(), 10);
    for r in model.iter_mut().filter(|r| moved.matches(&r[0])) {
        r[2] = note.clone();
    }
    (t, model)
}

fn queries() -> Vec<Query> {
    let both = ValuePredicate::Between(Value::Integer(250), Value::Integer(SPLIT + 120));
    let high = ValuePredicate::Between(Value::Integer(SPLIT + 20), Value::Integer(SPLIT + 330));
    let filters = [
        None,
        Some(("id".to_string(), both)),
        Some(("id".to_string(), high)),
        Some(("region".to_string(), ValuePredicate::Eq(Value::Varchar("region-4".into())))),
        Some(("note".to_string(), ValuePredicate::Eq(Value::Varchar("note-moved".into())))),
        Some(("id".to_string(), ValuePredicate::Eq(Value::Integer(SPLIT - 1)))),
    ];
    let columns = ["note", "id", "note", "score"].map(String::from).to_vec();
    let projections =
        [Projection::All, Projection::Columns(columns), Projection::Columns(vec!["region".into()])];
    filters
        .iter()
        .flat_map(|filter| {
            projections.iter().map(|p| Query { filter: filter.clone(), projection: p.clone() })
        })
        .collect()
}

/// Every query equals the reference executor through `into_rows()`; the
/// answer is as wide as its projection, equals the same rows given row by
/// row — each cell a value of its own — and prints as they do.
fn check_queries(session: &Snapshot<'_>, model: &[Row], when: &str) {
    for q in queries() {
        reference::assert_answers(session, model, &q, when);
        let QueryResult::Rows(rows) = session.execute(&q).unwrap() else { panic!("{when}: rows expected") };
        let width = match &q.projection {
            Projection::Columns(names) => names.len(),
            _ => 5,
        };
        assert_eq!(rows.width(), width, "{when}: {q:?}");
        assert_eq!(rows.iter().len(), rows.len());
        assert!(rows.iter().all(|row| row.len() == width));
        let plain = rows.clone().into_rows();
        assert_eq!(format!("{rows:?}"), format!("{plain:?}"), "{when}: {q:?}");
        let given = Rows::from(plain.clone());
        assert_eq!(rows, given, "{when}: {q:?}");
        if let Some(last) = plain.len().checked_sub(1) {
            let mut changed = plain;
            changed[last][0] = Value::Integer(-1);
            assert_ne!(rows, Rows::from(changed), "{when}: {q:?}: a cell differs");
        } else {
            assert!(rows.is_empty() && rows.get(0).is_none());
            assert_eq!(format!("{rows:?}"), "[]");
        }
    }
    let nothing = Query::filtered("id", ValuePredicate::Eq(Value::Integer(-5)), Projection::All);
    let empty = session.execute(&nothing).unwrap();
    assert_eq!(empty, QueryResult::Rows(Rows::from(Vec::new())), "{when}: an empty answer");
}

/// Each partition's main fragment read at unsorted positions, some
/// repeated, then its delta's visible rows, into one answer of a column
/// list that repeats a column: the rows at those positions. A main row is
/// the row as merged — one an update moved away is still there, holding
/// its old values — found through the `id` index, not through
/// materialization; the delta's visible rows are the partition's late
/// inserts, then the rows the update moved, in arrival order.
fn check_positions(session: &Snapshot<'_>, model: &[Row], when: &str) {
    let which = [2, 0, 4, 2, 1];
    let moved = |r: &Row| r[2] == Value::Varchar("note-moved".into());
    for (p, part) in session.partitions().iter().enumerate() {
        let main = part.main();
        let n = main.rows();
        let mut merged: Vec<Option<Row>> = vec![None; n as usize];
        for r in (0..MERGED).map(|i| row(p as i64, i)) {
            let found = main.column(0).find_rows(&ValuePredicate::Eq(r[0].clone()), 0, n).unwrap();
            let [rpos] = found[..] else { panic!("{when}: {:?} at {found:?}", r[0]) };
            merged[rpos as usize] = Some(r);
        }
        let mut positions: Vec<u64> = (0..60).map(|k| (k * 7919 + 13) % n).collect();
        positions.extend([positions[4], n - 1, 0, positions[4], positions[4]]);
        let delta = part.delta();
        let live = delta.visible_positions();
        let mut rows = Rows::new(which.len(), positions.len() + live.len());
        materialize(main.columns(), &which, &positions, &mut rows).unwrap();
        delta.materialize(&which, &live, &mut rows).unwrap();

        let mut want: Vec<&Row> =
            positions.iter().map(|&rpos| merged[rpos as usize].as_ref().unwrap()).collect();
        let in_partition = |r: &&Row| matches!(r[0], Value::Integer(k) if (k >= SPLIT) == (p == 1));
        let late = |r: &&Row| matches!(r[0], Value::Integer(k) if k % SPLIT >= MERGED);
        let mine = || model.iter().filter(in_partition);
        want.extend(mine().filter(late).chain(mine().filter(|r| moved(r))));
        let want: Vec<Row> = want.iter().map(|r| which.iter().map(|&c| r[c].clone()).collect()).collect();
        assert_eq!(rows.len(), want.len(), "{when}: partition {p}");
        assert_eq!(rows.into_rows(), want, "{when}: partition {p} at {positions:?}");
    }
}

#[test]
fn projections_answer_in_columns_equal_to_the_reference_rows() {
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let (t, model) = table(policy);
        let session = t.session().unwrap();
        assert!(session.partitions().iter().all(|p| p.delta().visible_rows() > 0), "live delta rows");
        let when = format!("{policy:?}, main and delta");
        check_queries(&session, &model, &when);
        check_positions(&session, &model, &when);
        drop(session);
        t.delta_merge_all().unwrap();
        check_queries(&t.session().unwrap(), &model, &format!("{policy:?}, merged"));
    }
}

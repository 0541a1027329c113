//! Late materialization writes every value into its own row and column
//! slot: one-row and many-row projections equal the reference executor,
//! and a main fragment read at unsorted, duplicated positions equals the
//! rows at those positions. The table mixes resident and paged columns over
//! every dictionary shape a value is read from — numeric arrays of one page
//! and of many, a one-page string dictionary, a multi-page FSST dictionary
//! routed by helper pages, entries spilled to overflow pages and width-0
//! columns — and holds main and delta rows; it is checked under both load
//! policies, before and after the merge that folds the delta in.

mod reference;

use page_as_you_go::core::column::{materialize, ColumnRead};
use page_as_you_go::core::{CodecKind, DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, ChainId, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionSpec, Projection, Query, Row, Schema, Snapshot, Table,
};
use std::sync::Arc;

/// Rows merged into the main fragment first; the next [`LATE`] stay in the
/// delta until the second merge.
const MERGED: i64 = 700;
const LATE: i64 = 60;

/// The schema under partition policy `policy`, with `price` and `tag` — a
/// numeric and a string column — flipped to the other policy, so every
/// projection mixes resident and paged columns.
fn schema(policy: LoadPolicy) -> Schema {
    let other = match policy {
        LoadPolicy::PageLoadable => LoadPolicy::FullyResident,
        LoadPolicy::FullyResident => LoadPolicy::PageLoadable,
    };
    Schema::new(vec![
        ColumnSpec::indexed("id", DataType::Integer),
        ColumnSpec::new("small", DataType::Integer),
        ColumnSpec::new("price", DataType::Decimal).with_load_policy(other),
        ColumnSpec::new("one", DataType::Varchar),
        ColumnSpec::new("zero", DataType::Double),
        ColumnSpec::new("tag", DataType::Varchar).with_load_policy(other),
        ColumnSpec::new("name", DataType::Varchar),
        ColumnSpec::new("blob", DataType::Varchar),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
}

/// Row `i`: a many-page numeric array (`id`, `price`), a one-page one
/// (`small`), two single-valued, width-0 columns (`one`, `zero`), a
/// one-page string dictionary (`tag`), a compressible high-cardinality one
/// (`name`) and, every fourth row, a value that spills off its page
/// (`blob`).
fn row(i: i64) -> Row {
    let blob = if i % 4 == 0 {
        format!(
            "blob-{i:04}-{}",
            "spills off the dictionary page ".repeat(3)
        )
    } else {
        format!("b{}", i % 9)
    };
    vec![
        Value::Integer(i * 3 - 1000),
        Value::Integer(i % 7),
        Value::Decimal(i128::from((i * 37) % 500) - 250),
        Value::Varchar("only".into()),
        Value::Double(0.5),
        Value::Varchar(format!("tag-{}", i % 5)),
        Value::Varchar(format!("customer-name-{i:06}")),
        Value::Varchar(blob),
    ]
}

fn id(i: i64) -> Value {
    row(i)[0].clone()
}

fn table(policy: LoadPolicy) -> (Table, Vec<Row>) {
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let spec = vec![PartitionSpec::single(policy)];
    let t = Table::create(pool, PageConfig::tiny(), schema(policy), spec).unwrap();
    let rows: Vec<Row> = (0..MERGED + LATE).map(row).collect();
    t.insert_all(rows[..MERGED as usize].iter().cloned())
        .unwrap();
    t.delta_merge_all().unwrap();
    t.insert_all(rows[MERGED as usize..].iter().cloned())
        .unwrap();
    (t, rows)
}

/// The pages of the chain `role` of column `name` of the main fragment.
fn chain_pages(t: &Table, session: &Snapshot<'_>, name: &str, role: &str) -> u64 {
    let col = session.schema().column_index(name).unwrap();
    let main = session.partitions()[0].main();
    let (_, chain) = main
        .column(col)
        .chains()
        .into_iter()
        .find(|(r, _)| *r == role)
        .unwrap();
    t.pool().store().chain_len(ChainId(chain)).unwrap()
}

/// The dictionary shapes the rows are meant to cover are there.
fn assert_shapes(t: &Table, session: &Snapshot<'_>) {
    let main = session.partitions()[0].main();
    let codec = |name: &str| {
        main.column(session.schema().column_index(name).unwrap())
            .dict_codec()
    };
    assert!(
        chain_pages(t, session, "id", "dict") > 1,
        "id: a many-page array"
    );
    assert_eq!(
        chain_pages(t, session, "small", "dict"),
        1,
        "small: a one-page array"
    );
    assert_eq!(codec("id"), CodecKind::Array);
    assert_eq!(
        chain_pages(t, session, "tag", "dict"),
        1,
        "tag: a one-page string dictionary"
    );
    assert_eq!(codec("name"), CodecKind::Fsst, "name: FSST-coded");
    assert!(
        chain_pages(t, session, "name", "dict") > 1,
        "name: routed by helper pages"
    );
    assert!(
        chain_pages(t, session, "blob", "dict-overflow") > 0,
        "blob: spilled entries"
    );
    for name in ["one", "zero"] {
        let c = main.column(session.schema().column_index(name).unwrap());
        assert_eq!(c.cardinality(), 1, "{name}: a width-0 column");
    }
}

/// One-row and many-row queries, each projecting every column and a
/// shuffled, duplicated subset of them.
fn queries() -> Vec<Query> {
    use ValuePredicate::{Between, Eq, In, StartsWith};
    let filters = vec![
        ("id", Eq(id(0))),
        ("id", Eq(id(1))),
        ("id", Eq(id(MERGED / 2))),
        ("id", Eq(id(MERGED - 1))),
        ("id", Eq(id(MERGED + 7))),
        ("id", Eq(Value::Integer(1))),
        ("id", Between(id(MERGED - 30), id(MERGED + 20))),
        (
            "id",
            In(vec![id(MERGED + 3), id(12), id(400), id(12), id(5)]),
        ),
        ("name", StartsWith("customer-name-0006".into())),
        ("tag", Eq(Value::Varchar("tag-3".into()))),
        ("blob", Eq(Value::Varchar("b4".into()))),
    ];
    let subset: Vec<String> = [
        "blob", "id", "name", "zero", "blob", "tag", "one", "price", "small",
    ]
    .map(String::from)
    .to_vec();
    let mut out = vec![Query::full(Projection::All)];
    for (col, pred) in filters {
        out.push(Query::filtered(col, pred.clone(), Projection::All));
        out.push(Query::filtered(
            col,
            pred,
            Projection::Columns(subset.clone()),
        ));
    }
    out
}

/// The main fragment read at unsorted, duplicated positions — all columns
/// through `rows_at`, and a shuffled, duplicated column subset through
/// `materialize` — equals the model rows at those positions. A position's
/// row is found through the `id` index, not through materialization.
fn assert_positions(session: &Snapshot<'_>, model: &[Row], when: &str) {
    let main = session.partitions()[0].main();
    let n = main.rows();
    let mut at: Vec<Option<&Row>> = vec![None; n as usize];
    for r in model {
        let found = main
            .column(0)
            .find_rows(&ValuePredicate::Eq(r[0].clone()), 0, n)
            .unwrap();
        if let [rpos] = found[..] {
            at[rpos as usize] = Some(r);
        }
    }
    let at: Vec<&Row> = at
        .into_iter()
        .map(|r| r.expect("every main row is a model row"))
        .collect();
    let mut positions: Vec<u64> = (0..40).map(|k| (k * 7919 + 13) % n).collect();
    positions.extend([positions[3], n - 1, 0, positions[3]]);
    let which = [7, 0, 6, 4, 7, 5, 3, 2, 1, 0];
    for rposs in [&positions[..], &positions[5..6], &[n - 1, n - 1][..]] {
        let expect: Vec<Row> = rposs.iter().map(|&r| at[r as usize].clone()).collect();
        assert_eq!(
            main.rows_at(rposs).unwrap(),
            expect,
            "{when}: rows at {rposs:?}"
        );
        let mut rows: Vec<Row> = vec![Vec::new(); rposs.len()];
        materialize(main.columns(), &which, rposs, &mut rows).unwrap();
        let expect: Vec<Row> = expect
            .iter()
            .map(|r| which.iter().map(|&c| r[c].clone()).collect())
            .collect();
        assert_eq!(rows, expect, "{when}: columns {which:?} at {rposs:?}");
    }
}

fn check(t: &Table, model: &[Row], when: &str) {
    let session = t.session().unwrap();
    assert_shapes(t, &session);
    for q in queries() {
        reference::assert_answers(&session, model, &q, when);
    }
    assert_positions(&session, model, when);
}

#[test]
fn projections_write_every_value_into_its_own_row_and_column() {
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let (t, model) = table(policy);
        check(&t, &model, &format!("{policy:?}, main and delta"));
        t.delta_merge_all().unwrap();
        check(&t, &model, &format!("{policy:?}, merged"));
    }
}

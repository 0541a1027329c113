//! A key whose rows ascend is stored as its dictionary alone — every row is
//! its own identifier, so there is no data vector and no postings — and
//! each merge decides that again from the rows. An op schedule over a
//! two-partition table on a `FileStore`, under both load policies, breaks
//! the key order and restores it: an out-of-order insert, a delete, key
//! updates, boundary shifts with `relocate_misplaced`, merges, and a
//! checkpoint with a reopen. After every step the answers equal the
//! reference executor's; after every merge the key column of each
//! partition is stored as its rows dictate.

mod reference;

use page_as_you_go::core::column::ColumnRead;
use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::{Disposition, ResourceManager};
use page_as_you_go::storage::{BufferPool, ChainId, FileStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionId, PartitionRange, PartitionSpec, Projection, Query, Row, Schema, Table,
};
use std::sync::Arc;

const ROWS: u64 = 1_000;
const OLD: PartitionId = PartitionId(0);
const NEW: PartitionId = PartitionId(1);

/// The benchmark's key shape: `C00-` and a zero-padded number, padded with
/// one letter to 14 bytes.
fn key(i: u64) -> Value {
    Value::Varchar(format!("C00-{i:09}{}", char::from(b'a' + ((i + 13) % 26) as u8)).into())
}

/// A key between `key(i)` and `key(i + 1)`.
fn key_after(i: u64) -> Value {
    match key(i) {
        Value::Varchar(k) => Value::Varchar(format!("{k}~").into()),
        _ => unreachable!(),
    }
}

/// Row `i`: its key, its day (the partition column: days below 5 are old)
/// and a quantity.
fn row(i: u64) -> Row {
    vec![key(i), Value::Integer((i / 100) as i64), Value::Integer((i * 7_919 % 1_000) as i64)]
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::indexed("key", DataType::Varchar),
        ColumnSpec::new("day", DataType::Integer),
        ColumnSpec::new("qty", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("key")
    .unwrap()
    .with_partition_column("day")
    .unwrap()
}

fn partition(name: &str, range: PartitionRange, load_policy: LoadPolicy) -> PartitionSpec {
    PartitionSpec { name: name.into(), range, load_policy, disposition: Disposition::MidTerm }
}

fn day(d: i64) -> Value {
    Value::Integer(d)
}

/// Per partition: whether its key column is stored as its dictionary alone.
fn keys_are_identifiers(t: &Table) -> Vec<bool> {
    t.partitions()
        .iter()
        .map(|p| {
            let roles: Vec<&str> =
                p.main().column(0).chains().into_iter().map(|(r, _)| r).collect();
            assert!(roles.contains(&"dict"), "{roles:?}");
            match (roles.contains(&"data"), roles.contains(&"index")) {
                (false, false) => true,
                (true, true) => false,
                _ => panic!("a data vector without postings, or postings without one: {roles:?}"),
            }
        })
        .collect()
}

/// `Q_pk^*` over present, moved and absent keys, PK ranges under every
/// projection a range runs, and counts — against the reference executor.
fn assert_answers(t: &Table, model: &[Row], when: &str) {
    let session = t.session().unwrap();
    let mut queries: Vec<Query> = [key(0), key(299), key(300), key(500), key(700), key(999)]
        .into_iter()
        .chain([key_after(100), key_after(250), key(5_000), key_after(999)])
        .chain(["", "C00-", "D"].map(|k| Value::Varchar(k.into())))
        .map(|k| Query::filtered("key", ValuePredicate::Eq(k), Projection::All))
        .collect();
    let ranges = [
        ValuePredicate::Between(key(90), key(120)),
        ValuePredicate::Between(key(240), key(320)),
        ValuePredicate::Between(key(480), key(720)),
        ValuePredicate::Between(key(950), Value::Varchar("D".into())),
        ValuePredicate::In(vec![key(5), key(250), key_after(250), key(800), key(5_000)]),
    ];
    for range in ranges {
        for projection in [
            Projection::Count,
            Projection::RowIds,
            Projection::All,
            Projection::Sum("qty".into()),
            Projection::Min("day".into()),
        ] {
            queries.push(Query::filtered("key", range.clone(), projection));
        }
    }
    for pred in [ValuePredicate::Eq(day(3)), ValuePredicate::Between(day(2), day(6))] {
        queries.push(Query::filtered("day", pred, Projection::Count));
    }
    queries.push(Query::full(Projection::Count));
    for q in &queries {
        reference::assert_answers(&session, model, q, when);
    }
}

/// Merges, checks the answers and the key layout of both partitions.
fn merge(t: &Table, model: &[Row], when: &str, identity: [bool; 2]) {
    t.delta_merge_all().unwrap();
    assert_answers(t, model, &format!("{when}, merged"));
    assert_eq!(keys_are_identifiers(t), identity, "{when}: [old, new] keys are their rows");
}

/// Sets `key` to `to` in the model row holding `from`.
fn rekey(model: &mut [Row], from: &Value, to: &Value) {
    let row = model.iter_mut().find(|r| &r[0] == from).expect("the model holds the key");
    row[0] = to.clone();
}

fn shift_boundary(t: &Table, at: i64) {
    t.set_partition_range(NEW, PartitionRange::AtLeast(day(at)));
    t.set_partition_range(OLD, PartitionRange::Below(day(at)));
}

#[test]
fn a_schedule_that_breaks_and_restores_key_order_answers_exactly_under_both_policies() {
    for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
        let dir = std::env::temp_dir()
            .join(format!("payg-row-order-keys-{policy:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open =
            || BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
        let mut model: Vec<Row> = (0..ROWS).map(row).collect();
        let catalog: ChainId = {
            let t = Table::create(
                open(),
                PageConfig::tiny(),
                schema(),
                vec![
                    partition("old", PartitionRange::Below(day(5)), policy),
                    partition("new", PartitionRange::AtLeast(day(5)), policy),
                ],
            )
            .unwrap();
            t.insert_all(model.iter().cloned()).unwrap();
            assert_answers(&t, &model, &format!("{policy:?}: inserted in key order"));
            merge(&t, &model, &format!("{policy:?}: inserted in key order"), [true, true]);

            // An out-of-order insert: a key below the new partition's others.
            let when = format!("{policy:?}: out-of-order insert");
            let odd = vec![key_after(250), day(7), Value::Integer(1)];
            t.insert(odd.clone()).unwrap();
            model.push(odd);
            assert_answers(&t, &model, &when);
            merge(&t, &model, &when, [true, false]);

            // Deleting it (the new main's last row) restores the order.
            let when = format!("{policy:?}: delete");
            let partitions = t.partitions();
            let new_main = partitions[NEW.0].main();
            let last = new_main.rows() - 1;
            assert_eq!(new_main.column(0).get_values(&[last]).unwrap(), [key_after(250)]);
            new_main.delete(last);
            drop(partitions);
            model.retain(|r| r[0] != key_after(250));
            assert_answers(&t, &model, &when);
            merge(&t, &model, &when, [true, true]);

            // A key update that moves a key below its neighbours, then one
            // that moves it above every key.
            let when = format!("{policy:?}: key update out of order");
            let eq = |k: Value| ValuePredicate::Eq(k);
            assert_eq!(t.update_rows("key", &eq(key(700)), "key", &key_after(100)).unwrap(), 1);
            rekey(&mut model, &key(700), &key_after(100));
            assert_answers(&t, &model, &when);
            merge(&t, &model, &when, [true, false]);
            let when = format!("{policy:?}: key update in order");
            assert_eq!(t.update_rows("key", &eq(key_after(100)), "key", &key(5_000)).unwrap(), 1);
            rekey(&mut model, &key_after(100), &key(5_000));
            assert_answers(&t, &model, &when);
            merge(&t, &model, &when, [true, true]);

            // A boundary shift that moves old rows behind the new ones…
            let when = format!("{policy:?}: boundary shift to day 3");
            shift_boundary(&t, 3);
            assert_eq!(t.relocate_misplaced().unwrap(), 200);
            assert_answers(&t, &model, &when);
            merge(&t, &model, &when, [true, false]);
            // …and the shift back, which returns them behind the old ones.
            let when = format!("{policy:?}: boundary shift back to day 5");
            shift_boundary(&t, 5);
            assert_eq!(t.relocate_misplaced().unwrap(), 200);
            assert_answers(&t, &model, &when);
            merge(&t, &model, &when, [true, true]);
            t.checkpoint().unwrap()
        };

        // A reopen reads the layout back from the catalog.
        let t = Table::open(open(), catalog).unwrap();
        let when = format!("{policy:?}: reopened");
        assert_eq!(keys_are_identifiers(&t), [true, true], "{when}");
        assert_answers(&t, &model, &when);
        drop(t);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The complete data-aging lifecycle (paper §4) as an integration test:
//! inserts → merges → closes → aging runs → boundary shifts → audits.

mod reference;

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionId, PartitionRange, PartitionSpec, Projection, Query, Row, Schema, Table,
    TableError,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const OPEN: i64 = 99_991_231;

fn orders_table() -> (Table, ResourceManager) {
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
    let schema = Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::new("status", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("closed_on", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("closed_on")
    .unwrap();
    let table = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![
            PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(20_240_101))),
            PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(20_240_101))),
        ],
    )
    .unwrap();
    (table, resman)
}

fn count(t: &Table, q: &Query) -> u64 {
    match t.execute(q).unwrap() {
        page_as_you_go::table::QueryResult::Count(n) => n,
        other => panic!("{other:?}"),
    }
}

#[test]
fn lifecycle_preserves_every_row_and_moves_storage() {
    let (mut t, _resman) = orders_table();
    // Month 1: 600 open orders.
    for i in 0..600i64 {
        t.insert(vec![
            Value::Integer(i),
            Value::Varchar("open".into()),
            Value::Decimal(i as i128 * 99),
            Value::Integer(OPEN),
        ])
        .unwrap();
    }
    t.delta_merge_all().unwrap();
    assert_eq!(t.partitions()[0].visible_rows(), 600);

    // Business closes orders in waves; each wave is ordinary DML.
    for (wave, (lo, hi, date)) in
        [(0i64, 199i64, 20_230_301i64), (200, 399, 20_230_902), (400, 499, 20_231_115)]
            .iter()
            .enumerate()
    {
        let moved = t
            .update_rows(
                "id",
                &ValuePredicate::Between(Value::Integer(*lo), Value::Integer(*hi)),
                "closed_on",
                &Value::Integer(*date),
            )
            .unwrap();
        assert_eq!(moved, (*hi - *lo + 1) as u64, "wave {wave}");
        // Nothing lost mid-flight.
        assert_eq!(count(&t, &Query::full(Projection::Count)), 600);
    }
    // Orders 500..599 stay open/hot. The aging run: relocate, then merge.
    t.relocate_misplaced().unwrap();
    t.delta_merge_all().unwrap();
    assert_eq!(t.partitions()[0].visible_rows(), 100);
    assert_eq!(t.partitions()[1].visible_rows(), 500);
    // Cold main is page loadable; hot main resident.
    assert_eq!(t.partitions()[1].main().column(0).policy(), LoadPolicy::PageLoadable);
    assert_eq!(t.partitions()[0].main().column(0).policy(), LoadPolicy::FullyResident);

    // Audits span both temperatures transparently.
    let q = Query::filtered(
        "status",
        ValuePredicate::Eq(Value::Varchar("open".into())),
        Projection::Count,
    );
    assert_eq!(count(&t, &q), 600, "status was never updated, rows just moved");
    let q = Query::filtered(
        "id",
        ValuePredicate::Eq(Value::Integer(123)),
        Projection::Columns(vec!["closed_on".into()]),
    );
    assert_eq!(t.execute(&q).unwrap().into_rows(), vec![vec![Value::Integer(20_230_301)]]);

    // Deep-cold split: add a partition for pre-September closures and shift
    // the cold boundary — relocation is an aging run, no data loss.
    t.set_partition_range(
        PartitionId(1),
        PartitionRange::Between(Value::Integer(20_230_901), Value::Integer(20_240_101)),
    );
    t.add_partition(PartitionSpec::cold(
        "deep-cold",
        PartitionRange::Below(Value::Integer(20_230_901)),
    ))
    .unwrap();
    let rows_moved = t.relocate_misplaced().unwrap();
    t.delta_merge_all().unwrap();
    assert_eq!(rows_moved, 200, "march closures relocate");
    assert_eq!(t.partitions()[2].visible_rows(), 200);
    assert_eq!(count(&t, &Query::full(Projection::Count)), 600);

    // A cold restart changes nothing observable.
    t.unload_all();
    assert_eq!(count(&t, &Query::full(Projection::Count)), 600);
    assert_eq!(t.execute(&q).unwrap().into_rows(), vec![vec![Value::Integer(20_230_301)]]);
}

#[test]
fn aging_footprint_shifts_from_resident_to_paged() {
    let (t, resman) = orders_table();
    for i in 0..2_000i64 {
        t.insert(vec![
            Value::Integer(i),
            Value::Varchar(format!("state-{}", i % 5).into()),
            Value::Decimal(i as i128),
            Value::Integer(OPEN),
        ])
        .unwrap();
    }
    t.delta_merge_all().unwrap();
    t.update_rows(
        "id",
        &ValuePredicate::Between(Value::Integer(0), Value::Integer(1_799)),
        "closed_on",
        &Value::Integer(20_200_101),
    )
    .unwrap();
    t.relocate_misplaced().unwrap();
    t.delta_merge_all().unwrap();
    t.unload_all();
    // Touch one cold row: only paged resources appear.
    let q = Query::filtered("id", ValuePredicate::Eq(Value::Integer(7)), Projection::All);
    let _ = t.execute(&q).unwrap();
    let stats = resman.stats();
    assert!(stats.paged_bytes > 0, "cold access goes through the paged pool");
    // Touch one hot row: a resident (non-paged) column load appears.
    let q = Query::filtered("id", ValuePredicate::Eq(Value::Integer(1_900)), Projection::All);
    let _ = t.execute(&q).unwrap();
    let stats2 = resman.stats();
    assert!(stats2.total_bytes > stats2.paged_bytes, "hot partitions load whole columns");
}

/// A row the aging DML cannot re-route fails the call before anything is
/// deleted: an update to a temperature no partition accepts, and a
/// relocation after a boundary shift that strands rows, each return
/// `NoPartitionForRow` and leave every row where it was — in the delta and
/// after a merge alike.
#[test]
fn aging_dml_that_cannot_route_a_row_leaves_the_table_unchanged() {
    for merged in [false, true] {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("temp", DataType::Integer),
        ])
        .unwrap()
        .with_partition_column("temp")
        .unwrap();
        let between = |lo, hi| PartitionRange::Between(Value::Integer(lo), Value::Integer(hi));
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            schema,
            vec![
                PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(100))),
                PartitionSpec::cold("cold", between(50, 100)),
            ],
        )
        .unwrap();
        // Temperatures 60, 70, …, 150: four cold rows, six hot ones.
        for i in 0..10i64 {
            t.insert(vec![Value::Integer(i), Value::Integer(60 + 10 * i)]).unwrap();
        }
        if merged {
            t.delta_merge_all().unwrap();
        }
        let all = Query::full(Projection::All);
        let before = t.execute(&all).unwrap();
        let unchanged = |t: &Table, what: &str| {
            assert_eq!(t.visible_rows(), 10, "{what}, merged={merged}");
            let per_partition: Vec<u64> = t.partitions().iter().map(|p| p.visible_rows()).collect();
            assert_eq!(per_partition, vec![6, 4], "{what}, merged={merged}");
            assert_eq!(t.execute(&all).unwrap(), before, "{what}, merged={merged}");
        };

        let ids = ValuePredicate::Between(Value::Integer(0), Value::Integer(9));
        let err = t.update_rows("id", &ids, "temp", &Value::Integer(10)).unwrap_err();
        assert!(matches!(err, TableError::NoPartitionForRow(_)), "{err}");
        unchanged(&t, "update_rows");

        // 60 and 70 fall out of the narrowed cold range and into none.
        t.set_partition_range(PartitionId(1), between(80, 100));
        let err = t.relocate_misplaced().unwrap_err();
        assert!(matches!(err, TableError::NoPartitionForRow(_)), "{err}");
        unchanged(&t, "relocate_misplaced");
    }
}

/// A hot-boundary shift publishes a new table version while sessions read:
/// a second thread moves the boundary back and forth while this one serves
/// `Q_pk` reads (`SELECT *` by key) over main and delta rows, each exact
/// against the reference executor. Rows stay where they are until an aging
/// run, which then moves the rows the last boundary misplaced.
#[test]
fn boundary_shifts_from_another_thread_leave_point_reads_exact() {
    let (t, _resman) = orders_table();
    let rows: Vec<Row> = (0..400i64)
        .map(|i| {
            let (status, closed_on) =
                if i % 2 == 0 { ("open", OPEN) } else { ("closed", 20_230_101 + i) };
            vec![
                Value::Integer(i),
                Value::Varchar(status.into()),
                Value::Decimal(i as i128 * 99),
                Value::Integer(closed_on),
            ]
        })
        .collect();
    for row in &rows[..300] {
        t.insert(row.clone()).unwrap();
    }
    t.delta_merge_all().unwrap();
    for row in &rows[300..] {
        t.insert(row.clone()).unwrap();
    }
    // Closures from 2023-03-01 on count as hot at the shifted boundary.
    let boundary = |shifted: bool| Value::Integer(if shifted { 20_230_301 } else { 20_240_101 });
    let shift = |shifted: bool| {
        t.set_partition_range(PartitionId(0), PartitionRange::AtLeast(boundary(shifted)));
        t.set_partition_range(PartitionId(1), PartitionRange::Below(boundary(shifted)));
    };
    let (shifts, reading) = (AtomicUsize::new(0), AtomicBool::new(true));
    std::thread::scope(|s| {
        s.spawn(|| {
            while reading.load(Ordering::Acquire) {
                shift(shifts.fetch_add(1, Ordering::AcqRel) % 2 == 0);
            }
            shift(true);
        });
        while shifts.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        for read in 0..rows.len() {
            let id = (read * 37 % rows.len()) as i64;
            let q = Query::filtered("id", ValuePredicate::Eq(Value::Integer(id)), Projection::All);
            let when = format!("read {read}, {} shifts", shifts.load(Ordering::Relaxed));
            reference::assert_answers(&t.session().unwrap(), &rows, &q, &when);
        }
        reading.store(false, Ordering::Release);
    });
    assert!(shifts.into_inner() > 1);
    // Odd keys 201..399 closed on or after 2023-03-01: the aging run moves
    // those 100 rows to the hot partition, and every read stays exact.
    assert_eq!(t.relocate_misplaced().unwrap(), 100);
    t.delta_merge_all().unwrap();
    assert_eq!(t.partitions()[0].visible_rows(), 300);
    let session = t.session().unwrap();
    for id in [0, 199, 201, 300, 399] {
        let q = Query::filtered("id", ValuePredicate::Eq(Value::Integer(id)), Projection::All);
        reference::assert_answers(&session, &rows, &q, "after the aging run");
    }
}

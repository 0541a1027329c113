//! A warm point read allocates for its answer plus a constant: the rows
//! vector, one vector per row and one string per non-empty VARCHAR cell —
//! not a vector per projected column, not a plan buffer that grows with
//! the projection's width. An aggregate over delta rows decodes each
//! distinct key once, not one value per row; an unfiltered `MIN` / `MAX`
//! over a main fragment reads its dictionary, not its data vector.
//!
//! The point-read test is skipped when the pin-leak detector is compiled in
//! (`strict-invariants`, however enabled): it records every pin in a heap
//! set, an allocation per page by design.

use payg_core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, ChainId, MemStore, PageKey, PageStore};
use payg_table::{ColumnSpec, PartitionSpec, Projection, Query, QueryResult, Row, Schema, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations (and growths) of the thread that armed it.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

/// Whether the pin-leak detector counts pins: `live_pins` is 0 without it.
fn pins_are_tracked() -> bool {
    let store = Arc::new(MemStore::new());
    let chain = store.create_chain(64).unwrap();
    store.append_page(chain, &[1]).unwrap();
    let pool = BufferPool::new(store, ResourceManager::new());
    let _guard = pool.pin(PageKey::new(chain, 0)).unwrap();
    pool.live_pins() > 0
}

const ROWS: i64 = 3000;

/// Payload column types in the benchmark's order: INTEGER, DECIMAL,
/// DOUBLE, a short and a longer VARCHAR.
const TYPES: [DataType; 5] = [
    DataType::Integer,
    DataType::Decimal,
    DataType::Double,
    DataType::Varchar,
    DataType::Varchar,
];

/// The benchmark's `T_p^i` shape at `width` columns: an indexed VARCHAR
/// primary key kept resident, then payload columns of mostly low
/// cardinality (every eighth one high) under `policy`.
fn table(width: usize, policy: LoadPolicy) -> Table {
    let mut columns =
        vec![ColumnSpec::indexed("pk", DataType::Varchar)
            .with_load_policy(LoadPolicy::FullyResident)];
    for i in 0..width - 1 {
        columns.push(ColumnSpec::new(format!("c{i}"), TYPES[i % TYPES.len()]));
    }
    let schema = Schema::new(columns)
        .unwrap()
        .with_primary_key("pk")
        .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let config = PageConfig {
        dict_page: 4096,
        ..PageConfig::default()
    };
    let t = Table::create(pool, config, schema, vec![PartitionSpec::single(policy)]).unwrap();
    for r in 0..ROWS {
        let mut row: Row = vec![pk(r)];
        for i in 0..width as i64 - 1 {
            let distinct = if i % 8 == 7 { 1000 } else { 3 + i % 50 };
            let v = (r * 7 + i) % distinct;
            row.push(match TYPES[i as usize % TYPES.len()] {
                DataType::Integer => Value::Integer(v),
                DataType::Decimal => Value::Decimal(i128::from(v) * 125),
                DataType::Double => Value::Double(v as f64 / 8.0),
                DataType::Varchar if i % 5 == 3 => Value::Varchar(format!("ch{v:04}")),
                DataType::Varchar => Value::Varchar(format!("a longer value number {v:06}")),
            });
        }
        t.insert(row).unwrap();
    }
    t.delta_merge_all().unwrap();
    t
}

fn pk(r: i64) -> Value {
    Value::Varchar(format!("key-{r:08}"))
}

fn by_pk(r: i64, projection: Projection) -> Query {
    Query::filtered("pk", ValuePredicate::Eq(pk(r)), projection)
}

/// The allocations of one warm point read of row `r` — a fresh session per
/// read, as the benchmark runs them — and its answer.
fn point(t: &Table, r: i64, projection: Projection) -> (QueryResult, usize) {
    let q = by_pk(r, projection);
    t.session().unwrap().execute(&q).unwrap();
    allocations(|| t.session().unwrap().execute(&q).unwrap())
}

/// Non-empty VARCHAR cells of a `SELECT *` answer: one string each.
fn strings(result: &QueryResult) -> usize {
    let QueryResult::Rows(rows) = result else {
        panic!("rows expected")
    };
    rows.iter()
        .flatten()
        .filter(|v| matches!(v, Value::Varchar(s) if !s.is_empty()))
        .count()
}

#[test]
fn a_warm_point_read_allocates_for_its_answer_plus_a_constant() {
    if pins_are_tracked() {
        return;
    }
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let (narrow, wide) = (table(9, policy), table(33, policy));
        for r in [0, 1, 1234, ROWS - 1] {
            // SELECT *: as many allocations at 33 columns as at 9, but for
            // the strings of the extra VARCHAR cells.
            let (star9, n9) = point(&narrow, r, Projection::All);
            let (star33, n33) = point(&wide, r, Projection::All);
            assert_eq!(
                n33 - strings(&star33),
                n9 - strings(&star9),
                "{policy:?} row {r}: SELECT * allocates {n9} at 9 columns and {n33} at 33",
            );
            // SELECT c_num: the rows vector and the row on top of ROWID's
            // one vector of identifiers — no plan buffer.
            for t in [&narrow, &wide] {
                let (_, rid) = point(t, r, Projection::RowIds);
                let (_, num) = point(t, r, Projection::Columns(vec!["c0".into()]));
                assert!(
                    num <= rid + 2,
                    "{policy:?} row {r}: SELECT c0 {num}, SELECT ROWID {rid}"
                );
            }
        }
    }
}

/// `rows` rows in the delta alone, over five distinct names.
fn unmerged(rows: i64) -> Table {
    let schema = Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::new("name", DataType::Varchar),
    ])
    .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let spec = vec![PartitionSpec::single(LoadPolicy::PageLoadable)];
    let t = Table::create(pool, PageConfig::tiny(), schema, spec).unwrap();
    for r in 0..rows {
        t.insert(vec![Value::Integer(r), Value::Varchar(format!("name-{}", r % 5))]).unwrap();
    }
    t
}

#[test]
fn a_delta_aggregate_decodes_each_distinct_key_once() {
    let (small, large) = (unmerged(200), unmerged(2000));
    let name = |i: i64| Value::Varchar(format!("name-{i}"));
    let answers = [
        (Projection::Max("name".into()), QueryResult::Extreme(Some(name(4)))),
        (Projection::Min("name".into()), QueryResult::Extreme(Some(name(0)))),
        (
            Projection::Distinct("name".into()),
            QueryResult::Rows((0..5).map(|i| vec![name(i)]).collect()),
        ),
    ];
    for (projection, answer) in answers {
        let q = Query::full(projection);
        let run = |t: &Table| {
            assert_eq!(t.session().unwrap().execute(&q).unwrap(), answer);
            allocations(|| t.session().unwrap().execute(&q).unwrap()).1
        };
        let (n200, n2000) = (run(&small), run(&large));
        assert!(
            n2000 < n200 + 16,
            "{:?}: {n200} allocations over 200 delta rows, {n2000} over 2000",
            q.projection
        );
    }
}

#[test]
fn unfiltered_min_max_pin_no_data_vector_page() {
    let schema = Schema::new(vec![
        ColumnSpec::new("num", DataType::Integer),
        ColumnSpec::new("name", DataType::Varchar),
    ])
    .unwrap();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let spec = vec![PartitionSpec::single(LoadPolicy::PageLoadable)];
    let t = Table::create(pool, PageConfig::tiny(), schema, spec).unwrap();
    let rows: Vec<Row> = (0..6000i64)
        .map(|r| {
            let v = (r * 7919) % 1000;
            vec![Value::Integer(v - 500), Value::Varchar(format!("customer-{v:04}"))]
        })
        .collect();
    t.insert_all(rows).unwrap();
    t.delta_merge_all().unwrap();
    let store = t.pool().store();
    let extremes = [
        ("num", Value::Integer(-500), Value::Integer(499)),
        ("name", Value::Varchar("customer-0000".into()), Value::Varchar("customer-0999".into())),
    ];
    for (c, (column, min, max)) in extremes.into_iter().enumerate() {
        let pages = |keep: &dyn Fn(&str) -> bool| -> u64 {
            let chains = t.partitions()[0].main().column(c).chains();
            let kept = chains.into_iter().filter(|(role, _)| keep(role));
            kept.map(|(_, chain)| store.chain_len(ChainId(chain)).unwrap()).sum()
        };
        let (data, dict) = (pages(&|role| role == "data"), pages(&|role| role.starts_with("dict")));
        assert!(data >= 20, "{column}: the data vector spans {data} pages");
        for (projection, want) in
            [(Projection::Min(column.into()), min), (Projection::Max(column.into()), max)]
        {
            t.unload_all();
            let before = t.pool().metrics();
            let answer = t.execute(&Query::full(projection.clone())).unwrap();
            assert_eq!(answer, QueryResult::Extreme(Some(want)));
            let after = t.pool().metrics();
            let pinned = (after.hits + after.misses) - (before.hits + before.misses);
            assert!(
                pinned < data && pinned <= dict,
                "{projection:?}: {pinned} pins; data vector {data} pages, dictionary {dict}"
            );
        }
    }
}

//! A delta append allocates only when one of its buffers grows — not per
//! cell, not to encode a value, not to look its key up — whether the value
//! is new to its column or already there.

use payg_core::{DataType, LoadPolicy, PageConfig, Value};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, MemStore};
use payg_table::{ColumnSpec, PartitionSpec, Row, Schema, Table};
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

fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).unwrap_or(0)
}

const ROWS: i64 = 4096;

fn row(i: i64) -> Row {
    vec![
        Value::Integer(i),
        Value::Varchar(format!("customer-{i:06}").into()),
        Value::Decimal(i128::from(i) * 7),
        Value::Double(i as f64 / 4.0),
    ]
}

#[test]
fn inserts_allocate_per_buffer_growth_not_per_cell() {
    let schema = Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::new("name", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("score", DataType::Double),
    ])
    .unwrap();
    let arity = schema.arity();
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let t = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();

    // Every cell a new key: each column's arena, end offsets, hash table
    // and identifier vector grow by doubling, so a few dozen growths a
    // column against 4096 cells.
    let fresh: Vec<Row> = (0..ROWS).map(row).collect();
    let n = allocations(|| fresh.into_iter().for_each(|r| t.insert(r).unwrap()));
    let growths = 4 * (ROWS.ilog2() as usize + 4);
    assert!(n <= arity * growths, "{n} allocations for {} new cells", ROWS as usize * arity);

    // Every cell a key the column holds: only the identifier vectors grow
    // (4096 → 8192 rows, once each).
    let seen: Vec<Row> = (0..ROWS).map(row).collect();
    let n = allocations(|| seen.into_iter().for_each(|r| t.insert(r).unwrap()));
    assert!(n <= arity, "{n} allocations for {} repeated cells", ROWS as usize * arity);
    assert_eq!(t.visible_rows(), 2 * ROWS as u64);
}

//! `SUM` over primary-key ranges folds each distinct identifier's key ×
//! count as a typed number, straight off a paged column's dictionary pages
//! or a resident column's image. Seen from tier 1: INTEGER, DECIMAL and
//! DOUBLE columns whose identifiers are 0..=16 bits wide (the smallest
//! cardinality of each width), plus 13-bit columns of high cardinality
//! (the benchmark's `c016_int` / `c032_dec` shapes), page loadable and
//! fully resident, summed over seeded random key ranges — single rows, a
//! few rows, ranges spanning data-vector and dictionary pages, the whole
//! table — must equal the reference executor's row fold over a plain
//! `Vec<Row>`. DOUBLE values are multiples of 1/4 small enough that every
//! sum is exact in any order.

mod reference;

use page_as_you_go::core::column::ColumnRead;
use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionSpec, Projection, Query, Row, Schema, Table,
};
use std::sync::Arc;

/// Rows: enough for 16-bit identifiers (32 769 distinct values).
const ROWS: u64 = 33_000;

const TYPES: [DataType; 3] = [DataType::Integer, DataType::Decimal, DataType::Double];

/// Each summed column: its name, type and cardinality — the smallest of
/// widths 0..=16, then three of 13 bits.
fn columns() -> Vec<(String, DataType, u64)> {
    let mut cols: Vec<(String, DataType, u64)> = (0..=16u32)
        .map(|w| {
            let card = if w == 0 { 1 } else { (1 << (w - 1)) + 1 };
            (format!("w{w}"), TYPES[w as usize % 3], card)
        })
        .collect();
    for (ty, card) in TYPES.into_iter().zip([6_655, 4_287, 8_000]) {
        cols.push((format!("w13_{card}"), ty, card));
    }
    cols
}

fn mix(r: u64, c: u64) -> u64 {
    (r ^ c.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add(c)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Row `r`: its key, then each column's value: every one of the column's
/// `card` values occurs (row `r < card` holds value `r`), the rest drawn
/// at random.
fn row(r: u64, cols: &[(String, DataType, u64)]) -> Row {
    let mut row = vec![Value::Integer(r as i64)];
    for (c, (_, ty, card)) in cols.iter().enumerate() {
        let i = if r < *card { r } else { mix(r, c as u64) % card };
        let i = i as i64;
        row.push(match ty {
            DataType::Integer => Value::Integer(i * 7 - 3_000),
            DataType::Decimal => Value::Decimal(i128::from(i) * 125 - 5_000),
            _ => Value::Double(i as f64 * 0.25 - 100.0),
        });
    }
    row
}

#[test]
fn range_sums_equal_a_row_fold_at_every_width_paged_and_resident() {
    let cols = columns();
    let mut specs = vec![ColumnSpec::new("id", DataType::Integer)];
    specs.extend(cols.iter().map(|(name, ty, _)| ColumnSpec::new(name, *ty)));
    let schema = Schema::new(specs).unwrap().with_primary_key("id").unwrap();
    let model: Vec<Row> = (0..ROWS).map(|r| row(r, &cols)).collect();
    // Seeded random key ranges: single rows, short runs, ranges of up to
    // 2 000 rows, one ending at the last row.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ranges: Vec<(u64, u64)> = (0..10)
        .map(|k| {
            let len = [1, 2, 63, 64, 65, 1_000, 2_000, 700, 1_500, 130][k];
            let lo = next() % (ROWS - len);
            (lo, lo + len - 1)
        })
        .collect();
    ranges.push((ROWS - 999, ROWS - 1));
    for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let spec = vec![PartitionSpec::single(policy)];
        let t = Table::create(pool, PageConfig::tiny(), schema.clone(), spec).unwrap();
        t.insert_all(model.iter().cloned()).unwrap();
        t.delta_merge_all().unwrap();
        let partitions = t.partitions();
        let main = partitions[0].main();
        for (c, (name, _, card)) in cols.iter().enumerate() {
            assert_eq!(main.columns()[c + 1].cardinality(), *card, "{name}: its width's cardinality");
        }
        let session = t.session().unwrap();
        for (name, _, _) in &cols {
            let when = format!("{policy:?} SUM({name})");
            let whole = Query::full(Projection::Sum(name.clone()));
            reference::assert_answers(&session, &model, &whole, &when);
            for &(lo, hi) in &ranges {
                let range = ValuePredicate::Between(Value::Integer(lo as i64), Value::Integer(hi as i64));
                let q = Query::filtered("id", range, Projection::Sum(name.clone()));
                reference::assert_answers(&session, &model, &q, &when);
            }
        }
    }
}

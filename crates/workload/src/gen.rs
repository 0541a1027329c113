//! Deterministic value generation.
//!
//! Every column's domain is a function of `(seed, column, domain index)`,
//! and every row's value is `domain[h(seed, column, row) % cardinality]`,
//! so datasets are fully reproducible and individual values can be
//! recomputed without materializing anything — the query generators use
//! this to build predicates with known answers.

use crate::spec::{GenColumnSpec, TableProfile};
use payg_core::{DataType, Value};
use payg_table::Row;
use std::cell::RefCell;
use std::fmt::Write;
use std::sync::Arc;

/// SplitMix64: small, fast, deterministic.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The domain-index drawn by `row` in `col` (uniform over the cardinality).
pub fn domain_index(profile: &TableProfile, col: usize, row: u64) -> u64 {
    let spec = &profile.columns[col];
    if col == 0 {
        // The primary key is a permutation: row i gets domain index i.
        return row;
    }
    mix(profile.seed ^ (col as u64) << 40 ^ row) % spec.cardinality
}

/// The `idx`-th distinct value of `col`'s domain.
pub fn domain_value(profile: &TableProfile, col: usize, idx: u64) -> Value {
    let spec = &profile.columns[col];
    debug_assert!(idx < spec.cardinality);
    match spec.data_type {
        DataType::Integer => Value::Integer(value_i64(profile.seed, col, idx)),
        DataType::Decimal => Value::Decimal(i128::from(value_i64(profile.seed, col, idx)) * 25),
        DataType::Double => {
            Value::Double(value_i64(profile.seed, col, idx) as f64 / 16.0)
        }
        DataType::Varchar => Value::Varchar(string_value(spec, col, idx)),
    }
}

/// Distinct, order-scattered integers per (column, domain index).
fn value_i64(seed: u64, col: usize, idx: u64) -> i64 {
    // Distinctness within a column: spread indices apart, then add a
    // column-dependent offset and a small deterministic jitter below the
    // spread.
    let base = idx as i64 * 1_000;
    let jitter = (mix(seed ^ (col as u64) << 32 ^ idx) % 999) as i64;
    base + jitter - 500_000
}

/// Distinct strings: a column prefix, the zero-padded index (which makes
/// the domain sorted and prefix-compressible, like real document numbers),
/// padded to the spec's length. Built in the thread's buffer and copied
/// once, into the value's shared allocation.
fn string_value(spec: &GenColumnSpec, col: usize, idx: u64) -> Arc<str> {
    thread_local! {
        static BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    BUF.with_borrow_mut(|s| {
        s.clear();
        write!(s, "C{col:02}-{idx:09}").expect("writing to a String cannot fail");
        while s.len() < spec.string_len {
            s.push((b'a' + ((idx as usize + s.len() + col) % 26) as u8) as char);
        }
        Arc::from(s.as_str())
    })
}

/// The value of (`row`, `col`).
pub fn value_at(profile: &TableProfile, col: usize, row: u64) -> Value {
    domain_value(profile, col, domain_index(profile, col, row))
}

/// All values of one column (column-wise generation for column builders).
pub fn column_values(profile: &TableProfile, col: usize) -> Vec<Value> {
    (0..profile.rows).map(|r| value_at(profile, col, r)).collect()
}

/// All rows (row-wise generation for table inserts).
pub fn generate_rows(profile: &TableProfile) -> Vec<Row> {
    (0..profile.rows)
        .map(|r| (0..profile.columns.len()).map(|c| value_at(profile, c, r)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> TableProfile {
        TableProfile::erp(2_000, 17, 99)
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile();
        assert_eq!(generate_rows(&p), generate_rows(&p));
        assert_eq!(column_values(&p, 3), column_values(&p, 3));
    }

    #[test]
    fn pk_is_unique_and_sorted_by_row() {
        let p = profile();
        let pks = column_values(&p, 0);
        let mut keys: Vec<Vec<u8>> = pks.iter().map(Value::to_key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "primary key must be unique");
    }

    #[test]
    fn cardinality_is_respected() {
        let p = profile();
        for (c, spec) in p.columns.iter().enumerate() {
            let values = column_values(&p, c);
            let mut keys: Vec<Vec<u8>> = values.iter().map(Value::to_key).collect();
            keys.sort();
            keys.dedup();
            assert!(
                keys.len() as u64 <= spec.cardinality,
                "column {c} exceeds its cardinality"
            );
            // With 2 000 rows, small domains are fully covered.
            if spec.cardinality <= 100 {
                assert_eq!(keys.len() as u64, spec.cardinality, "column {c} under-covers");
            }
            // Types match the spec.
            assert!(values.iter().all(|v| v.data_type() == spec.data_type));
        }
    }

    #[test]
    fn domains_are_distinct_per_index() {
        let p = profile();
        for c in [1usize, 2, 3, 4, 8] {
            let card = p.columns[c].cardinality;
            let mut keys: Vec<Vec<u8>> =
                (0..card).map(|i| domain_value(&p, c, i).to_key()).collect();
            let n = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), n, "column {c} domain has duplicates");
        }
    }

    #[test]
    fn column_and_row_generation_agree() {
        let p = profile();
        let rows = generate_rows(&p);
        for c in 0..p.columns.len() {
            let col = column_values(&p, c);
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(row[c], col[r]);
            }
        }
    }

    /// FNV-1a over every value's type and key: what a generated table holds.
    fn digest(values: impl Iterator<Item = Value>) -> u64 {
        values.fold(0xCBF2_9CE4_8422_2325, |h, v| {
            let key = v.to_key();
            let head = [v.data_type() as u8, key.len() as u8];
            let bytes = head.iter().chain(&key);
            bytes.fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
        })
    }

    /// The generated values are pinned — the first 64 rows of every column
    /// and each column's greatest domain value, at 129 columns (three-digit
    /// column numbers): a faster generator must produce the same bytes, or
    /// every stored table and recorded figure changes.
    #[test]
    fn generated_values_are_pinned() {
        let p = TableProfile::erp(100_000, 129, 7);
        let first = (0..p.columns.len()).flat_map(|c| (0..64).map(move |r| (c, r)));
        assert_eq!(digest(first.map(|(c, r)| value_at(&p, c, r))), 0x1172_17de_3177_02ab);
        let last = (0..p.columns.len()).map(|c| domain_value(&p, c, p.columns[c].cardinality - 1));
        assert_eq!(digest(last), 0xef0d_7918_0d40_d473);
    }
}

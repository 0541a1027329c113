//! Dataset profiles.

use payg_core::DataType;
use payg_table::{ColumnSpec, Schema, TableResult};

/// One generated column: its type, distinct-value count and (for strings)
/// value length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenColumnSpec {
    /// Column name.
    pub name: String,
    /// Value type.
    pub data_type: DataType,
    /// Number of distinct values in the column's domain (≥ 1). The primary
    /// key uses `cardinality == rows`.
    pub cardinality: u64,
    /// Approximate encoded length for string columns (ignored otherwise).
    pub string_len: usize,
    /// Whether the column gets an inverted index in the `T^i` variants.
    pub indexed: bool,
}

/// A generated table: row count plus per-column specs. Column 0 is always
/// the VARCHAR primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProfile {
    /// Row count.
    pub rows: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Column specs; `columns[0]` is the primary key.
    pub columns: Vec<GenColumnSpec>,
}

impl TableProfile {
    /// Builds the ERP-like profile of §6.1 at a given scale: a VARCHAR
    /// primary key, then a 7:1 mix of low-cardinality (< 100 distinct) and
    /// high-cardinality (> 1 000 distinct, up to rows/10) columns across
    /// all five types. `total_columns` counts the PK.
    pub fn erp(rows: u64, total_columns: usize, seed: u64) -> Self {
        assert!(total_columns >= 2, "need the PK plus at least one payload column");
        assert!(rows >= 2, "need at least two rows");
        let mut columns = Vec::with_capacity(total_columns);
        columns.push(GenColumnSpec {
            name: "pk".into(),
            data_type: DataType::Varchar,
            cardinality: rows,
            string_len: 14,
            indexed: true,
        });
        let types = [
            DataType::Integer,
            DataType::Decimal,
            DataType::Double,
            DataType::Varchar, // CHAR-like short strings
            DataType::Varchar, // VARCHAR longer strings
        ];
        for i in 0..total_columns - 1 {
            let data_type = types[i % types.len()];
            // Paper ratio: 112 of 128 columns (87.5 %) below 100 distinct
            // values; the rest above 1 000, up to 10 % of the rows.
            // Cardinalities include the degenerate single-value column.
            let high = i % 8 == 7;
            let cardinality = if high {
                (1_000 + (i as u64 * 977) % 9_000).min(rows / 10).max(2)
            } else {
                match i % 5 {
                    0 => 1,
                    1 => 3 + (i as u64 % 7),
                    2 => 10 + (i as u64 * 13) % 40,
                    3 => 50 + (i as u64 * 7) % 30,
                    _ => 80 + (i as u64 * 11) % 19,
                }
                .min(rows)
            };
            let string_len = if i % types.len() == 4 { 24 + (i % 5) * 8 } else { 10 };
            columns.push(GenColumnSpec {
                name: format!("c{:03}_{}", i + 1, type_tag(data_type)),
                data_type,
                cardinality,
                string_len,
                indexed: false,
            });
        }
        TableProfile { rows, seed, columns }
    }

    /// The matching engine schema. With `with_indexes`, every column gets
    /// an inverted index (the paper's `T^i` tables); the PK is always
    /// indexed.
    pub fn schema(&self, with_indexes: bool) -> TableResult<Schema> {
        let specs = self
            .columns
            .iter()
            .map(|c| {
                if with_indexes || c.indexed {
                    ColumnSpec::indexed(&c.name, c.data_type)
                } else {
                    ColumnSpec::new(&c.name, c.data_type)
                }
            })
            .collect();
        Schema::new(specs)?.with_primary_key(&self.columns[0].name)
    }
}

fn type_tag(ty: DataType) -> &'static str {
    match ty {
        DataType::Integer => "int",
        DataType::Decimal => "dec",
        DataType::Double => "dbl",
        DataType::Varchar => "str",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erp_profile_matches_paper_ratios() {
        let p = TableProfile::erp(10_000, 33, 42);
        assert_eq!(p.columns.len(), 33);
        assert_eq!(p.columns[0].data_type, DataType::Varchar, "VARCHAR primary key");
        assert_eq!(p.columns[0].cardinality, 10_000);
        let payload = &p.columns[1..];
        let low = payload.iter().filter(|c| c.cardinality < 100).count();
        let high = payload.iter().filter(|c| c.cardinality >= 1_000).count();
        // 87.5 % low cardinality, like 112/128.
        assert!(low >= payload.len() * 3 / 4, "low {low} of {}", payload.len());
        assert!(high >= 1);
        // Some cardinality-1 columns exist (paper: "from 1").
        assert!(payload.iter().any(|c| c.cardinality == 1));
        // All five type slots appear.
        for ty in [DataType::Integer, DataType::Decimal, DataType::Double, DataType::Varchar] {
            assert!(payload.iter().any(|c| c.data_type == ty), "{ty:?} missing");
        }
    }

    #[test]
    fn schema_round_trips() {
        let p = TableProfile::erp(1_000, 9, 1);
        let s = p.schema(false).unwrap();
        assert_eq!(s.arity(), 9);
        assert_eq!(s.primary_key(), Some(0));
        assert!(s.columns()[0].with_index);
        assert!(!s.columns()[1].with_index);
        let si = p.schema(true).unwrap();
        assert!(si.columns().iter().all(|c| c.with_index));
    }

    #[test]
    fn unique_column_names() {
        let p = TableProfile::erp(100, 40, 7);
        let mut names: Vec<&str> = p.columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), p.columns.len());
    }
}

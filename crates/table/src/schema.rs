//! Table schemas and rows.

use crate::{TableError, TableResult};
use payg_core::{DataType, KeyPredicate, KeyRange, LoadPolicy, Value, ValuePredicate};

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name (unique within a schema).
    pub name: String,
    /// Value type.
    pub data_type: DataType,
    /// Whether main fragments of this column get an inverted index.
    pub with_index: bool,
    /// Per-column load-policy override; `None` follows the partition's
    /// policy. This is the `PAGE LOADABLE` clause at column granularity —
    /// the paper's `T_p` (all non-PK columns paged) and `T_pp` (only the
    /// PK paged) table variants are built with it.
    pub load_policy: Option<LoadPolicy>,
}

impl ColumnSpec {
    /// A column without an inverted index.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnSpec { name: name.into(), data_type, with_index: false, load_policy: None }
    }

    /// A column with an inverted index on its main fragments.
    pub fn indexed(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnSpec { name: name.into(), data_type, with_index: true, load_policy: None }
    }

    /// Overrides the load policy for this column regardless of partition.
    pub fn with_load_policy(mut self, policy: LoadPolicy) -> Self {
        self.load_policy = Some(policy);
        self
    }
}

/// A row is one value per schema column, in schema order.
pub type Row = Vec<Value>;

/// A table schema: ordered columns, an optional primary key and an optional
/// partition column (the aging temperature column, §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnSpec>,
    primary_key: Option<usize>,
    partition_column: Option<usize>,
}

impl Schema {
    /// Creates a schema, validating name uniqueness.
    pub fn new(columns: Vec<ColumnSpec>) -> TableResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(TableError::Invalid(format!("duplicate column name {:?}", c.name)));
            }
        }
        if columns.is_empty() {
            return Err(TableError::Invalid("a schema needs at least one column".into()));
        }
        Ok(Schema { columns, primary_key: None, partition_column: None })
    }

    /// Declares a primary-key column (enables `ROWID`-style point access
    /// and gives the PK column an inverted index by convention).
    pub fn with_primary_key(mut self, name: &str) -> TableResult<Self> {
        let idx = self.column_index(name)?;
        self.columns[idx].with_index = true;
        self.primary_key = Some(idx);
        Ok(self)
    }

    /// Declares the partition (temperature) column used for range
    /// partitioning and aging.
    pub fn with_partition_column(mut self, name: &str) -> TableResult<Self> {
        let idx = self.column_index(name)?;
        self.partition_column = Some(idx);
        Ok(self)
    }

    /// The columns in order.
    pub fn columns(&self) -> &[ColumnSpec] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of `name`.
    pub fn column_index(&self, name: &str) -> TableResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| TableError::UnknownColumn(name.to_owned()))
    }

    /// The index of filter column `name` and `pred` compiled against its
    /// type: the type check a filter passes before any partition is pruned.
    pub(crate) fn compile(
        &self,
        name: &str,
        pred: &ValuePredicate,
    ) -> TableResult<(usize, KeyPredicate)> {
        let col = self.column_index(name)?;
        Ok((col, KeyPredicate::compile(pred, self.columns[col].data_type)?))
    }

    /// True when a partition of key range `bounds` holds no row whose
    /// column `col` matches `pred`: only the partition column prunes.
    pub(crate) fn prunes(&self, col: usize, pred: &KeyPredicate, bounds: &KeyRange) -> bool {
        self.partition_column == Some(col) && !pred.overlaps(bounds)
    }

    /// The primary-key column index, if declared.
    pub fn primary_key(&self) -> Option<usize> {
        self.primary_key
    }

    /// The partition-column index, if declared.
    pub fn partition_column(&self) -> Option<usize> {
        self.partition_column
    }

    /// Validates a row against the schema.
    pub fn check_row(&self, row: &Row) -> TableResult<()> {
        if row.len() != self.columns.len() {
            return Err(TableError::ArityMismatch { expected: self.columns.len(), got: row.len() });
        }
        for (v, c) in row.iter().zip(&self.columns) {
            v.check_type(c.data_type).map_err(TableError::Core)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("name", DataType::Varchar),
            ColumnSpec::new("amount", DataType::Decimal),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
    }

    #[test]
    fn schema_lookup_and_pk() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column_index("name").unwrap(), 1);
        assert!(s.column_index("nope").is_err());
        assert_eq!(s.primary_key(), Some(0));
        assert!(s.columns()[0].with_index, "pk column gets an index");
    }

    #[test]
    fn duplicate_and_empty_schemas_rejected() {
        assert!(Schema::new(vec![
            ColumnSpec::new("a", DataType::Integer),
            ColumnSpec::new("a", DataType::Varchar),
        ])
        .is_err());
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn row_validation() {
        let s = schema();
        let good = vec![Value::Integer(1), Value::Varchar("x".into()), Value::Decimal(100)];
        s.check_row(&good).unwrap();
        assert!(matches!(
            s.check_row(&good[..2].to_vec()),
            Err(TableError::ArityMismatch { .. })
        ));
        let bad_type = vec![Value::Varchar("1".into()), Value::Varchar("x".into()), Value::Decimal(1)];
        assert!(s.check_row(&bad_type).is_err());
    }
}

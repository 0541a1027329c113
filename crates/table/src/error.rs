//! Table-layer errors.

use payg_core::CoreError;

/// Errors surfaced by the table engine.
#[derive(Debug)]
pub enum TableError {
    /// A column-structure failure.
    Core(CoreError),
    /// A column name not present in the schema.
    UnknownColumn(String),
    /// A row whose arity does not match the schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Values in the offered row.
        got: usize,
    },
    /// No partition accepts the row's partition-column value.
    NoPartitionForRow(String),
    /// A schema or partitioning misconfiguration.
    Invalid(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Core(e) => write!(f, "column: {e}"),
            TableError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            TableError::NoPartitionForRow(v) => {
                write!(f, "no partition accepts partition-column value {v}")
            }
            TableError::Invalid(msg) => write!(f, "invalid table configuration: {msg}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for TableError {
    fn from(e: CoreError) -> Self {
        TableError::Core(e)
    }
}

/// Result alias for table operations.
pub type TableResult<T> = Result<T, TableError>;

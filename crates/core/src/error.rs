//! Core errors.

use payg_encoding::EncodingError;
use payg_storage::StorageError;

/// Errors surfaced by column structures.
#[derive(Debug)]
pub enum CoreError {
    /// A storage-layer failure (I/O, missing chain, injected fault, …).
    Storage(StorageError),
    /// A persisted encoding failed validation.
    Encoding(EncodingError),
    /// A row position beyond the column length.
    RowOutOfBounds {
        /// The offending position.
        rpos: u64,
        /// The column's row count.
        len: u64,
    },
    /// A value identifier beyond the dictionary cardinality.
    VidOutOfBounds {
        /// The offending identifier.
        vid: u64,
        /// The dictionary cardinality.
        cardinality: u64,
    },
    /// A value of the wrong type for this column.
    TypeMismatch {
        /// The column's type.
        expected: crate::DataType,
        /// The offered value's type.
        got: crate::DataType,
    },
    /// A dictionary whose keys together do not fit a resident image: its
    /// key arena is addressed by `u32` offsets.
    DictTooLarge {
        /// Key bytes the load had reached when it gave up.
        key_bytes: u64,
    },
    /// A data-vector scan stopped on its first failing page. The address
    /// names the page whose load or read failed; the remaining workers of a
    /// `par_count` observed the shared cancellation flag and quit without
    /// finishing their partitions, so no partial result is returned.
    ScanAborted {
        /// The chain the failing page belongs to.
        chain: u64,
        /// Zero-based page number within the chain.
        page_no: u64,
        /// The failure that triggered the abort.
        source: Box<CoreError>,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Encoding(e) => write!(f, "encoding: {e}"),
            CoreError::RowOutOfBounds { rpos, len } => {
                write!(f, "row position {rpos} out of bounds (len {len})")
            }
            CoreError::VidOutOfBounds { vid, cardinality } => {
                write!(f, "value id {vid} out of bounds (cardinality {cardinality})")
            }
            CoreError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: column is {expected:?}, value is {got:?}")
            }
            CoreError::DictTooLarge { key_bytes } => {
                write!(f, "dictionary of {key_bytes} key bytes exceeds the 4 GiB a resident image holds")
            }
            CoreError::ScanAborted { chain, page_no, source } => {
                write!(f, "scan aborted at chain {chain} page {page_no}: {source}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Encoding(e) => Some(e),
            CoreError::ScanAborted { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<EncodingError> for CoreError {
    fn from(e: EncodingError) -> Self {
        CoreError::Encoding(e)
    }
}

/// Result alias for column operations.
pub type CoreResult<T> = Result<T, CoreError>;

//! Columnar tables over page-loadable columns: fragments, delta merge,
//! partitions, data aging and a query executor.
//!
//! This crate provides the engine layer the paper's experiments run on
//! (§2, §4): every column of a table has a read-optimized **main fragment**
//! (built by delta merge, immutable in between) and a write-optimized
//! **delta fragment** (append-only, unsorted dictionary). Queries evaluate
//! on both fragments and union the results after row-visibility filtering.
//!
//! Tables can be **range partitioned** on a designated column; each
//! partition chooses its own load policy, which is how data aging stores
//! hot partitions as default columns and cold partitions as page-loadable
//! columns (§4.1). Aging itself (§4.2) is an ordinary DML operation: an
//! update of the partition column moves the row into the cold partition's
//! delta, and the next delta merge persists it as page-loadable main data.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod bitmap;
pub mod catalog;
pub mod delta;
pub mod error;
pub mod explain;
pub mod fragment;
pub mod partition;
pub mod query;
pub mod schema;
pub mod stats;
pub mod table;
pub mod version;

pub use admission::{AdmissionConfig, AdmissionController};
pub use error::{TableError, TableResult};
pub use explain::{ChainActuals, ChainExplain, ExplainAnalyze, PartitionExplain};
pub use partition::{PartitionId, PartitionRange, PartitionSpec};
pub use query::{Projection, Query, QueryResult};
pub use schema::{ColumnSpec, Row, Schema};
pub use stats::{ColumnStats, PartitionStats, TableStats};
pub use table::{Snapshot, Table};
pub use version::{DeltaView, Partition};

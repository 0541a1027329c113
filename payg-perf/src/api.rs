//! The single door between the benchmark and the library.
//!
//! Every other module imports library items from here and nowhere else, so
//! this file is the complete list of entry points the benchmark depends on —
//! the surface later PRs must keep compiling (or change here, in one place,
//! in a benchmark-only PR):
//!
//! * table: `Table::{create, open, insert, delta_merge_all, checkpoint,
//!   session, pool, registry}`, `Snapshot::{execute,
//!   partitions}`, `Partition::main`, `MainFragment::column`, `Query`,
//!   `Projection`, `QueryResult`, `Schema`, `PartitionSpec`;
//! * core: `ColumnRead` (on `Column`), `Column::chains`, `Value`,
//!   `ValuePredicate`, `DataType`, `LoadPolicy`, `PageConfig`, `ScanOptions`;
//! * storage: `BufferPool::{with_config, pin, clear, metrics, store}`,
//!   `PoolConfig::default`, `PoolMetrics::delta`, `FileStore::open`,
//!   `PageStore`, `ChainId`, `PageKey`;
//! * resman: `ResourceManager::{new, with_paged_limits, stats, quiesce}`,
//!   `MemoryStats`, `PoolLimits`;
//! * encoding: `KernelPredicate::{new, scan_chunks}`, `BitPackedVec::{
//!   from_values_with_width, words, mget}`, `BitWidth`, `VidSet`;
//! * obs: `Registry::{tracer, counter}`, `Tracer::{enable, disable, drain,
//!   drain_spans}`, `names::TABLE_SESSIONS_REJECTED`;
//! * workload: `TableProfile::{erp, schema}`, `gen::{domain_index,
//!   domain_value, value_at}` — the seeded data generator (the op lists are
//!   generated in [`crate::ops`]).

pub use payg_core::{
    Column, ColumnRead, DataType, LoadPolicy, PageConfig, ScanOptions, Value, ValuePredicate,
};
pub use payg_encoding::{BitPackedVec, BitWidth, KernelPredicate, VidSet};
pub use payg_obs::names::TABLE_SESSIONS_REJECTED;
pub use payg_resman::{MemoryStats, PoolLimits, ResourceManager};
pub use payg_storage::{
    BufferPool, ChainId, FileStore, PageKey, PageStore, PoolConfig, PoolMetrics, StorageResult,
};
pub use payg_table::{PartitionSpec, Projection, Query, QueryResult, Row, Schema, Table};
pub use payg_workload::gen::{domain_index, domain_value, value_at};
pub use payg_workload::TableProfile;

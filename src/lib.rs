//! **Page As You Go** — piecewise columnar access, after Sherkat et al.,
//! SIGMOD 2016.
//!
//! An in-memory, dictionary-encoded column store whose columns can be
//! declared **page loadable**: their encoded data vector, order-preserving
//! dictionary and inverted index are persisted as chains of disk-resident
//! pages and loaded/evicted *piecewise* by a resource manager, instead of
//! all-or-nothing whole-column loads. Hot data keeps full in-memory speed;
//! cold data's memory footprint tracks only what queries actually touch.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! * [`encoding`] — n-bit packing, 64-value chunks, SWAR scans, prefix
//!   blocks, order-preserving keys
//! * [`obs`] — metric registry, page-lifecycle event tracing, per-scan
//!   profiles, Prometheus/JSON exporters
//! * [`resman`] — dispositions, weighted LRU, paged-pool limits,
//!   reactive/proactive unload
//! * [`storage`] — page chains, stores, the buffer pool with RAII pins
//! * [`core`] — the three paged structures + resident baselines + columns
//! * [`table`] — fragments, delta merge, partitions, aging, query executor
//! * [`workload`] — the paper's ERP-like dataset and query generators
//!
//! # Example
//!
//! ```
//! use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
//! use page_as_you_go::resman::ResourceManager;
//! use page_as_you_go::storage::{BufferPool, MemStore};
//! use page_as_you_go::table::{
//!     ColumnSpec, PartitionSpec, Projection, Query, QueryResult, Schema, Table,
//! };
//! use std::sync::Arc;
//!
//! // Storage + accounting.
//! let resman = ResourceManager::new();
//! let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
//!
//! // A PAGE LOADABLE table (the paper's cold-store configuration).
//! let schema = Schema::new(vec![
//!     ColumnSpec::new("id", DataType::Integer),
//!     ColumnSpec::new("customer", DataType::Varchar),
//! ])?
//! .with_primary_key("id")?;
//! let mut orders = Table::create(
//!     pool,
//!     PageConfig::default(),
//!     schema,
//!     vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
//! )?;
//!
//! // Inserts land in the delta; the merge builds the paged main fragment.
//! for i in 0..10_000i64 {
//!     orders.insert(vec![
//!         Value::Integer(i),
//!         Value::Varchar(format!("customer-{:04}", i % 500).into()),
//!     ])?;
//! }
//! orders.delta_merge_all()?;
//! orders.unload_all(); // start cold
//!
//! // A point query pins a handful of pages — not whole columns.
//! let q = Query::filtered(
//!     "id",
//!     ValuePredicate::Eq(Value::Integer(4_217)),
//!     Projection::All,
//! );
//! // The answer is in columns: each row is read in place.
//! let QueryResult::Rows(rows) = orders.execute(&q)? else { unreachable!() };
//! let row = rows.get(0).expect("one row");
//! assert_eq!(row[1], Value::Varchar("customer-0217".into()));
//! assert!(resman.stats().paged_count > 0, "pages were loaded piecewise");
//!
//! // Under pressure, pages are evicted piecewise; answers never change.
//! resman.handle_low_memory(usize::MAX / 2);
//! let rows = orders.execute(&q)?.into_rows(); // a `Vec` a row
//! assert_eq!(rows, [[Value::Integer(4_217), Value::Varchar("customer-0217".into())]]);
//! # Ok::<(), page_as_you_go::table::TableError>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured evaluation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use payg_core as core;
pub use payg_encoding as encoding;
pub use payg_obs as obs;
pub use payg_resman as resman;
pub use payg_storage as storage;
pub use payg_table as table;
pub use payg_workload as workload;

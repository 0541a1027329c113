//! `payg-perf` — the repository's one benchmark.
//!
//! The paper's workloads (Table 2 point mix, unindexed scans, Table 3 PK
//! ranges under memory pressure, ingest beside reads) run end to end through
//! `Table::session()` against a real `FileStore`; every layer below is
//! measured from outside, by timing calls into its public functions and by
//! reading its public counters. See `README.md` for the workloads, the metric
//! table and how to read the trace.

#![forbid(unsafe_code)]

pub mod api;
pub mod json;
pub mod layers;
mod metrics;
pub mod ops;
pub mod probe_store;
pub mod report;
pub mod run;
pub mod setup;
pub mod trace;

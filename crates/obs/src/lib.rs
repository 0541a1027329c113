//! Unified observability for the page-as-you-go engine.
//!
//! Every layer of the system — buffer pool, resource manager, scan
//! iterators, tables — reports into one [`Registry`]: a named collection of
//! lock-free [`Counter`]s, [`Gauge`]s, and power-of-two-bucket
//! [`Histogram`]s. A [`Registry::snapshot`] (an [`ObsSnapshot`]) captures
//! the whole system's state at once and renders it as Prometheus
//! exposition text or JSON.
//!
//! The registry's map is behind a mutex, but it is only touched when a
//! metric is first created (or a snapshot is taken): callers hold cheap
//! `Arc` handles and the hot path is a single relaxed atomic add.
//!
//! Two more facilities ride along:
//!
//! - [`Tracer`]: structured page-lifecycle event tracing ([`PageEvent`])
//!   into per-thread bounded ring buffers. Disabled (the default), an emit
//!   is one relaxed load. Enabled, events carry a global sequence number so
//!   a drain can reconstruct the exact system-wide order of loads, pins,
//!   and evictions.
//! - [`Span`]: hierarchical query spans (query → scan-partition →
//!   page-wait/io-batch → chunk-dispatch) recorded by the same tracer into
//!   a separate bounded side store, with a [`QueryCtx`] for carrying the
//!   parent across worker threads. Events emitted under an open span are
//!   tagged with its id, which is how page provenance (who caused this
//!   load?) is reconstructed. A [`Recording`] turns the tracer on for one
//!   query, which then takes out its own span tree with
//!   [`Tracer::take_tree`]: a query's cost report is that tree, exact
//!   whatever else runs on the pool.
//!
//! Metric names used by the engine crates live in [`names`] so producers
//! and consumers (benches, exporters) agree on one vocabulary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
mod registry;
mod span;
mod trace;

pub mod names;

pub use hist::{Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use registry::{Counter, Gauge, MetricValue, ObsSnapshot, Registry};
pub use span::{QueryCtx, Span, SpanKind, SpanRecord, SPAN_STORE_CAPACITY};
pub use trace::{EventKind, PageEvent, Recording, Tracer, TRACE_RING_CAPACITY};

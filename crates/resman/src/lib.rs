//! Resource manager: memory accounting and piecewise eviction (paper §5).
//!
//! SAP HANA manages memory for *logical resources* rather than just physical
//! pages: a fully-resident column registers as a single resource, whereas a
//! page-loadable column registers **each loaded page** as a separate
//! resource. This crate reproduces that model:
//!
//! * Every resource carries a [`Disposition`] that categorizes its cache
//!   eviction policy, from [`Disposition::NonSwappable`] (never evicted) to
//!   [`Disposition::Temporary`] (evicted as soon as unused). Resources of
//!   page-loadable columns use [`Disposition::PagedAttribute`].
//! * A low-memory situation evicts unused resources in descending `t / w`
//!   order, where `t` is the time since last touch and `w` the disposition
//!   weight (**weighted LRU**).
//! * Paged-attribute resources live in a dedicated pool with a *lower* and an
//!   *upper* limit. The **reactive** unload shrinks the pool to the lower
//!   limit under memory pressure; the **proactive** unload runs
//!   asynchronously whenever the pool exceeds the upper limit and evicts
//!   plain-LRU (weights intentionally ignored, as in the paper) until the
//!   lower limit is reached. Because it is asynchronous, the pool may
//!   transiently exceed the upper limit — loads are never blocked.
//!
//! Pinned resources (see [`ResourceHandle::pin`]) are never evicted; page
//! iterators hold pins for exactly as long as the paper prescribes. Pin,
//! unpin and touch are lock-free operations on a per-resource pin word the
//! handle shares with the manager; only registration, eviction passes and
//! accounting take the manager's state lock.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod disposition;
mod handle;
mod manager;
mod proactive;
mod stats;
pub mod sync;

pub use disposition::Disposition;
pub use handle::ResourceHandle;
pub use manager::{PoolLimits, ResourceManager};
pub use stats::MemoryStats;

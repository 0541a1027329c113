//! Paged persistence: page chains, page stores, and the buffer pool.
//!
//! Page-loadable structures persist as **chains of disk-resident pages**
//! (paper §3.1.1): a chain is an ordered sequence of fixed-size pages
//! addressed by *logical page number*. Readers pin individual pages through
//! the [`BufferPool`], which loads on miss, registers every loaded page as a
//! separate [`payg_resman`] resource with the *paged attribute* disposition,
//! and drops frames when the resource manager evicts them. A pinned page is
//! never evicted — iterators hold a [`PageGuard`] for exactly the duration
//! the paper prescribes (release previous, pin next, on reposition).
//!
//! Two [`PageStore`] implementations are provided: a durable [`FileStore`]
//! (one file per chain, reopenable for cold-restart experiments) and an
//! in-memory [`MemStore`] for tests. [`FaultyStore`] wraps any store with
//! fault injection and [`LatencyStore`] with a synthetic latency per
//! physical read, so experiments can model slower cold storage than this
//! machine's page-cached files (see DESIGN.md, substitutions).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chain;
pub mod checksum;
mod error;
mod iostage;
mod metrics;
mod page;
mod pool;
mod store;
pub mod sync;

pub use chain::ChainRef;
pub use checksum::{crc32, page_checksum, Crc32};
pub use error::{FaultClass, StorageError, StorageResult};
pub use metrics::{PoolMetrics, ShardMetrics};
pub use page::{ChainId, PageKey, PageKeyHasher, PageMap};
pub use pool::{
    BufferPool, PageGuard, PoolConfig, RetryPolicy, DEFAULT_SHARD_COUNT,
};
pub use store::{
    real_sleeper, FaultPlan, FaultyStore, FileStore, GateStore, LatencyStore, MemStore,
    PageStore, Sleeper,
};

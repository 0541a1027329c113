//! Page-loadable columns: the paper's primary contribution.
//!
//! A column in this engine is the triple the paper describes (§2):
//!
//! 1. an **encoded data vector** — one n-bit packed value identifier per row,
//! 2. an **order-preserving dictionary** — value identifiers assigned in the
//!    sort order of the values, and
//! 3. an optional **inverted index** — value identifier → row positions.
//!
//! Every structure exists in two access modes over one persisted format:
//!
//! * **Fully resident** ([`column::ResidentColumn`]): loaded entirely into
//!   contiguous memory on first access and registered with the resource
//!   manager as a *single* resource — HANA's default column behaviour.
//! * **Page loadable** ([`column::PagedColumn`]): accessed piecewise through
//!   the buffer pool; every loaded page is its own resource with the paged
//!   attribute disposition. This is the paper's page loadable column.
//!
//! The choice is made at build time via [`column::LoadPolicy`] and is
//! invisible to readers: both modes implement the same [`column::ColumnRead`]
//! operations.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod column;
pub mod config;
pub mod datavec;
pub mod dict;
pub mod error;
pub mod invidx;
pub mod meta;
pub mod scratch;
pub mod sync;
mod util;
pub mod value;
mod waves;

pub use column::{Column, ColumnBuilder, ColumnRead, EncodedRows, LoadPolicy};
pub use config::PageConfig;
pub use datavec::ScanOptions;
pub use error::{CoreError, CoreResult};
pub use payg_encoding::dispatch::{ChainCodec, CodecKind, ScanPath};
pub use scratch::ChainScratch;
pub use value::{DataType, KeyPoints, KeyPredicate, KeyRange, Value, ValuePredicate};

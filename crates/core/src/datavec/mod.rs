//! Encoded data vectors (paper §3.1).
//!
//! The data vector holds one n-bit packed value identifier per row. The
//! fully-resident form is [`payg_encoding::BitPackedVec`] (re-exported here);
//! the page-loadable form is [`PagedDataVector`], which persists the same
//! 64-identifier chunks across a page chain; a scan reads them through an
//! iterator that pins pages in waves, a point or list decode from the pages
//! late materialization pins as a batch.

mod paged;
mod parallel;

pub use paged::{PagedDataVector, PagedDataVectorIterator};
pub use parallel::{scan_partitions, ScanOptions, ScanPartition};
pub use payg_encoding::BitPackedVec;

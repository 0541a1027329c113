//! The handle of a written page chain.
//!
//! Structure writers (data vector, dictionary, inverted index) create a
//! chain with [`crate::PageStore::create_chain`] and append whole pages with
//! [`crate::PageStore::append_page`]; each layout keeps its own units
//! (chunks, value blocks, index blocks) page-local, which is what guarantees
//! readers stable intra-page access.

use crate::ChainId;

/// A completed, immutable page chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainRef {
    /// The chain's id in its store.
    pub chain: ChainId,
    /// Number of pages written.
    pub pages: u64,
    /// The chain's page size in bytes.
    pub page_size: usize,
}

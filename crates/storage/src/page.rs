//! Page addressing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifies one page chain within a [`crate::PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainId(pub u64);

/// Addresses one page: a chain plus the logical page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageKey {
    /// The chain the page belongs to.
    pub chain: ChainId,
    /// Zero-based logical page number within the chain.
    pub page_no: u64,
}

impl PageKey {
    /// Convenience constructor.
    pub fn new(chain: ChainId, page_no: u64) -> Self {
        PageKey { chain, page_no }
    }

    /// Cheap multiplicative mix of (chain, page_no) — the one hash of a
    /// page key: maps keyed by page feed it to [`PageKeyHasher`] (bucket
    /// from the bottom bits, tag from the top), the pool's stripe choice
    /// reads bits in between.
    pub(crate) fn mix(self) -> u64 {
        let mut h = self.chain.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= self.page_no.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^ (h >> 32)
    }
}

impl Hash for PageKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.mix());
    }
}

/// Pass-through hasher for [`PageKey`]-keyed maps: a page key hashes itself
/// with its integer mix, so a lookup costs two multiplies instead of a
/// SipHash round. Page keys are allocated by this process (chain ids by the
/// store, page numbers by chain writers), never taken from outside input,
/// so the flooding resistance SipHash buys is not needed here.
#[derive(Default, Clone, Copy)]
pub struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, mixed: u64) {
        self.0 = mixed;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reached by `PageKey`; keeps the hasher total for any key.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
}

/// A `HashMap` keyed by [`PageKey`] through [`PageKeyHasher`].
pub type PageMap<V> = HashMap<PageKey, V, BuildHasherDefault<PageKeyHasher>>;

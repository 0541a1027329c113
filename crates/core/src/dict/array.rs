//! The numeric dictionary layout: pages of sorted fixed-width keys.
//!
//! The order-preserving keys of INTEGER / DOUBLE / DECIMAL values are 8 or
//! 16 bytes wide (see [`crate::DataType::key_width`]), so their dictionary
//! needs none of the string structure of §3.2: **one chain of header-less
//! pages**, each `page_size / width` keys in ascending order (the last page
//! may be short; the store zero-pads it). Identifier → key is arithmetic —
//! page `vid / per_page`, slot `vid % per_page` — and key → identifier is a
//! `memcmp` binary search on the one page the in-memory residue (the last
//! key of every page, `width` bytes each) routes to. No overflow chain, no
//! helper chains, no per-page transient structure.

use super::DictLookup;
use crate::meta::{MetaReader, MetaWriter};
use crate::{CoreError, CoreResult, PageConfig};
use payg_encoding::dispatch::{ChainCodec, CodecKind};
use payg_obs::names;
use payg_storage::{BufferPool, ChainRef, PageKey, PageStore, StorageError};

/// A persisted array dictionary: its chain and the routing residue.
pub(crate) struct ArrayPages {
    chain: ChainRef,
    width: usize,
    /// Keys on a full page: `page_size / width`.
    per_page: u64,
    cardinality: u64,
    /// The last key of every page, `width` bytes each.
    page_last: Vec<u8>,
}

fn corrupt(chain: &ChainRef, what: impl std::fmt::Display) -> CoreError {
    CoreError::Storage(StorageError::corrupt(format!(
        "array dictionary chain {}: {what}",
        chain.chain.0
    )))
}

impl ArrayPages {
    /// Persists `keys` (sorted, strictly increasing, each `width` bytes).
    pub(crate) fn build<K: AsRef<[u8]>>(
        pool: &BufferPool,
        config: &PageConfig,
        width: usize,
        keys: &[K],
    ) -> CoreResult<Self> {
        let page_size = config.dict_page;
        let per_page = page_size / width;
        if per_page == 0 {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "dictionary page of {page_size} bytes cannot hold one {width}-byte key; raise \
                 dict_page"
            ))));
        }
        let store = pool.store();
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let chain = scratch.create_chain(page_size)?;
        // Described before the first page: the store sizes the region to it.
        let codec = ChainCodec { kind: CodecKind::Array, params: vec![width as u8] };
        store.set_chain_descriptor(chain, &codec.serialize())?;
        let mut page_last = Vec::with_capacity(keys.len().div_ceil(per_page) * width);
        let mut page = Vec::with_capacity(per_page * width);
        for group in keys.chunks(per_page) {
            page.clear();
            for key in group {
                let key = key.as_ref();
                if key.len() != width {
                    return Err(CoreError::Storage(StorageError::corrupt(format!(
                        "numeric dictionary key of {} bytes, expected {width}",
                        key.len()
                    ))));
                }
                page.extend_from_slice(key);
            }
            store.append_page(chain, &page)?;
            page_last.extend_from_slice(&page[page.len() - width..]);
        }
        let pages = (page_last.len() / width) as u64;
        pool.registry()
            .counter_labeled(
                names::POOL_PAGE_BYTES,
                &[("pool", pool.metrics_label()), ("codec", CodecKind::Array.label())],
            )
            .add(pages * page_size as u64);
        scratch.commit();
        Ok(ArrayPages {
            chain: ChainRef { chain, pages, page_size },
            width,
            per_page: per_page as u64,
            cardinality: keys.len() as u64,
            page_last,
        })
    }

    /// Appends the checkpoint encoding (after the dictionary's layout tag).
    pub(crate) fn write_meta(&self, w: &mut MetaWriter) {
        w.u64(self.cardinality);
        crate::meta::write_chain(w, &self.chain);
        w.u64(self.width as u64);
        w.bytes(&self.page_last);
    }

    /// Reads back what [`ArrayPages::write_meta`] wrote, for a column whose
    /// keys are `width` bytes. Refuses a blob that describes anything but
    /// `cardinality` keys of that width packed `page_size / width` to a
    /// page.
    pub(crate) fn read_meta(r: &mut MetaReader<'_>, width: usize) -> CoreResult<Self> {
        let cardinality = r.u64()?;
        let chain = crate::meta::read_chain(r)?;
        let stored_width = r.u64()?;
        let page_last = r.bytes()?;
        if stored_width != width as u64 {
            return Err(corrupt(&chain, format!("key width {stored_width}, column needs {width}")));
        }
        let per_page = (chain.page_size / width) as u64;
        if per_page == 0 || chain.pages != cardinality.div_ceil(per_page) {
            return Err(corrupt(
                &chain,
                format!(
                    "{} pages of {} bytes do not hold exactly {cardinality} keys",
                    chain.pages, chain.page_size
                ),
            ));
        }
        if page_last.len() as u64 != chain.pages * width as u64 {
            return Err(corrupt(&chain, "routing residue does not match the page count"));
        }
        Ok(ArrayPages { chain, width, per_page, cardinality, page_last })
    }

    pub(crate) fn cardinality(&self) -> u64 {
        self.cardinality
    }

    pub(crate) fn chain(&self) -> &ChainRef {
        &self.chain
    }

    /// Heap bytes of the routing residue.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.page_last.capacity()
    }

    /// The page holding `vid`'s key.
    pub(crate) fn page_of(&self, vid: u64) -> u64 {
        vid / self.per_page
    }

    /// The store address of page `page`.
    pub(crate) fn page_key(&self, page: u64) -> PageKey {
        PageKey::new(self.chain.chain, page)
    }

    /// Keys stored on page `page` (only the last page can be short).
    fn keys_on(&self, page: u64) -> usize {
        (self.cardinality - page * self.per_page).min(self.per_page) as usize
    }

    /// `vid`'s key on the bytes of its page ([`ArrayPages::page_of`]).
    pub(crate) fn slot<'a>(&self, page: &'a [u8], vid: u64) -> CoreResult<&'a [u8]> {
        let at = (vid % self.per_page) as usize * self.width;
        page.get(at..at + self.width).ok_or_else(|| {
            corrupt(&self.chain, format!("page of {} bytes has no slot for vid {vid}", page.len()))
        })
    }

    /// The keys stored on page `page`, off the page's bytes.
    fn slots<'a>(&self, bytes: &'a [u8], page: u64) -> CoreResult<&'a [u8]> {
        let count = self.keys_on(page);
        bytes.get(..count * self.width).ok_or_else(|| {
            corrupt(&self.chain, format!("page {page} shorter than its {count} keys"))
        })
    }

    /// The page a lookup of `key` searches — the first whose last key is
    /// `>= key` — or `None` when `key` is above every key.
    pub(crate) fn route(&self, key: &[u8]) -> Option<u64> {
        let (Ok(page) | Err(page)) = search(&self.page_last, self.width, key);
        (page as u64 != self.chain.pages).then_some(page as u64)
    }

    /// Searches the bytes of page `page` — the one [`ArrayPages::route`]
    /// named — for `key`.
    pub(crate) fn find_on(&self, bytes: &[u8], page: u64, key: &[u8]) -> CoreResult<DictLookup> {
        let first = page * self.per_page;
        Ok(search(self.slots(bytes, page)?, self.width, key)
            .map(|slot| first + slot as u64)
            .map_err(|slot| first + slot as u64))
    }

    /// Hands every key to `push` in order, read straight from the store
    /// (the resident column's full load).
    pub(crate) fn read_all(
        &self,
        store: &dyn PageStore,
        push: &mut dyn FnMut(&[u8]) -> CoreResult<()>,
    ) -> CoreResult<()> {
        for page in 0..self.chain.pages {
            let bytes = store.read_page(self.page_key(page))?;
            for key in self.slots(&bytes, page)?.chunks_exact(self.width) {
                push(key)?;
            }
        }
        Ok(())
    }
}

/// Binary search of `slots` — ascending `width`-byte keys back to back — for
/// `key`, by `memcmp`: the slot holding it, or the slot it would take.
fn search(slots: &[u8], width: usize, key: &[u8]) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, slots.len() / width);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match slots[mid * width..(mid + 1) * width].cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Equal => return Ok(mid),
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    Err(lo)
}

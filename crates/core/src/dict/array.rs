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
use crate::value::exact;
use crate::{CoreError, CoreResult, DataType, PageConfig, Sum, Value};
use payg_encoding::dispatch::{ChainCodec, CodecKind};
use payg_encoding::okey;
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

/// Where [`ArrayPages::values_on`] puts the values of the identifiers it is
/// handed — phase (c)'s two sinks.
pub(crate) enum Values<'a> {
    /// Appended to the values table, in the identifiers' order.
    Table(&'a mut Vec<Value>),
    /// Added to a sum: the `i`-th identifier's value `uses[i]` times.
    Sum { uses: &'a [u32], sum: &'a mut Sum },
}

/// Hands `f` each of `vids` in order — its index among them and its
/// `W`-byte key off `keys`, the keys of the identifiers from `first` on —
/// the one loop both sinks of [`ArrayPages::values_on`] run. The first
/// identifier outside `keys` is the error.
#[inline(always)]
fn each_key<const W: usize>(
    keys: &[u8],
    first: u64,
    vids: &[u64],
    mut f: impl FnMut(usize, &[u8; W]),
) -> Result<(), u64> {
    let keys = keys.as_chunks::<W>().0;
    for (i, &vid) in vids.iter().enumerate() {
        f(i, keys.get(vid.wrapping_sub(first) as usize).ok_or(vid)?);
    }
    Ok(())
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

    /// Keys on a full page: page `p` holds identifiers `p * per_page..`.
    pub(crate) fn per_page(&self) -> u64 {
        self.per_page
    }

    /// The store address of page `page`.
    pub(crate) fn page_key(&self, page: u64) -> PageKey {
        PageKey::new(self.chain.chain, page)
    }

    /// Keys stored on page `page` (only the last page can be short).
    fn keys_on(&self, page: u64) -> usize {
        (self.cardinality - page * self.per_page).min(self.per_page) as usize
    }

    /// Hands the values of `vids` — all on the page whose bytes are `page`
    /// and whose first identifier is `first` — to `sink`, decoded as `ty`,
    /// whose keys are this dictionary's width (checked when it was built or
    /// opened): each type's keys are read in one tight loop, a slot being
    /// the identifier's offset from `first`, and either appended to the
    /// values table as values or added to a sum as numbers, with no value
    /// made. An identifier the page does not hold is a `Corrupt` error; a
    /// sum of another type than `ty` is a `TypeMismatch`.
    pub(crate) fn values_on(
        &self,
        page: &[u8],
        first: u64,
        vids: &[u64],
        ty: DataType,
        sink: Values<'_>,
    ) -> CoreResult<()> {
        let held = self.cardinality.saturating_sub(first).min(self.per_page) as usize;
        let keys = page.get(..held * self.width).ok_or_else(|| {
            corrupt(&self.chain, format!("page of {} bytes holds no {held} keys", page.len()))
        })?;
        // A DECIMAL sum past 128 bits stops adding and is reported after
        // the loop, which thus never builds an error.
        let mut overflow = false;
        let each = match (ty, sink) {
            (DataType::Varchar, _) => {
                return Err(corrupt(&self.chain, "a VARCHAR column has no array dictionary"))
            }
            (ty, Values::Table(out)) => {
                out.reserve(vids.len());
                match ty {
                    DataType::Integer => {
                        each_key(keys, first, vids, |_, k| out.push(Value::Integer(okey::i64_of(*k))))
                    }
                    DataType::Double => {
                        each_key(keys, first, vids, |_, k| out.push(Value::Double(okey::f64_of(*k))))
                    }
                    _ => each_key(keys, first, vids, |_, k| out.push(Value::Decimal(okey::i128_of(*k)))),
                }
            }
            (DataType::Integer, Values::Sum { uses, sum: Sum::Integer(a) }) => {
                each_key(keys, first, vids, |i, k: &[u8; 8]| {
                    *a += i128::from(okey::i64_of(*k)) * i128::from(uses[i]);
                })
            }
            (DataType::Decimal, Values::Sum { uses, sum: Sum::Decimal(a) }) => {
                each_key(keys, first, vids, |i, k| match exact(*a, okey::i128_of(*k), u64::from(uses[i])) {
                    Some(total) if !overflow => *a = total,
                    _ => overflow = true,
                })
            }
            (DataType::Double, Values::Sum { uses, sum: Sum::Double(a) }) => {
                each_key(keys, first, vids, |i, k| *a += okey::f64_of(*k) * u64::from(uses[i]) as f64)
            }
            (expected, Values::Sum { sum, .. }) => {
                return Err(CoreError::TypeMismatch { expected, got: sum.data_type() })
            }
        };
        each.map_err(|vid| corrupt(&self.chain, format!("page from vid {first} has no slot for vid {vid}")))?;
        if overflow {
            return Err(CoreError::SumOverflow);
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;
    use std::sync::Arc;

    /// `values_on` reads each identifier at its offset from its page's
    /// first, in the order asked, and refuses one the page does not hold —
    /// below its first, past its last key, past the dictionary's last — as
    /// `Corrupt`, wherever it stands among the identifiers.
    #[test]
    fn values_on_refuses_an_identifier_its_page_does_not_hold() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let value = |vid: u64| Value::Integer(vid as i64 * 3 - 100);
        let keys: Vec<Vec<u8>> = (0..200).map(|vid| value(vid).to_key()).collect();
        let a = ArrayPages::build(&pool, &PageConfig::tiny(), 8, &keys).unwrap();
        let per = a.per_page();
        assert_eq!(a.chain.pages, 3, "two full pages and a short one");
        for (p, held) in [(1, per), (2, 200 - 2 * per)] {
            let (first, last) = (p * per, p * per + held - 1);
            let page = pool.pin(a.page_key(p)).unwrap();
            let vids = [last, first, first + 1, last];
            let mut out = Vec::new();
            a.values_on(&page, first, &vids, DataType::Integer, Values::Table(&mut out)).unwrap();
            assert_eq!(out, vids.map(value), "page {p}");
            for stray in [first - 1, last + 1, u64::MAX] {
                for vids in [[stray, first], [first, stray]] {
                    let got = a.values_on(&page, first, &vids, DataType::Integer, Values::Table(&mut out));
                    assert!(
                        matches!(got, Err(CoreError::Storage(StorageError::Corrupt(_)))),
                        "page {p}, vids {vids:?}: {got:?}"
                    );
                }
            }
        }
    }
}

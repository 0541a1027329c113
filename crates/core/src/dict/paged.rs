//! The page-loadable dictionary (paper §3.2).
//!
//! The column's type picks one of two physical layouts. Numeric columns —
//! whose order-preserving keys are fixed-width — persist as pages of sorted
//! keys (`array.rs`): one chain, identifier → key by arithmetic. Strings
//! persist as the paper's structure, described here:
//!
//! * **Dictionary chain** — pages of prefix-encoded value blocks (16 values
//!   per block). Page format:
//!   `first_idx: u64 | nblocks: u32 | offsets: [u32; nblocks] | blocks…`,
//!   where `first_idx` is the vid of the first value on the page. Because
//!   every block except the last holds exactly 16 values, vid → (block,
//!   slot) is pure arithmetic once the page is pinned.
//! * **Overflow chain** — off-page pieces of large values; a value block
//!   entry references them by logical pointer (`page_no`, `len`).
//! * **`ipDict_ValueId` helper chain** — one `u64` per dictionary page: the
//!   last vid stored on that page, packed as plain little-endian arrays.
//! * **`ipDict_Value` helper chain** — one separator (the last value) per
//!   dictionary page, stored as prefix-encoded blocks with the same page
//!   format as the dictionary chain (`first_idx` = separator index).
//!
//! Only a dictionary of more than one page persists the two helper chains:
//! a one-page dictionary's page is page 0, and its one separator stays in
//! memory.
//!
//! A tiny in-memory residue — the last entry of *each helper page* — routes
//! a lookup to the single helper page it needs; everything else is pinned on
//! demand through the buffer pool. Helper chains are preloaded on the first
//! access to the dictionary (§3.2.3), and both lookups touch exactly one
//! dictionary page plus, for large values, the overflow pages of **one**
//! value.
//!
//! The per-page *transient structure* (§3.2.1) — the vector of block offsets
//! — is built on the first read of a loaded page, charged to the paged pool
//! once, and lives and dies with the page's frame.
//!
//! When a sampled compression ratio clears
//! [`crate::config::FSST_SKIP_RATIO`] — the builder's decision, taken from
//! the keys — the dictionary chain's value blocks hold **FSST-compressed**
//! keys: front-coding and overflow spill run on compressed bytes, a lookup
//! orders the raw probe against the compressed entries as they lie (the
//! decoder is streamed against the probe: nothing is decoded into a buffer
//! and the probe is never encoded), and only materialization decompresses.
//! The trained symbol table travels in the checkpoint metadata *and* as the
//! chain's format-2 codec descriptor. The helper chains keep raw
//! separators: the same search runs on them without a table.

use super::array::ArrayPages;
use super::{FrontCodedBuilder, FrontCodedDict, InMemoryDict};
use crate::{CoreError, CoreResult, DataType, PageConfig};
use payg_encoding::dispatch::{ChainCodec, CodecKind};
use payg_encoding::fsst::SymbolTable;
use payg_encoding::prefix::{OverflowRef, ValueBlockBuilder, ValueBlockView, BLOCK_CAP};
use payg_encoding::EncodingError;
use payg_obs::names;
use payg_storage::{BufferPool, ChainRef, PageGuard, PageKey, PageMap, PageStore, StorageError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Result of a key lookup: `Ok(vid)` on a hit, `Err(insertion_vid)` — the
/// number of dictionary keys strictly below the probe — on a miss.
pub type DictLookup = Result<u64, u64>;

/// Handles a [`HandleCache`] keeps without a heap allocation: a
/// `findByValue` pins a value-helper page and a dictionary page (and, for a
/// large entry, its overflow pages).
const INLINE_HANDLES: usize = 4;

/// Per-iterator page-handle cache (paper §3.2.3) of `findByValue`: pinned
/// pages are reused for the lifetime of the cache and released when it is
/// dropped, keeping the resource manager from unloading pages the next probe
/// will revisit. The first [`INLINE_HANDLES`] handles live in the cache
/// itself; a preload that pins more spills into a map. `findByValueID` takes
/// no cache: an identifier's key is read by the batch of
/// [`crate::column::ColumnRead::values_by_vid`], which pins a phase's pages
/// together.
pub struct HandleCache {
    pool: BufferPool,
    /// Filled front to back.
    inline: [Option<(PageKey, PageGuard)>; INLINE_HANDLES],
    spilled: PageMap<PageGuard>,
    /// The value-block walk's accumulator, kept with the handles so the
    /// lookups of one iterator share one buffer.
    acc: Vec<u8>,
}

impl HandleCache {
    /// Creates an empty cache over `pool`.
    pub fn new(pool: BufferPool) -> Self {
        HandleCache {
            pool,
            inline: std::array::from_fn(|_| None),
            spilled: PageMap::default(),
            acc: Vec::new(),
        }
    }

    fn cached(&self, key: PageKey) -> Option<&PageGuard> {
        let inline = self.inline.iter().map_while(Option::as_ref).find(|(k, _)| *k == key);
        inline.map(|(_, guard)| guard).or_else(|| self.spilled.get(&key))
    }

    fn insert(&mut self, key: PageKey, guard: PageGuard) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some((key, guard)),
            None => {
                self.spilled.insert(key, guard);
            }
        }
    }

    /// Pins `key`, reusing a cached handle when present.
    pub fn pin(&mut self, key: PageKey) -> CoreResult<PageGuard> {
        // A clone is a pin of the frame's own pin word (and a touch): no
        // pool lookup on a cached hit.
        if let Some(guard) = self.cached(key) {
            return Ok(guard.clone());
        }
        let guard = self.pool.pin(key).map_err(CoreError::Storage)?;
        self.insert(key, guard.clone());
        Ok(guard)
    }

    /// Pins every page of `keys` not cached yet with one batched pin —
    /// adjacent pages of a chain arrive in one ranged read — and caches the
    /// handles.
    pub fn pin_all(&mut self, keys: &[PageKey]) -> CoreResult<()> {
        let missing: Vec<PageKey> =
            keys.iter().copied().filter(|&k| self.cached(k).is_none()).collect();
        for (key, guard) in missing.iter().zip(self.pool.pin_many(&missing)) {
            self.insert(*key, guard.map_err(CoreError::Storage)?);
        }
        Ok(())
    }

    /// Number of cached handles.
    pub fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spilled.len()
    }

    /// True when no handles are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The transient structure registered to a dictionary page on load: the
/// block-offset vector plus the page's first index.
struct PageTransient {
    first_idx: u64,
    offsets: Vec<u32>,
}

impl PageTransient {
    fn parse(bytes: &[u8]) -> Result<(PageTransient, usize), StorageError> {
        if bytes.len() < 12 {
            return Err(StorageError::corrupt("dictionary page shorter than header"));
        }
        let first_idx = crate::util::le_u64(&bytes[0..8]);
        let nblocks = crate::util::le_u32(&bytes[8..12]) as usize;
        let need = 12 + nblocks * 4;
        if nblocks == 0 || bytes.len() < need {
            return Err(StorageError::corrupt(format!(
                "dictionary page header claims {nblocks} blocks but page has {} bytes",
                bytes.len()
            )));
        }
        let mut offsets = Vec::with_capacity(nblocks);
        for i in 0..nblocks {
            let off = crate::util::le_u32(&bytes[12 + i * 4..16 + i * 4]);
            if (off as usize) < need || off as usize >= bytes.len() {
                return Err(StorageError::corrupt(format!("block offset {off} out of page")));
            }
            offsets.push(off);
        }
        let heap = offsets.capacity() * 4;
        Ok((PageTransient { first_idx, offsets }, heap))
    }
}

/// A pinned dictionary page opened for entry reads: the page's transient
/// block-offset vector, borrowed from the pinned frame, serves however many
/// entries are then read off the page.
pub(crate) struct DictPageView<'a> {
    guard: &'a PageGuard,
    transient: &'a PageTransient,
    dict_page: u64,
}

impl DictPageView<'_> {
    /// Reads the on-page part of `vid`'s (possibly FSST-compressed) key
    /// into `acc` (cleared first). Returns the pointers to the entry's
    /// off-page pieces — which the caller fetches and appends in order with
    /// [`append_piece`] — and the length of the complete entry, for
    /// [`Blocks::finish_key`].
    pub(crate) fn read(&self, vid: u64, acc: &mut Vec<u8>) -> CoreResult<(Vec<OverflowRef>, u64)> {
        let t = self.transient;
        if vid < t.first_idx {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "vid {vid} routed to dictionary page {} starting at {}",
                self.dict_page, t.first_idx
            ))));
        }
        let idx = (vid - t.first_idx) as usize;
        let (block_no, slot) = (idx / BLOCK_CAP, idx % BLOCK_CAP);
        if block_no >= t.offsets.len() {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "vid {vid} maps to block {block_no} of {} on page {}",
                t.offsets.len(),
                self.dict_page
            ))));
        }
        let block = ValueBlockView::parse(&self.guard[t.offsets[block_no] as usize..])?;
        if slot >= block.len() {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "vid {vid} maps to slot {slot} of a {}-entry block",
                block.len()
            ))));
        }
        Ok(block.materialize_onpage_into(slot, acc)?)
    }
}

/// Appends the off-page piece `r` of a large entry from its pinned overflow
/// page.
pub(crate) fn append_piece(bytes: &mut Vec<u8>, r: &OverflowRef, page: &[u8]) -> CoreResult<()> {
    let piece = page.get(..r.len as usize).ok_or_else(|| {
        CoreError::Storage(StorageError::corrupt(format!(
            "overflow piece on page {} claims {} bytes of a {}-byte page",
            r.page_no,
            r.len,
            page.len()
        )))
    })?;
    bytes.extend_from_slice(piece);
    Ok(())
}

/// The string layout (§3.2): value blocks, their overflow and the two helper
/// dictionaries, with the in-memory residue that routes into the helpers.
pub(crate) struct Blocks {
    cardinality: u64,
    dict_chain: ChainRef,
    overflow_chain: ChainRef,
    /// The helper chains, persisted only for a dictionary of more than one
    /// page: a one-page dictionary's page is page 0, so nothing would ever
    /// read them.
    helpers: Option<Helpers>,
    /// Last separator of each *value-helper page* — of a one-page
    /// dictionary, its one separator: `find` answers a probe past it
    /// without a page.
    value_helper_page_last: Vec<Vec<u8>>,
    /// Dictionary pages (also the number of separators / helper entries).
    dict_pages: u64,
    /// The symbol table when the dictionary chain is FSST-compressed.
    fsst: Option<Arc<SymbolTable>>,
    /// Set once the §3.2.3 preload of the helper chains has landed.
    helpers_preloaded: AtomicBool,
    /// Guards held when the helper chains are pinned permanently
    /// (§6.2.2's "more effective to have these auxiliary dictionaries
    /// always loaded in memory").
    pinned_helpers: crate::sync::Mutex<Vec<PageGuard>>,
}

/// The two helper chains of a dictionary of more than one page, with the
/// residue that routes into the `ipDict_ValueId` one.
struct Helpers {
    vid_chain: ChainRef,
    value_chain: ChainRef,
    /// Last vid of each *vid-helper page* (one entry per helper page).
    vid_page_last: Vec<u64>,
}

/// How a dictionary is persisted — chosen by the column's type.
pub(crate) enum Layout {
    /// Strings: the paper's value-block structure.
    Blocks(Blocks),
    /// Numeric types: pages of sorted fixed-width keys.
    Array(ArrayPages),
}

/// Build statistics reported by [`PagedDictionary::build`]. An array
/// dictionary has dictionary pages only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedDictBuildStats {
    /// Pages in the dictionary chain.
    pub dict_pages: u64,
    /// Pages in the overflow chain.
    pub overflow_pages: u64,
    /// Pages in the `ipDict_ValueId` helper chain.
    pub vid_helper_pages: u64,
    /// Pages in the `ipDict_Value` helper chain.
    pub value_helper_pages: u64,
}

/// The page-loadable, order-preserving dictionary.
pub struct PagedDictionary {
    pool: BufferPool,
    layout: Layout,
}

impl Blocks {
    /// Persists `keys` (sorted, strictly increasing) in the string layout.
    fn build<K: AsRef<[u8]>>(
        pool: &BufferPool,
        config: &PageConfig,
        keys: &[K],
    ) -> CoreResult<(Self, PagedDictBuildStats)> {
        let store = Arc::clone(pool.store());
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let overflow_chain = scratch.create_chain(config.overflow_page)?;
        let dict_chain = scratch.create_chain(config.dict_page)?;

        // Compressed-domain dictionary chain: train a symbol table on a key
        // sample and keep it only when it actually pays (the helper chains
        // always stay raw so routing comparisons never decode).
        let (fsst, fsst_per_mille) = train_dict_fsst(keys);
        // Stamp the dictionary chain with its codec before its first page
        // (the store sizes the descriptor region to it), so format-2 chain
        // files are self-describing.
        let codec = match &fsst {
            Some(table) => ChainCodec { kind: CodecKind::Fsst, params: table.serialize() },
            None => ChainCodec::plain(),
        };
        store.set_chain_descriptor(dict_chain, &codec.serialize())?;

        // Off-page allocator: splits a byte tail into overflow-page-sized
        // pieces, one page each. Errors escape via the side channel because
        // the block builder's allocator signature is infallible.
        let overflow_err: std::cell::RefCell<Option<StorageError>> = std::cell::RefCell::new(None);
        let overflow_pages = std::cell::Cell::new(0u64);
        let mut alloc_overflow = |bytes: &[u8]| -> Vec<OverflowRef> {
            let mut refs = Vec::new();
            for piece in bytes.chunks(config.overflow_page) {
                match store.append_page(overflow_chain, piece) {
                    Ok(page_no) => {
                        overflow_pages.set(overflow_pages.get() + 1);
                        refs.push(OverflowRef { page_no, len: piece.len() as u32 });
                    }
                    Err(e) => {
                        *overflow_err.borrow_mut() = Some(e);
                        return refs;
                    }
                }
            }
            refs
        };

        // Assemble dictionary pages block by block.
        let mut page_writer = PageAssembler::new(config.dict_page);
        let mut separators: Vec<Vec<u8>> = Vec::new();
        let mut page_last_vids: Vec<u64> = Vec::new();
        let mut dict_pages = 0u64;
        let block_budget = config.dict_page - PAGE_HEADER - 4;
        let mut enc = Vec::new();
        for group in keys.chunks(BLOCK_CAP) {
            let mut b = ValueBlockBuilder::new();
            for k in group {
                let k = k.as_ref();
                match &fsst {
                    Some(table) => {
                        enc.clear();
                        table.encode_into(k, &mut enc);
                        let inline = choose_inline(&b, &enc, block_budget, config)?;
                        // Compressed bytes are not memcmp-ordered, so skip
                        // the builder's order assertion; slot order still
                        // follows the raw key order.
                        b.push_unordered(&enc, inline, &mut alloc_overflow);
                    }
                    None => {
                        let inline = choose_inline(&b, k, block_budget, config)?;
                        b.push(k, inline, &mut alloc_overflow);
                    }
                }
                if let Some(e) = overflow_err.borrow_mut().take() {
                    return Err(CoreError::Storage(e));
                }
            }
            let block = b.finish();
            if let Some(full_page) = page_writer.push_block(&block)? {
                let (bytes, first_idx, count) = full_page;
                store.append_page(dict_chain, &bytes)?;
                dict_pages += 1;
                page_last_vids.push(first_idx + count - 1);
                separators.push(keys[(first_idx + count - 1) as usize].as_ref().to_vec());
            }
        }
        if let Some((bytes, first_idx, count)) = page_writer.flush()? {
            store.append_page(dict_chain, &bytes)?;
            dict_pages += 1;
            page_last_vids.push(first_idx + count - 1);
            separators.push(keys[(first_idx + count - 1) as usize].as_ref().to_vec());
        }

        // The helper chains of a dictionary of more than one page; one page
        // keeps its one separator in memory alone.
        let (helpers, value_helper_page_last) = if dict_pages > 1 {
            // ipDict_ValueId: plain little-endian u64 arrays.
            let vid_helper_chain = scratch.create_chain(config.helper_page)?;
            let epp = config.helper_page / 8;
            let mut vid_helper_page_last = Vec::new();
            let mut vid_helper_pages = 0u64;
            for page_vids in page_last_vids.chunks(epp.max(1)) {
                // `chunks` never yields an empty slice, but make that local.
                let Some(&last) = page_vids.last() else { continue };
                let mut bytes = Vec::with_capacity(page_vids.len() * 8);
                for &v in page_vids {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                store.append_page(vid_helper_chain, &bytes)?;
                vid_helper_pages += 1;
                vid_helper_page_last.push(last);
            }

            // ipDict_Value: separator blocks, same page format as the dictionary.
            let value_helper_chain = scratch.create_chain(config.helper_page)?;
            let mut sep_writer = PageAssembler::new(config.helper_page);
            let mut value_helper_page_last: Vec<Vec<u8>> = Vec::new();
            let mut value_helper_pages = 0u64;
            let sep_block_budget = config.helper_page - PAGE_HEADER - 4;
            for group in separators.chunks(BLOCK_CAP) {
                let mut b = ValueBlockBuilder::new();
                for s in group {
                    let inline = choose_inline(&b, s, sep_block_budget, config)?;
                    b.push(s, inline, &mut alloc_overflow);
                    if let Some(e) = overflow_err.borrow_mut().take() {
                        return Err(CoreError::Storage(e));
                    }
                }
                let block = b.finish();
                if let Some((bytes, first_idx, count)) = sep_writer.push_block(&block)? {
                    store.append_page(value_helper_chain, &bytes)?;
                    value_helper_pages += 1;
                    value_helper_page_last
                        .push(separators[(first_idx + count - 1) as usize].clone());
                }
            }
            if let Some((bytes, first_idx, count)) = sep_writer.flush()? {
                store.append_page(value_helper_chain, &bytes)?;
                value_helper_pages += 1;
                value_helper_page_last.push(separators[(first_idx + count - 1) as usize].clone());
            }
            let helpers = Helpers {
                vid_chain: ChainRef {
                    chain: vid_helper_chain,
                    pages: vid_helper_pages,
                    page_size: config.helper_page,
                },
                value_chain: ChainRef {
                    chain: value_helper_chain,
                    pages: value_helper_pages,
                    page_size: config.helper_page,
                },
                vid_page_last: vid_helper_page_last,
            };
            (Some(helpers), value_helper_page_last)
        } else {
            (None, separators)
        };
        let (vid_helper_pages, value_helper_pages) =
            helpers.as_ref().map_or((0, 0), |h| (h.vid_chain.pages, h.value_chain.pages));

        // Per-codec build-size metrics.
        let registry = pool.registry();
        let label = pool.metrics_label();
        registry
            .counter_labeled(names::POOL_PAGE_BYTES, &[("pool", label), ("codec", codec.kind.label())])
            .add(dict_pages * config.dict_page as u64
                + overflow_pages.get() * config.overflow_page as u64);
        registry
            .counter_labeled(
                names::POOL_PAGE_BYTES,
                &[("pool", label), ("codec", CodecKind::Plain.label())],
            )
            .add((vid_helper_pages + value_helper_pages) * config.helper_page as u64);
        registry.gauge_labeled(names::DICT_FSST_RATIO, &[("pool", label)]).set(fsst_per_mille);

        let blocks = Blocks {
            cardinality: keys.len() as u64,
            dict_chain: ChainRef { chain: dict_chain, pages: dict_pages, page_size: config.dict_page },
            overflow_chain: ChainRef {
                chain: overflow_chain,
                pages: overflow_pages.get(),
                page_size: config.overflow_page,
            },
            helpers,
            value_helper_page_last,
            dict_pages,
            fsst,
            helpers_preloaded: AtomicBool::new(false),
            pinned_helpers: crate::sync::Mutex::with_rank(Vec::new(), crate::sync::LockRank::CoreColumn),
        };
        let stats = PagedDictBuildStats {
            dict_pages,
            overflow_pages: overflow_pages.get(),
            vid_helper_pages,
            value_helper_pages,
        };
        scratch.commit();
        Ok((blocks, stats))
    }

    /// Appends the checkpoint encoding (after the dictionary's layout tag):
    /// the chain references plus the always-resident helper residue, the
    /// helper chains behind a presence byte.
    fn write_meta(&self, w: &mut crate::meta::MetaWriter) {
        w.u64(self.cardinality);
        crate::meta::write_chain(w, &self.dict_chain);
        crate::meta::write_chain(w, &self.overflow_chain);
        match &self.helpers {
            None => w.u8(0),
            Some(h) => {
                w.u8(1);
                crate::meta::write_chain(w, &h.vid_chain);
                crate::meta::write_chain(w, &h.value_chain);
                w.u64s(&h.vid_page_last);
            }
        }
        w.u64(self.value_helper_page_last.len() as u64);
        for k in &self.value_helper_page_last {
            w.bytes(k);
        }
        w.u64(self.dict_pages);
        match &self.fsst {
            Some(table) => w.bytes(&table.serialize()),
            None => w.bytes(&[]),
        }
    }

    /// Reads back what [`Blocks::write_meta`] wrote under layout tag
    /// `codec`; refuses a blob whose symbol table disagrees with the tag.
    fn read_meta(r: &mut crate::meta::MetaReader<'_>, codec: CodecKind) -> CoreResult<Self> {
        let cardinality = r.u64()?;
        let dict_chain = crate::meta::read_chain(r)?;
        let overflow_chain = crate::meta::read_chain(r)?;
        let helpers = match r.u8()? {
            0 => None,
            1 => Some(Helpers {
                vid_chain: crate::meta::read_chain(r)?,
                value_chain: crate::meta::read_chain(r)?,
                vid_page_last: r.u64s()?,
            }),
            t => {
                return Err(CoreError::Storage(StorageError::corrupt(format!(
                    "dictionary chain {}: unknown helper tag {t}",
                    dict_chain.chain.0
                ))))
            }
        };
        let n = r.read_len()?;
        let mut value_helper_page_last = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            value_helper_page_last.push(r.bytes()?);
        }
        let dict_pages = r.u64()?;
        if helpers.is_some() != (dict_pages > 1) {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "dictionary chain {}: {dict_pages} pages {} helper chains",
                dict_chain.chain.0,
                if helpers.is_some() { "with" } else { "without" }
            ))));
        }
        let fsst_bytes = r.bytes()?;
        if fsst_bytes.is_empty() != (codec == CodecKind::Plain) {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "dictionary chain {}: codec byte {codec:?} disagrees with its symbol table",
                dict_chain.chain.0
            ))));
        }
        let fsst = if fsst_bytes.is_empty() {
            None
        } else {
            Some(Arc::new(SymbolTable::deserialize(&fsst_bytes)?))
        };
        Ok(Blocks {
            cardinality,
            dict_chain,
            overflow_chain,
            helpers,
            value_helper_page_last,
            dict_pages,
            fsst,
            helpers_preloaded: AtomicBool::new(false),
            pinned_helpers: crate::sync::Mutex::with_rank(Vec::new(), crate::sync::LockRank::CoreColumn),
        })
    }

    fn heap_bytes(&self) -> usize {
        self.helpers.as_ref().map_or(0, |h| h.vid_page_last.len() * 8)
            + self
                .value_helper_page_last
                .iter()
                .map(|k| k.capacity() + std::mem::size_of::<Vec<u8>>())
                .sum::<usize>()
    }

    /// True when finding `vid`'s dictionary page takes a look at an
    /// `ipDict_ValueId` helper page: when the dictionary has more than one
    /// page, and so helper chains. A one-page dictionary's page is page 0.
    pub(crate) fn routes_by_helper(&self) -> bool {
        self.helpers.is_some()
    }

    /// The helper chains of a dictionary that routes by them.
    fn helpers(&self) -> &Helpers {
        // lint: allow(unwrap) invariant: callers route by helper only when it exists (`read_meta` refuses pages and helpers that disagree)
        self.helpers.as_ref().expect("only a dictionary with helper chains routes by them")
    }

    /// Routes a (bounds-checked) vid to the `ipDict_ValueId` helper page
    /// holding its entry, from the in-memory residue alone. Only for a
    /// dictionary that [routes by helper](Blocks::routes_by_helper).
    pub(crate) fn vid_helper_page(&self, vid: u64) -> u64 {
        let last = &self.helpers().vid_page_last;
        let hp = last.partition_point(|&last| last < vid);
        debug_assert!(hp < last.len(), "vid bounds checked by caller");
        hp as u64
    }

    /// The store address of `ipDict_ValueId` helper page `hp`.
    pub(crate) fn vid_helper_key(&self, hp: u64) -> PageKey {
        PageKey::new(self.helpers().vid_chain.chain, hp)
    }

    /// Looks `vid` up on its pinned helper page `hp`: the number of the
    /// dictionary page storing it.
    pub(crate) fn dict_page_on_helper(&self, helper: &[u8], hp: u64, vid: u64) -> u64 {
        let epp = self.helpers().vid_chain.page_size / 8;
        let start = hp as usize * epp;
        let count = (self.dict_pages as usize - start).min(epp);
        // Binary search the little-endian u64 array for the first last-vid
        // >= vid.
        let read = |i: usize| -> u64 { crate::util::le_u64(&helper[i * 8..i * 8 + 8]) };
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if read(mid) < vid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert!(lo < count, "vid {vid} beyond the last dictionary page");
        (start + lo) as u64
    }

    /// The store address of dictionary page `dict_page`.
    pub(crate) fn dict_page_key(&self, dict_page: u64) -> PageKey {
        PageKey::new(self.dict_chain.chain, dict_page)
    }

    /// The store address of the overflow page `r` points at.
    pub(crate) fn overflow_key(&self, r: &OverflowRef) -> PageKey {
        PageKey::new(self.overflow_chain.chain, r.page_no)
    }

    /// Opens the pinned dictionary page `dict_page` for entry reads.
    pub(crate) fn page_view<'a>(
        &self,
        guard: &'a PageGuard,
        dict_page: u64,
    ) -> CoreResult<DictPageView<'a>> {
        Ok(DictPageView { guard, transient: page_transient(guard)?, dict_page })
    }

    /// Turns the fully assembled entry in `bytes` (of length `total`) into
    /// the raw key, in place: checks the length, and when the chain is
    /// FSST-coded decompresses into `scratch` and swaps the buffers — a
    /// caller that reuses both allocates for neither codec.
    pub(crate) fn finish_key(
        &self,
        bytes: &mut Vec<u8>,
        total: u64,
        scratch: &mut Vec<u8>,
    ) -> CoreResult<()> {
        if bytes.len() as u64 != total {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "materialized {} bytes, expected {total}",
                bytes.len()
            ))));
        }
        if let Some(table) = &self.fsst {
            scratch.clear();
            table.decode_into(bytes, scratch)?;
            std::mem::swap(bytes, scratch);
        }
        Ok(())
    }

    /// `findByValue` (Alg. 2).
    fn find(&self, key: &[u8], cache: &mut HandleCache) -> CoreResult<DictLookup> {
        if self.cardinality == 0 {
            return Ok(Err(0));
        }
        // Route to the value-helper page: first page whose last separator is
        // >= key (the in-memory residue has one entry per helper page).
        let hp = self.value_helper_page_last.partition_point(|last| last.as_slice() < key);
        if hp == self.value_helper_page_last.len() {
            // Greater than every separator, hence every dictionary value.
            return Ok(Err(self.cardinality));
        }
        let dict_page = if self.routes_by_helper() {
            self.preload_helpers(cache)?;
            // Find the first separator >= key on that helper page; the
            // separator's global index *is* the dictionary page number.
            let guard = cache.pin(PageKey::new(self.helpers().value_chain.chain, hp as u64))?;
            let t = page_transient(&guard)?;
            // Helper separators are always raw.
            let (block_no, pos) = self.lower_bound_on_page(&guard, t, key, None, cache)?;
            match pos {
                Ok(i) | Err(i) => t.first_idx + (block_no * BLOCK_CAP + i) as u64,
            }
        } else {
            0
        };
        debug_assert!(dict_page < self.dict_pages);
        // Search the single dictionary page — the same search, told that the
        // entries it orders the raw probe against are FSST-compressed when
        // the chain carries a symbol table.
        let guard = cache.pin(self.dict_page_key(dict_page))?;
        let t = page_transient(&guard)?;
        let (block_no, pos) =
            self.lower_bound_on_page(&guard, t, key, self.fsst.as_deref(), cache)?;
        let global = |i: usize| t.first_idx + (block_no * BLOCK_CAP + i) as u64;
        Ok(match pos {
            Ok(i) => Ok(global(i)),
            Err(i) => Err(global(i)),
        })
    }

    /// Reads the whole dictionary chain directly from `store`, handing
    /// every key to `push` in order: one walk per block, off-page pieces
    /// read from the store as they come, FSST decoded into one buffer.
    fn read_all(
        &self,
        store: &dyn PageStore,
        push: &mut dyn FnMut(&[u8]) -> CoreResult<()>,
    ) -> CoreResult<()> {
        let (mut acc, mut raw) = (Vec::new(), Vec::new());
        for p in 0..self.dict_pages {
            let page = store.read_page(self.dict_page_key(p))?;
            let (t, _) = PageTransient::parse(&page)?;
            for &off in &t.offsets {
                let mut walk = ValueBlockView::parse(&page[off as usize..])?.walk();
                while let Some(entry) = walk.next_into(&mut acc)? {
                    for r in entry.offpage_refs() {
                        append_piece(&mut acc, &r, &store.read_page(self.overflow_key(&r))?)?;
                    }
                    match &self.fsst {
                        Some(table) => {
                            raw.clear();
                            table.decode_into(&acc, &mut raw)?;
                            push(&raw)?;
                        }
                        None => push(&acc)?,
                    }
                }
            }
        }
        Ok(())
    }

    /// Finds the block and in-block position of the first entry `>= key` on
    /// a page — helper page or dictionary page: binary search over blocks by
    /// their first entry, compared where it lies, then the block's own
    /// search. Returns `(block_no, Ok(slot))` on an exact hit and
    /// `(block_no, Err(slot))` for the insertion point. `table` is the
    /// symbol table when the page's entries are FSST-compressed.
    fn lower_bound_on_page(
        &self,
        page: &PageGuard,
        t: &PageTransient,
        key: &[u8],
        table: Option<&SymbolTable>,
        cache: &mut HandleCache,
    ) -> CoreResult<(usize, Result<usize, usize>)> {
        let block_at = |no: usize| ValueBlockView::parse(&page[t.offsets[no] as usize..]);
        let mut acc = std::mem::take(&mut cache.acc);
        let found = self.with_overflow_fetch(cache, |fetch| {
            // Rightmost block whose first entry is <= key.
            let mut lo = 0usize;
            let mut hi = t.offsets.len(); // exclusive
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                match block_at(mid)?.cmp_first(key, table, &mut acc, fetch)? {
                    std::cmp::Ordering::Less => lo = mid,
                    std::cmp::Ordering::Equal => return Ok((mid, Ok(0))),
                    std::cmp::Ordering::Greater => hi = mid,
                }
            }
            let block = block_at(lo)?;
            Ok(match block.lower_bound(key, table, &mut acc, fetch)? {
                // Key falls past this block: insertion is the next block's
                // first slot.
                Err(i) if i == block.len() && lo + 1 < t.offsets.len() => (lo + 1, Err(0)),
                pos => (lo, pos),
            })
        });
        cache.acc = acc;
        found
    }

    fn helper_pages(&self) -> impl Iterator<Item = PageKey> + '_ {
        let chains = self.helpers.iter().flat_map(|h| [&h.vid_chain, &h.value_chain]);
        chains.flat_map(|c| (0..c.pages).map(|p| PageKey::new(c.chain, p)))
    }

    /// Pre-loads both helper chains on the first access (§3.2.3) with one
    /// batched pin — the pages of a chain are consecutive, so each chain
    /// arrives in ranged reads. The pages become pool-resident (and
    /// individually evictable once the cache lets go of them).
    fn preload_helpers(&self, cache: &mut HandleCache) -> CoreResult<()> {
        let pages = self.preload_pages();
        if !pages.is_empty() {
            cache.pin_all(&pages)?;
            self.preload_landed();
        }
        Ok(())
    }

    /// The pages to pre-load before this dictionary's helpers are first
    /// read — every page of both helper chains — and nothing once a preload
    /// has landed ([`Blocks::preload_landed`]) or when the helpers are never
    /// read at all.
    pub(crate) fn preload_pages(&self) -> Vec<PageKey> {
        if self.helpers_preloaded.load(Ordering::Relaxed) {
            return Vec::new();
        }
        self.helper_pages().collect()
    }

    /// Records that the pages of [`Blocks::preload_pages`] were pinned. Only
    /// then: a preload that failed is due again on the next access.
    pub(crate) fn preload_landed(&self) {
        self.helpers_preloaded.store(true, Ordering::Relaxed);
    }

    /// Runs `f` with an overflow-piece fetcher that pins pages through the
    /// handle cache, translating I/O failures out of the encoding layer.
    fn with_overflow_fetch<T>(
        &self,
        cache: &mut HandleCache,
        f: impl FnOnce(
            &mut dyn FnMut(&OverflowRef) -> payg_encoding::Result<Vec<u8>>,
        ) -> payg_encoding::Result<T>,
    ) -> CoreResult<T> {
        let chain = self.overflow_chain.chain;
        let mut io_err: Option<CoreError> = None;
        let mut fetch = |r: &OverflowRef| -> payg_encoding::Result<Vec<u8>> {
            match cache.pin(PageKey::new(chain, r.page_no)) {
                Ok(g) => Ok(g[..r.len as usize].to_vec()),
                Err(e) => {
                    io_err = Some(e);
                    Err(EncodingError::CorruptBlock { reason: "i/o fetching overflow piece".into() })
                }
            }
        };
        match f(&mut fetch) {
            Ok(v) => Ok(v),
            Err(e) => Err(io_err.take().unwrap_or(CoreError::Encoding(e))),
        }
    }
}

/// The layout tag a checkpoint leads a dictionary's metadata with: its
/// chain's codec byte.
fn codec_from_tag(tag: u8) -> Option<CodecKind> {
    [CodecKind::Plain, CodecKind::Fsst, CodecKind::Array].into_iter().find(|&k| k as u8 == tag)
}

impl PagedDictionary {
    /// Persists `keys` — the sorted, strictly increasing order-preserving
    /// keys of a column of `data_type` — and returns the reader plus build
    /// statistics. The type picks the layout: fixed-width (numeric) keys
    /// become pages of sorted keys, strings the paper's value-block
    /// structure.
    pub fn build<K: AsRef<[u8]>>(
        pool: &BufferPool,
        config: &PageConfig,
        data_type: DataType,
        keys: &[K],
    ) -> CoreResult<(Self, PagedDictBuildStats)> {
        debug_assert!(
            keys.windows(2).all(|w| w[0].as_ref() < w[1].as_ref()),
            "dictionary keys must be strictly increasing"
        );
        let (layout, stats) = match data_type.key_width() {
            Some(width) => {
                let array = ArrayPages::build(pool, config, width, keys)?;
                let stats =
                    PagedDictBuildStats { dict_pages: array.chain().pages, ..Default::default() };
                (Layout::Array(array), stats)
            }
            None => {
                let (blocks, stats) = Blocks::build(pool, config, keys)?;
                (Layout::Blocks(blocks), stats)
            }
        };
        Ok((PagedDictionary { pool: pool.clone(), layout }, stats))
    }

    /// Serializes the dictionary's metadata for a catalog checkpoint: the
    /// layout tag (the chain's codec byte), then the layout's chain
    /// references and always-resident residue.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let mut w = crate::meta::MetaWriter::new();
        w.u8(self.codec_kind() as u8);
        match &self.layout {
            Layout::Blocks(b) => b.write_meta(&mut w),
            Layout::Array(a) => a.write_meta(&mut w),
        }
        w.finish()
    }

    /// Reopens the dictionary of a column of `data_type` from checkpointed
    /// metadata over `pool`'s store. Refuses metadata in the layout of
    /// another type.
    pub fn open(pool: &BufferPool, data_type: DataType, bytes: &[u8]) -> CoreResult<Self> {
        let mut r = crate::meta::MetaReader::new(bytes);
        let tag = r.u8()?;
        let layout = match (codec_from_tag(tag), data_type.key_width()) {
            (Some(CodecKind::Array), Some(width)) => {
                Layout::Array(ArrayPages::read_meta(&mut r, width)?)
            }
            (Some(codec @ (CodecKind::Plain | CodecKind::Fsst)), None) => {
                Layout::Blocks(Blocks::read_meta(&mut r, codec)?)
            }
            _ => {
                return Err(CoreError::Storage(StorageError::corrupt(format!(
                    "catalog: dictionary codec byte {tag} on a {data_type:?} column"
                ))))
            }
        };
        r.expect_end()?;
        Ok(PagedDictionary { pool: pool.clone(), layout })
    }

    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> u64 {
        match &self.layout {
            Layout::Blocks(b) => b.cardinality,
            Layout::Array(a) => a.cardinality(),
        }
    }

    /// The store chain ids backing this dictionary, labeled by role — for
    /// attributing traced page events back to the structure that owns them.
    /// An array dictionary is its `dict` chain alone; a one-page string
    /// dictionary has no helper chains.
    pub fn chains(&self) -> Vec<(&'static str, u64)> {
        match &self.layout {
            Layout::Blocks(b) => {
                let mut chains = vec![
                    ("dict", b.dict_chain.chain.0),
                    ("dict-overflow", b.overflow_chain.chain.0),
                ];
                if let Some(h) = &b.helpers {
                    chains.push(("dict-vid-helper", h.vid_chain.chain.0));
                    chains.push(("dict-value-helper", h.value_chain.chain.0));
                }
                chains
            }
            Layout::Array(a) => vec![("dict", a.chain().chain.0)],
        }
    }

    /// The codec the dictionary chain is stored in.
    pub fn codec_kind(&self) -> CodecKind {
        match &self.layout {
            Layout::Blocks(b) if b.fsst.is_some() => CodecKind::Fsst,
            Layout::Blocks(_) => CodecKind::Plain,
            Layout::Array(_) => CodecKind::Array,
        }
    }

    /// Heap bytes of the always-resident metadata (the in-memory residue of
    /// the hybrid representation).
    pub fn meta_heap_bytes(&self) -> usize {
        match &self.layout {
            Layout::Blocks(b) => b.heap_bytes(),
            Layout::Array(a) => a.heap_bytes(),
        }
    }

    /// Errors unless `vid` is a valid identifier of this dictionary.
    pub(crate) fn check_vid(&self, vid: u64) -> CoreResult<()> {
        let cardinality = self.cardinality();
        if vid >= cardinality {
            return Err(CoreError::VidOutOfBounds { vid, cardinality });
        }
        Ok(())
    }

    /// `findByValue` (Alg. 2): finds the vid encoding `key`, or the
    /// insertion point on a miss.
    pub fn find(&self, key: &[u8], cache: &mut HandleCache) -> CoreResult<DictLookup> {
        match &self.layout {
            Layout::Blocks(b) => b.find(key, cache),
            Layout::Array(a) => match a.route(key) {
                Some(page) => a.find_on(&cache.pin(a.page_key(page))?, page, key),
                // Above every key.
                None => Ok(Err(a.cardinality())),
            },
        }
    }

    /// Reads the whole dictionary directly from the store — no buffer pool,
    /// no paged resources — handing every key to `push` in order as the
    /// chain yields it. This is the full-column-load path of default (fully
    /// resident) columns.
    fn read_all_direct(&self, mut push: impl FnMut(&[u8]) -> CoreResult<()>) -> CoreResult<()> {
        let store = self.pool.store().as_ref();
        let mut count = 0u64;
        let mut push = |key: &[u8]| {
            count += 1;
            push(key)
        };
        match &self.layout {
            Layout::Blocks(b) => b.read_all(store, &mut push)?,
            Layout::Array(a) => a.read_all(store, &mut push)?,
        }
        if count != self.cardinality() {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "dictionary chain materialized {count} keys, expected {}",
                self.cardinality()
            ))));
        }
        Ok(())
    }

    /// The whole dictionary read directly from the store into the
    /// uncompressed arena a merge reads.
    pub fn materialize_all_direct(&self) -> CoreResult<InMemoryDict> {
        let mut keys = InMemoryDict::with_capacity(self.cardinality() as usize);
        self.read_all_direct(|key| keys.push(key))?;
        keys.shrink_to_fit();
        Ok(keys)
    }

    /// The whole dictionary read directly from the store into the
    /// front-coded form a default column's image holds, key by key.
    pub fn front_coded_all_direct(&self) -> CoreResult<FrontCodedDict> {
        let mut keys = FrontCodedBuilder::with_capacity(self.cardinality() as usize);
        self.read_all_direct(|key| keys.push(key))?;
        Ok(keys.finish())
    }

    /// Pins every page of both helper chains for the dictionary's lifetime
    /// — the "always loaded" helper-dictionary variant the paper's §6.2.2
    /// recommends after observing the Fig. 6 burst. Pinned pages are immune
    /// to eviction until [`PagedDictionary::unpin_helpers`] (or drop). An
    /// array dictionary has no helpers: nothing is pinned.
    pub fn pin_helpers(&self) -> CoreResult<()> {
        let Layout::Blocks(b) = &self.layout else { return Ok(()) };
        let mut pins = b.pinned_helpers.lock();
        if !pins.is_empty() {
            return Ok(());
        }
        for key in b.helper_pages() {
            pins.push(self.pool.pin(key).map_err(CoreError::Storage)?);
        }
        b.preload_landed();
        Ok(())
    }

    /// Releases the permanent helper pins (pages become evictable again).
    pub fn unpin_helpers(&self) {
        if let Layout::Blocks(b) = &self.layout {
            b.pinned_helpers.lock().clear();
        }
    }
}

/// The block-offset vector of a pinned dictionary or helper page, built on
/// the first read of the page's load.
fn page_transient(guard: &PageGuard) -> CoreResult<&PageTransient> {
    guard.transient_or_build(PageTransient::parse).map_err(CoreError::Storage)
}

/// Trains an FSST symbol table on a sample of the (sorted) dictionary keys
/// and keeps it only when the sampled compression ratio clears
/// [`crate::config::FSST_SKIP_RATIO`]. Returns the table (when kept) and the
/// sampled ratio in per-mille, where 1000 means "evaluated but not applied".
fn train_dict_fsst<K: AsRef<[u8]>>(keys: &[K]) -> (Option<Arc<SymbolTable>>, u64) {
    if keys.is_empty() {
        return (None, 1000);
    }
    // Up to ~1024 keys spread evenly over the sorted order, so the sample
    // sees every key region rather than one lexicographic neighborhood.
    let step = (keys.len() / 1024).max(1);
    let sample: Vec<&[u8]> = keys.iter().step_by(step).map(|k| k.as_ref()).collect();
    let table = SymbolTable::train(&sample);
    let ratio = table.compression_ratio(&sample);
    if ratio < crate::config::FSST_SKIP_RATIO {
        let per_mille = (ratio * 1000.0).round().clamp(0.0, 1000.0) as u64;
        (Some(Arc::new(table)), per_mille)
    } else {
        (None, 1000)
    }
}

/// Picks the on-page inline budget for the next key of a block so that the
/// full 16-entry block is guaranteed to fit one page: the remaining block
/// budget bounds the entry, spilling more bytes off-page when needed. Only
/// impossible configurations (a page too small for even a fully spilled
/// entry) are rejected.
fn choose_inline(
    b: &ValueBlockBuilder,
    key: &[u8],
    block_budget: usize,
    config: &PageConfig,
) -> CoreResult<usize> {
    const FIXED: usize = 7; // prefix_len + onpage_len + flags
    const SPILL_FIXED: usize = 10; // nptr + total_len
    const PTR: usize = 12;
    const MIN_SPILLED: usize = 7 + 10 + 12; // inline-0, one-pointer entry
    let suffix_len = b.next_suffix_len(key);
    // Bytes already committed, including any restart-header growth this
    // entry triggers (projected = committed + FIXED + suffix).
    let committed = b.projected_len(key) - FIXED - suffix_len;
    // Reserve one minimal spilled entry (plus a possible restart-offset
    // slot) for every remaining block slot, so a large value early in the
    // block can never starve the later ones.
    let slots_after = BLOCK_CAP - 1 - b.len();
    let remaining = block_budget
        .saturating_sub(committed)
        .saturating_sub(slots_after * (MIN_SPILLED + 2));
    // Fully inline when the configured limit allows it and it fits.
    if suffix_len <= config.inline_limit && FIXED + suffix_len <= remaining {
        return Ok(suffix_len.max(1));
    }
    // Spill: entry costs FIXED + inline + SPILL_FIXED + PTR * nptr.
    let mut inline = config
        .inline_limit
        .min(suffix_len.saturating_sub(1))
        .min(remaining.saturating_sub(FIXED + SPILL_FIXED + PTR));
    loop {
        let tail = suffix_len - inline;
        let nptr = tail.div_ceil(config.overflow_page).max(1);
        let need = FIXED + inline + SPILL_FIXED + PTR * nptr;
        if need <= remaining {
            return Ok(inline);
        }
        let over = need - remaining;
        if inline >= over {
            inline -= over;
        } else {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "dictionary page of {} bytes cannot hold a 16-entry block: a {}-byte value \
                 needs {nptr} overflow pointers with {}-byte overflow pages; raise dict_page \
                 or overflow_page",
                config.dict_page,
                key.len(),
                config.overflow_page
            ))));
        }
    }
}

/// Assembles dictionary-format pages from finished blocks.
struct PageAssembler {
    page_size: usize,
    blocks: Vec<Vec<u8>>,
    bytes_used: usize,
    first_idx: u64,
    entries: u64,
    next_idx: u64,
}

const PAGE_HEADER: usize = 12; // first_idx u64 + nblocks u32

impl PageAssembler {
    fn new(page_size: usize) -> Self {
        PageAssembler {
            page_size,
            blocks: Vec::new(),
            bytes_used: PAGE_HEADER,
            first_idx: 0,
            entries: 0,
            next_idx: 0,
        }
    }

    /// Adds a block; returns a completed page `(bytes, first_idx, count)`
    /// when the block did not fit the current page.
    fn push_block(&mut self, block: &[u8]) -> CoreResult<Option<(Vec<u8>, u64, u64)>> {
        let entries = ValueBlockView::parse(block)?.len() as u64;
        let extra = 4 + block.len(); // offset slot + payload
        let mut flushed = None;
        if !self.blocks.is_empty() && self.bytes_used + extra > self.page_size {
            flushed = Some(self.assemble());
        }
        if PAGE_HEADER + extra > self.page_size {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "value block of {} bytes exceeds page size {}",
                block.len(),
                self.page_size
            ))));
        }
        if self.blocks.is_empty() {
            self.first_idx = self.next_idx;
            self.bytes_used = PAGE_HEADER;
            self.entries = 0;
        }
        self.blocks.push(block.to_vec());
        self.bytes_used += extra;
        self.entries += entries;
        self.next_idx += entries;
        Ok(flushed)
    }

    /// Flushes the trailing partial page, if any.
    fn flush(&mut self) -> CoreResult<Option<(Vec<u8>, u64, u64)>> {
        if self.blocks.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.assemble()))
    }

    fn assemble(&mut self) -> (Vec<u8>, u64, u64) {
        let nblocks = self.blocks.len();
        let mut page = Vec::with_capacity(self.bytes_used);
        page.extend_from_slice(&self.first_idx.to_le_bytes());
        page.extend_from_slice(&(nblocks as u32).to_le_bytes());
        let mut off = (PAGE_HEADER + nblocks * 4) as u32;
        for b in &self.blocks {
            page.extend_from_slice(&off.to_le_bytes());
            off += b.len() as u32;
        }
        for b in &self.blocks {
            page.extend_from_slice(b);
        }
        let result = (page, self.first_idx, self.entries);
        self.blocks.clear();
        self.bytes_used = PAGE_HEADER;
        self.entries = 0;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payg_resman::ResourceManager;
    use payg_storage::{ChainId, MemStore};

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
    }

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("customer-{i:06}").into_bytes()).collect()
    }

    fn build(keys: &[Vec<u8>], config: &PageConfig) -> (BufferPool, PagedDictionary, PagedDictBuildStats) {
        let pool = pool();
        let (d, s) = PagedDictionary::build(&pool, config, DataType::Varchar, keys).unwrap();
        (pool, d, s)
    }

    /// The dictionary's chain, read back entry by entry by the store-direct
    /// decoder, is `ks`.
    fn assert_reads_back(dict: &PagedDictionary, ks: &[Vec<u8>]) {
        let keys = dict.materialize_all_direct().unwrap();
        assert!(keys.keys().eq(ks.iter().map(Vec::as_slice)), "the chain reads back its keys");
    }

    /// A page-loadable string column with one row per key of `ks`, in
    /// descending key order — so it stores a data vector: row `r` holds the
    /// key of identifier `ks.len() - 1 - r` — on tiny pages over a fresh
    /// pool that holds none of its pages.
    fn paged_column(ks: &[Vec<u8>]) -> (BufferPool, crate::Column) {
        let pool = pool();
        let values: Vec<crate::Value> = ks
            .iter()
            .rev()
            .map(|k| crate::Value::from_key(DataType::Varchar, k).unwrap())
            .collect();
        let column = crate::ColumnBuilder::new(DataType::Varchar)
            .policy(crate::LoadPolicy::PageLoadable)
            .build(&pool, &PageConfig::tiny(), &values)
            .unwrap()
            .column;
        assert_eq!(pool.resident_pages(), 0);
        (pool, column)
    }

    #[test]
    fn roundtrip_small_pages_many_chains() {
        let ks = keys(500);
        let (pool, dict, stats) = build(&ks, &PageConfig::tiny());
        assert!(stats.dict_pages > 3, "tiny pages must force a multi-page chain");
        assert!(stats.vid_helper_pages >= 1);
        assert!(stats.value_helper_pages >= 1);
        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64), "find {vid}");
        }
        assert_reads_back(&dict, &ks);
    }

    #[test]
    fn misses_report_insertion_points() {
        let ks = keys(100);
        let (pool, dict, _) = build(&ks, &PageConfig::tiny());
        let mut cache = HandleCache::new(pool.clone());
        assert_eq!(dict.find(b"customer-000050x", &mut cache).unwrap(), Err(51));
        assert_eq!(dict.find(b"aaa", &mut cache).unwrap(), Err(0));
        assert_eq!(dict.find(b"zzz", &mut cache).unwrap(), Err(100));
        // Between two keys.
        assert_eq!(dict.find(b"customer-000000a", &mut cache).unwrap(), Err(1));
    }

    #[test]
    fn large_values_spill_and_materialize() {
        let mut ks: Vec<Vec<u8>> = Vec::new();
        for i in 0..40 {
            if i % 5 == 0 {
                // A value much larger than the tiny 256-byte dict page.
                let mut big = format!("big-{i:04}-").into_bytes();
                big.extend(std::iter::repeat_n(b'x', 700 + i));
                ks.push(big);
            } else {
                ks.push(format!("key-{i:04}").into_bytes());
            }
        }
        ks.sort();
        ks.dedup();
        // Big entries carry off-page pointer lists; a 16-entry block of them
        // needs a roomier page than tiny()'s 256 bytes.
        let mut config = PageConfig::tiny();
        config.dict_page = 2048;
        let (pool, dict, stats) = build(&ks, &config);
        assert!(stats.overflow_pages > 0, "large values must spill off-page");
        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64));
        }
        assert_reads_back(&dict, &ks);
    }

    #[test]
    fn lookup_memory_footprint_is_piecewise() {
        let ks = keys(2000);
        let (pool, dict, stats) = build(&ks, &PageConfig::tiny());
        // One lookup loads: helper preload + one dict page (+ overflow).
        let mut cache = HandleCache::new(pool.clone());
        let _ = dict.find(&ks[0], &mut cache).unwrap();
        let resident_after_one = pool.resident_pages() as u64;
        assert!(
            resident_after_one < stats.dict_pages / 2,
            "one lookup must not load most of the chain ({resident_after_one} of {})",
            stats.dict_pages
        );
        // So does a point read: one data page, the helper preload and one
        // dictionary page.
        let (pool, column) = paged_column(&ks);
        let row = crate::column::ColumnRead::get_values(&column, &[1500]).unwrap();
        assert_eq!(row, [crate::Value::Varchar("customer-000499".into())]);
        let resident_after_one = pool.resident_pages() as u64;
        assert!(
            resident_after_one < stats.dict_pages / 2,
            "a point read must not load most of the chain ({resident_after_one} of {})",
            stats.dict_pages
        );
    }

    #[test]
    fn iterator_handle_cache_reuses_pages() {
        let ks = keys(200);
        let (pool, dict, _) = build(&ks, &PageConfig::tiny());
        let mut cache = HandleCache::new(pool.clone());
        let _ = dict.find(&ks[10], &mut cache).unwrap();
        let loads_before = pool.metrics().loads;
        // Same pages again: the handle cache answers without pool traffic.
        let _ = dict.find(&ks[11], &mut cache).unwrap();
        assert_eq!(pool.metrics().loads, loads_before);
        assert_ne!(cache.len(), 0, "the pages stay pinned in the cache");
    }

    #[test]
    fn helpers_preload_on_first_access() {
        let ks = keys(1000);
        let (pool, dict, stats) = build(&ks, &PageConfig::tiny());
        assert_eq!(pool.resident_pages(), 0);
        let mut cache = HandleCache::new(pool.clone());
        let _ = dict.find(&ks[500], &mut cache).unwrap();
        let resident = pool.resident_pages() as u64;
        assert!(
            resident >= stats.vid_helper_pages + stats.value_helper_pages,
            "helper chains are preloaded on first access"
        );
    }

    #[test]
    fn empty_dictionary() {
        let (pool, dict, stats) = build(&[], &PageConfig::tiny());
        assert_eq!(dict.cardinality(), 0);
        assert_eq!(stats.dict_pages, 0);
        let mut cache = HandleCache::new(pool.clone());
        assert_eq!(dict.find(b"anything", &mut cache).unwrap(), Err(0));
        assert!(matches!(dict.check_vid(0), Err(CoreError::VidOutOfBounds { .. })));
        assert_reads_back(&dict, &[]);
    }

    #[test]
    fn single_key_dictionary() {
        let ks = vec![b"only".to_vec()];
        let (pool, dict, _) = build(&ks, &PageConfig::tiny());
        let mut cache = HandleCache::new(pool.clone());
        assert_eq!(dict.find(b"only", &mut cache).unwrap(), Ok(0));
        assert_eq!(dict.find(b"a", &mut cache).unwrap(), Err(0));
        assert_eq!(dict.find(b"z", &mut cache).unwrap(), Err(1));
        assert_reads_back(&dict, &ks);
    }

    #[test]
    fn pinned_helpers_survive_eviction_and_speed_up_lookups() {
        let ks = keys(800);
        let pool = pool();
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits(Some(payg_resman::PoolLimits::new(0, usize::MAX)));
        let (dict, stats) =
            PagedDictionary::build(&pool, &PageConfig::tiny(), DataType::Varchar, &ks).unwrap();
        dict.pin_helpers().unwrap();
        // Every page of both helper chains, as the pool holds them.
        let helper_pages: Vec<PageKey> = dict
            .chains()
            .into_iter()
            .filter(|(role, _)| role.ends_with("-helper"))
            .flat_map(|(_, chain)| {
                let pages = pool.store().chain_len(payg_storage::ChainId(chain)).unwrap();
                (0..pages).map(move |p| PageKey::new(payg_storage::ChainId(chain), p))
            })
            .collect();
        assert_eq!(
            helper_pages.len() as u64,
            stats.vid_helper_pages + stats.value_helper_pages
        );
        // A full reactive unload cannot evict the pinned helper pages.
        resman.reactive_unload();
        assert!(
            helper_pages.iter().all(|&key| pool.is_resident(key)),
            "pinned helper pages survive eviction"
        );
        // Lookups after the purge work and reload only dictionary pages.
        let mut cache = HandleCache::new(pool.clone());
        assert_eq!(dict.find(&ks[700], &mut cache).unwrap(), Ok(700));
        // Unpinning makes them evictable again.
        dict.unpin_helpers();
        drop(cache);
        resman.reactive_unload();
        assert_eq!(pool.resident_pages(), 0);
    }

    /// High-entropy 16-byte keys: the sampled ratio misses
    /// `FSST_SKIP_RATIO`, so the builder keeps the chain plain.
    fn incompressible_keys(n: u64) -> Vec<Vec<u8>> {
        let mut ks: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut k = Vec::with_capacity(16);
                for _ in 0..2 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    k.extend_from_slice(&x.to_be_bytes());
                }
                k
            })
            .collect();
        ks.sort();
        ks.dedup();
        ks
    }

    #[test]
    fn both_data_selected_codecs_match_the_in_memory_dictionary() {
        for (ks, codec) in
            [(keys(1200), CodecKind::Fsst), (incompressible_keys(1200), CodecKind::Plain)]
        {
            let (pool, paged, _) = build(&ks, &PageConfig::tiny());
            assert_eq!(paged.codec_kind(), codec, "the keys select the codec");
            let oracle = InMemoryDict::from_sorted_keys(&ks).unwrap();
            let mut cache = HandleCache::new(pool.clone());
            for (vid, k) in ks.iter().enumerate() {
                assert_eq!(paged.find(k, &mut cache).unwrap(), Ok(vid as u64), "find {vid}");
            }
            // Misses agree on insertion points.
            let mut between = ks[500].clone();
            between.push(b'x');
            for probe in [&between[..], b"aaa", b"zzz", b"customer-", &[0xFF; 20]] {
                let found = paged.find(probe, &mut cache).unwrap();
                assert_eq!(found, oracle.find(probe), "{codec:?} {probe:?}");
            }
            // Bulk materialization decodes back to the raw keys.
            assert_eq!(paged.materialize_all_direct().unwrap(), oracle);
        }
    }

    #[test]
    fn fsst_descriptor_persisted_and_survives_reopen() {
        let ks = keys(600);
        let (pool, dict, _) = build(&ks, &PageConfig::tiny());
        assert_eq!(dict.codec_kind(), CodecKind::Fsst);
        // The chain file self-describes its codec.
        let desc = pool.store().chain_descriptor(ChainId(dict.chains()[0].1)).unwrap();
        let codec = ChainCodec::deserialize(&desc).unwrap();
        assert_eq!(codec.kind, CodecKind::Fsst);
        let table = SymbolTable::deserialize(&codec.params).unwrap();
        assert_eq!(table.decode(&table.encode(&ks[7])).unwrap(), ks[7]);
        // Checkpoint metadata round-trips the symbol table.
        let reopened =
            PagedDictionary::open(&pool, DataType::Varchar, &dict.meta_bytes()).unwrap();
        assert_eq!(reopened.codec_kind(), CodecKind::Fsst);
        let mut cache = HandleCache::new(pool.clone());
        for vid in (0..600u64).step_by(53) {
            assert_eq!(reopened.find(&ks[vid as usize], &mut cache).unwrap(), Ok(vid));
        }
        assert_reads_back(&reopened, &ks);
    }

    #[test]
    fn incompressible_keys_skip_fsst() {
        let ks = incompressible_keys(400);
        let (pool, dict, _) = build(&ks, &PageConfig::tiny());
        assert_eq!(dict.codec_kind(), CodecKind::Plain);
        // The descriptor still resolves, to the plain codec.
        let desc = pool.store().chain_descriptor(ChainId(dict.chains()[0].1)).unwrap();
        assert_eq!(ChainCodec::deserialize(&desc).unwrap().kind, CodecKind::Plain);
        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64));
        }
    }

    #[test]
    fn fsst_spilled_values_roundtrip() {
        // Large compressible values spill compressed tails off-page; both
        // lookup directions must reassemble and decode them.
        let mut ks: Vec<Vec<u8>> = Vec::new();
        for i in 0..48 {
            let mut k = format!("order-{i:04}-").into_bytes();
            if i % 4 == 0 {
                for j in 0..260 {
                    k.extend_from_slice(format!("segment{:03}/", (i + j) % 97).as_bytes());
                }
            }
            ks.push(k);
        }
        ks.sort();
        ks.dedup();
        let mut config = PageConfig::tiny();
        config.dict_page = 2048;
        let (pool, dict, stats) = build(&ks, &config);
        assert_eq!(dict.codec_kind(), CodecKind::Fsst);
        assert!(stats.overflow_pages > 0, "large values must still spill when compressed");
        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64));
        }
        assert_reads_back(&dict, &ks);
    }

    fn int_keys(n: i64) -> Vec<Vec<u8>> {
        (0..n).map(|i| payg_encoding::okey::encode_i64(i * 7 - 700).to_vec()).collect()
    }

    #[test]
    fn numeric_dictionary_is_one_chain_of_sorted_keys() {
        // 768-byte pages hold 96 eight-byte keys: three full pages and a
        // short one.
        let ks = int_keys(300);
        let pool = pool();
        let (dict, stats) =
            PagedDictionary::build(&pool, &PageConfig::tiny(), DataType::Integer, &ks).unwrap();
        assert_eq!(stats, PagedDictBuildStats { dict_pages: 4, ..Default::default() });
        assert_eq!(dict.codec_kind(), CodecKind::Array);
        let chains = dict.chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].0, "dict");
        assert_eq!(pool.store().chains(), vec![ChainId(chains[0].1)], "no other chain is built");
        let desc = pool.store().chain_descriptor(ChainId(chains[0].1)).unwrap();
        assert_eq!(
            ChainCodec::deserialize(&desc).unwrap(),
            ChainCodec { kind: CodecKind::Array, params: vec![8] }
        );
        assert_eq!(dict.meta_heap_bytes(), 4 * 8, "the residue is one key per page");
        let built = pool.registry().counter_labeled(
            names::POOL_PAGE_BYTES,
            &[("pool", pool.metrics_label()), ("codec", "array")],
        );
        assert_eq!(built.get(), 4 * 768);

        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64));
        }
        let probe = |v: i64| payg_encoding::okey::encode_i64(v);
        assert_eq!(dict.find(&probe(-699), &mut cache).unwrap(), Err(1), "-700 < -699 < -693");
        assert_eq!(dict.find(&probe(i64::MIN), &mut cache).unwrap(), Err(0));
        assert_eq!(dict.find(&probe(i64::MAX), &mut cache).unwrap(), Err(300));
        // Between the last key of page 0 (vid 95) and the first of page 1.
        assert_eq!(dict.find(&probe(95 * 7 - 700 + 1), &mut cache).unwrap(), Err(96));
        assert!(matches!(dict.check_vid(300), Err(CoreError::VidOutOfBounds { vid: 300, .. })));
        assert_eq!(pool.resident_pages(), 4, "every lookup pins dictionary pages only");
        assert_reads_back(&dict, &ks);
        dict.pin_helpers().unwrap();
        assert_eq!(pool.resident_pages(), 4, "there are no helpers to pin");

        let reopened =
            PagedDictionary::open(&pool, DataType::Integer, &dict.meta_bytes()).unwrap();
        assert_eq!(reopened.chains(), chains);
        let mut cache = HandleCache::new(pool.clone());
        for vid in (0..300u64).step_by(41) {
            assert_eq!(reopened.find(&ks[vid as usize], &mut cache).unwrap(), Ok(vid));
        }
        assert_reads_back(&reopened, &ks);
    }

    #[test]
    fn open_refuses_metadata_that_does_not_describe_the_column() {
        let pool = pool();
        let config = PageConfig::tiny();
        let (ints, _) =
            PagedDictionary::build(&pool, &config, DataType::Integer, &int_keys(300)).unwrap();
        let meta = ints.meta_bytes();
        let refused = |ty: DataType, bytes: &[u8]| match PagedDictionary::open(&pool, ty, bytes) {
            Err(CoreError::Storage(StorageError::Corrupt { .. })) => true,
            Err(other) => panic!("refused with {other:?}"),
            Ok(_) => false,
        };
        assert!(!refused(DataType::Integer, &meta));
        // Same layout, other width: 8-byte keys under a 16-byte type.
        assert!(refused(DataType::Decimal, &meta));
        assert!(refused(DataType::Varchar, &meta), "an array is not a string dictionary");
        // The stored width itself (after tag, cardinality and chain ref).
        let mut wide = meta.clone();
        wide[1 + 8 + 24] = 16;
        assert!(refused(DataType::Integer, &wide));
        // Four pages of 96 keys do not hold 400 keys — nor 100.
        for cardinality in [400u64, 100] {
            let mut grown = meta.clone();
            grown[1..9].copy_from_slice(&cardinality.to_le_bytes());
            assert!(refused(DataType::Integer, &grown));
        }
        // The codec byte, flipped every way.
        for tag in [CodecKind::Plain, CodecKind::Fsst, CodecKind::Pef] {
            let mut flipped = meta.clone();
            flipped[0] = tag as u8;
            assert!(refused(DataType::Integer, &flipped), "{tag:?}");
        }
        let (strings, _) =
            PagedDictionary::build(&pool, &config, DataType::Varchar, &keys(300)).unwrap();
        assert_eq!(strings.codec_kind(), CodecKind::Fsst);
        let meta = strings.meta_bytes();
        assert!(!refused(DataType::Varchar, &meta));
        assert!(refused(DataType::Integer, &meta));
        for tag in [CodecKind::Plain, CodecKind::Array, CodecKind::Pef] {
            let mut flipped = meta.clone();
            flipped[0] = tag as u8;
            assert!(refused(DataType::Varchar, &flipped), "{tag:?}");
        }
    }

    #[test]
    fn one_page_string_dictionary_pins_no_helper_page() {
        let ks = keys(12);
        let (pool, dict, stats) = build(&ks, &PageConfig::tiny());
        assert_eq!(stats.dict_pages, 1);
        assert_eq!((stats.vid_helper_pages, stats.value_helper_pages), (0, 0), "no helper chain");
        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in ks.iter().enumerate() {
            assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64));
        }
        assert_eq!(dict.find(b"customer-000003x", &mut cache).unwrap(), Err(4));
        assert_eq!(dict.find(b"a", &mut cache).unwrap(), Err(0));
        assert_eq!(dict.find(b"z", &mut cache).unwrap(), Err(12));
        assert_eq!(cache.len(), 1, "the dictionary page is page 0: no helper is read");
        assert_eq!(pool.resident_pages(), 1, "nor preloaded");
        assert_reads_back(&dict, &ks);
        // A point read pins its data page and the dictionary page, no helper.
        let (pool, column) = paged_column(&ks);
        let row = crate::column::ColumnRead::get_values(&column, &[7]).unwrap();
        assert_eq!(row, [crate::Value::Varchar("customer-000004".into())]);
        assert_eq!(pool.resident_pages(), 2, "one data page and dictionary page 0");
    }

    /// A one-page string dictionary persists its dictionary and overflow
    /// chains alone, and still answers every find — a probe past its last
    /// key from its one in-memory separator — across a checkpoint reopen.
    /// A multi-page one persists both helper chains.
    #[test]
    fn a_one_page_string_dictionary_persists_no_helper_chain() {
        let roles = |dict: &PagedDictionary| -> Vec<&str> {
            dict.chains().into_iter().map(|(role, _)| role).collect()
        };
        let ks = keys(12);
        let (pool, dict, _) = build(&ks, &PageConfig::tiny());
        assert_eq!(roles(&dict), ["dict", "dict-overflow"]);
        assert_eq!(pool.store().chains().len(), 2, "no helper chain reached the store");
        let reopened = PagedDictionary::open(&pool, DataType::Varchar, &dict.meta_bytes()).unwrap();
        let mut cache = HandleCache::new(pool.clone());
        for d in [&dict, &reopened] {
            for (vid, k) in ks.iter().enumerate() {
                assert_eq!(d.find(k, &mut cache).unwrap(), Ok(vid as u64));
            }
            assert_eq!(d.find(b"customer-000011x", &mut cache).unwrap(), Err(12));
            assert_eq!(d.find(b"z", &mut cache).unwrap(), Err(12));
            assert_reads_back(d, &ks);
        }
        let ks = keys(200);
        let (pool, dict, stats) = build(&ks, &PageConfig::tiny());
        assert!(stats.dict_pages > 1);
        assert_eq!(roles(&dict), ["dict", "dict-overflow", "dict-vid-helper", "dict-value-helper"]);
        assert_eq!(pool.store().chains().len(), 4);
    }

    #[test]
    fn a_failed_helper_preload_is_due_again_on_the_next_lookup() {
        use payg_storage::{FaultPlan, FaultyStore, PoolConfig, RetryPolicy};
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn PageStore>,
            ResourceManager::new(),
            PoolConfig { retry: RetryPolicy::NONE, ..PoolConfig::default() },
        );
        let ks = keys(1000);
        let (dict, _) =
            PagedDictionary::build(&pool, &PageConfig::tiny(), DataType::Varchar, &ks).unwrap();
        // `find` reads no `ipDict_ValueId` page: only the preload pins it.
        let vid_helper = PageKey::new(ChainId(dict.chains()[2].1), 0);
        store.set_plan(FaultPlan::Pages(vec![vid_helper]));
        let find = || dict.find(&ks[500], &mut HandleCache::new(pool.clone()));
        assert!(matches!(find(), Err(CoreError::Storage(_))));
        store.set_plan(FaultPlan::None);
        pool.clear_quarantine();
        pool.clear();
        assert_eq!(find().unwrap(), Ok(500));
        assert!(pool.is_resident(vid_helper), "the lookup after a failed preload preloads again");
        // And once it has landed, never again.
        pool.clear();
        assert_eq!(find().unwrap(), Ok(500));
        assert!(!pool.is_resident(vid_helper));
    }
}

//! The page-loadable inverted index (paper §3.3, Fig. 3).
//!
//! One chain persists both vectors: postinglist pages first, then the skip
//! table, then directory pages.
//!
//! The postinglist is stored as **partitioned Elias-Fano**: the vid-grouped
//! row positions are mapped through the monotone transform
//! `vid · rows + rpos`, encoded 64 values per partition, and packed into
//! pages without straddling. Partitions are variable-sized, so a
//! plain-`u64` **skip table** (one chain offset per partition) follows the
//! posting pages. Seeks run in the compressed domain via
//! [`PagedIndexIterator::next_row_pos_geq`] — partition headers bound-skip
//! and at most one Elias-Fano bucket is scanned. A fragment of at most one
//! row has no posting pages: its only row position is 0.
//!
//! The directory is n-bit packed in 64-value chunks (it is random-accessed,
//! not scanned), so the page number and in-page offset of any entry are
//! pure arithmetic — the paper's Eq. 1 and Eq. 2. A lookup pins at most one
//! directory page, one skip page and one posting page. For unique columns
//! the directory is the identity and is not stored.

use crate::{CoreError, CoreResult, PageConfig};
use payg_encoding::chunk::{bytes_per_chunk, chunk_count, CHUNK_LEN};
use payg_encoding::dispatch::{ChainCodec, CodecKind};
use payg_encoding::pef::{PartitionRef, PARTITION_LEN};
use payg_encoding::{BitPackedVec, BitWidth};
use payg_obs::names;
use payg_storage::{BufferPool, ChainId, ChainRef, PageGuard, PageKey, StorageError};
use std::sync::Arc;

/// Rows a fragment may hold before the `vid · rows + rpos` transform could
/// leave `u64`.
const MAX_ROWS: u64 = 1 << 32;

/// A `Corrupt` error naming the index chain it is about.
fn corrupt(chain: ChainId, what: String) -> CoreError {
    CoreError::Storage(StorageError::corrupt(format!("index chain {}: {what}", chain.0)))
}

#[derive(Debug, PartialEq)]
struct Meta {
    chain: ChainRef,
    cardinality: u64,
    rows: u64,
    /// Width of directory entries (offsets, up to `rows` inclusive); zero
    /// exactly when no directory is stored.
    wd: BitWidth,
    unique: bool,
    /// Directory chunks per full directory page.
    dir_cpp: u64,
    /// Pages holding Elias-Fano posting partitions.
    post_pages: u64,
    /// First directory page.
    dir_start_page: u64,
    /// `Pef` when the chain has posting pages, `Plain` (the bit-packed
    /// directory alone) when it has none.
    codec: CodecKind,
    /// Skip-table pages (they follow the posting pages).
    skip_pages: u64,
}

impl Meta {
    /// The one layout `rows` postings over `cardinality` vids have on pages
    /// of `page` bytes, given how many pages the variable-sized partitions
    /// took. The builder records it; [`PagedInvertedIndex::open`] checks a
    /// checkpointed blob against it.
    fn layout(
        chain: ChainId,
        page: usize,
        cardinality: u64,
        rows: u64,
        post_pages: u64,
    ) -> CoreResult<Meta> {
        let unique = cardinality == rows;
        let has_dir = !unique && cardinality > 0;
        let wd = if has_dir { BitWidth::for_max_value(rows) } else { BitWidth::ZERO };
        let dir_cpp = page.checked_div(bytes_per_chunk(wd)).unwrap_or(0) as u64;
        let partitions = if rows > 1 { rows.div_ceil(PARTITION_LEN as u64) } else { 0 };
        let skip_pages = partitions.div_ceil(skip_entries_per_page(page));
        let mut dir_pages = 0;
        if has_dir {
            if dir_cpp == 0 {
                let what = format!("a {page}-byte page cannot hold one directory chunk at {wd}");
                return Err(corrupt(chain, what));
            }
            dir_pages = chunk_count(cardinality.saturating_add(1)).div_ceil(dir_cpp);
        }
        if post_pages > partitions || (post_pages == 0) != (partitions == 0) {
            let what = format!("{post_pages} posting pages for {partitions} partitions");
            return Err(corrupt(chain, what));
        }
        let dir_start_page = post_pages + skip_pages;
        Ok(Meta {
            chain: ChainRef { chain, pages: dir_start_page + dir_pages, page_size: page },
            cardinality,
            rows,
            wd,
            unique,
            dir_cpp,
            post_pages,
            dir_start_page,
            codec: if post_pages > 0 { CodecKind::Pef } else { CodecKind::Plain },
            skip_pages,
        })
    }
}

/// Skip-table entries (`u64` chain offsets) per page.
fn skip_entries_per_page(page: usize) -> u64 {
    (page / 8).max(1) as u64
}

/// The page-loadable inverted index.
pub struct PagedInvertedIndex {
    pool: BufferPool,
    meta: Arc<Meta>,
}

impl PagedInvertedIndex {
    /// Builds and persists the index of `values` (per-row vids).
    /// `cardinality` is the dictionary size; the column is unique (identity
    /// directory, elided) exactly when `cardinality == values.len()`.
    pub fn build(pool: &BufferPool, config: &PageConfig, values: &[u64], cardinality: u64) -> CoreResult<Self> {
        let rows = values.len() as u64;
        if rows >= MAX_ROWS {
            return Err(CoreError::RowOutOfBounds { rpos: rows - 1, len: MAX_ROWS });
        }
        let page = config.index_page;
        let store = Arc::clone(pool.store());
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let chain = scratch.create_chain(page)?;
        // The chain describes itself before its first page, so the store
        // sizes its descriptor region to the descriptor. Postings are
        // Elias-Fano whenever there are any: a fragment of at most one row
        // has none.
        let codec = if rows > 1 { CodecKind::Pef } else { CodecKind::Plain };
        let descriptor = ChainCodec { kind: codec, params: Vec::new() };
        store.set_chain_descriptor(chain, &descriptor.serialize())?;

        // Counting sort: postinglist = row positions grouped by vid.
        let mut offsets = vec![0u64; cardinality as usize + 1];
        for &v in values {
            offsets[v as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursors = offsets.clone();
        let mut postings = vec![0u64; values.len()];
        for (rpos, &v) in values.iter().enumerate() {
            postings[cursors[v as usize] as usize] = rpos as u64;
            cursors[v as usize] += 1;
        }

        let mut buf: Vec<u8> = Vec::with_capacity(page);
        let mut post_pages = 0u64;
        let mut pef_post_bytes = 0u64;
        let mut part_locs: Vec<u64> = Vec::new();
        // A fragment of at most one row has no posting pages.
        if rows > 1 {
            debug_assert_eq!(PARTITION_LEN, CHUNK_LEN);
            // Monotone transform: vid-grouped row positions become a single
            // non-decreasing sequence, so every 64-value run is a valid
            // Elias-Fano partition.
            let mut transformed = Vec::with_capacity(postings.len());
            for v in 0..cardinality as usize {
                for k in offsets[v]..offsets[v + 1] {
                    transformed.push(v as u64 * rows + postings[k as usize]);
                }
            }
            // Encode partitions into pages without straddling, recording
            // each partition's chain byte offset for the skip table.
            part_locs.reserve(transformed.len().div_ceil(PARTITION_LEN));
            let mut enc = Vec::new();
            for part in transformed.chunks(PARTITION_LEN) {
                enc.clear();
                payg_encoding::pef::encode_partition(part, &mut enc);
                if !buf.is_empty() && buf.len() + enc.len() > page {
                    store.append_page(chain, &buf)?;
                    post_pages += 1;
                    buf.clear();
                }
                if enc.len() > page {
                    let what =
                        format!("a {page}-byte page cannot hold a {}-byte pef partition", enc.len());
                    return Err(corrupt(chain, what));
                }
                part_locs.push(post_pages * page as u64 + buf.len() as u64);
                buf.extend_from_slice(&enc);
                pef_post_bytes += enc.len() as u64;
            }
            if !buf.is_empty() {
                store.append_page(chain, &buf)?;
                post_pages += 1;
                buf.clear();
            }
        }
        let meta = Meta::layout(chain, page, cardinality, rows, post_pages)?;
        debug_assert_eq!(meta.codec, codec, "the descriptor names the codec the layout wrote");

        // Skip table: plain little-endian u64 chain offsets, one per
        // partition, on their own pages after the posting pages.
        for group in part_locs.chunks(skip_entries_per_page(page) as usize) {
            let mut bytes = Vec::with_capacity(group.len() * 8);
            for &loc in group {
                bytes.extend_from_slice(&loc.to_le_bytes());
            }
            store.append_page(chain, &bytes)?;
        }
        // Directory pages.
        if meta.wd.bits() > 0 {
            let dir = BitPackedVec::from_values_with_width(&offsets, meta.wd);
            let bpc_d = bytes_per_chunk(meta.wd);
            for ci in 0..dir.chunk_count() {
                for &w in dir.chunk_words(ci) {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
                if buf.len() + bpc_d > page {
                    store.append_page(chain, &buf)?;
                    buf.clear();
                }
            }
            if !buf.is_empty() {
                store.append_page(chain, &buf)?;
            }
        }
        assert_eq!(store.chain_len(chain)?, meta.chain.pages, "layout ≠ pages written");

        // Per-codec build metrics, mirroring the paged dictionary.
        let registry = pool.registry();
        let label = pool.metrics_label();
        registry
            .counter_labeled(
                names::POOL_PAGE_BYTES,
                &[("pool", label), ("codec", meta.codec.label())],
            )
            .add(meta.dir_start_page * page as u64);
        let dir_pages = meta.chain.pages - meta.dir_start_page;
        if dir_pages > 0 {
            registry
                .counter_labeled(
                    names::POOL_PAGE_BYTES,
                    &[("pool", label), ("codec", CodecKind::Plain.label())],
                )
                .add(dir_pages * page as u64);
        }
        if post_pages > 0 {
            // Average Elias-Fano bits per posting, ×100.
            registry
                .gauge_labeled(names::PEF_CHUNK_BITS, &[("pool", label)])
                .set(pef_post_bytes * 8 * 100 / rows);
        }

        scratch.commit();
        Ok(PagedInvertedIndex { pool: pool.clone(), meta: Arc::new(meta) })
    }

    /// Serializes the index's metadata for a catalog checkpoint.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let m = &self.meta;
        let mut w = crate::meta::MetaWriter::new();
        crate::meta::write_chain(&mut w, &m.chain);
        w.u64(m.cardinality);
        w.u64(m.rows);
        w.u8(m.wd.bits() as u8);
        w.u8(u8::from(m.unique));
        w.u64(m.dir_cpp);
        w.u64(m.post_pages);
        w.u64(m.dir_start_page);
        w.u8(m.codec as u8);
        w.u64(m.skip_pages);
        w.finish()
    }

    /// Reopens an index from checkpointed metadata over `pool`'s store. The
    /// blob is redundant on purpose: every field beyond the chain, the
    /// counts and the posting pages must be what [`Meta::layout`] derives
    /// from those, so a flipped codec byte or page counts that do not add up
    /// are a typed error here, never a misread page later.
    pub fn open(pool: &BufferPool, bytes: &[u8]) -> CoreResult<Self> {
        let mut r = crate::meta::MetaReader::new(bytes);
        let chain = crate::meta::read_chain(&mut r)?;
        let refuse = |what: String| corrupt(chain.chain, what);
        let meta = Meta {
            chain,
            cardinality: r.u64()?,
            rows: r.u64()?,
            wd: BitWidth::new(u32::from(r.u8()?))?,
            unique: r.u8()? != 0,
            dir_cpp: r.u64()?,
            post_pages: r.u64()?,
            dir_start_page: r.u64()?,
            codec: match r.u8()? {
                0 => CodecKind::Plain,
                2 => CodecKind::Pef,
                b => return Err(refuse(format!("codec byte {b} is not a posting codec"))),
            },
            skip_pages: r.u64()?,
        };
        r.expect_end()?;
        if meta.rows >= MAX_ROWS {
            return Err(refuse(format!("{} rows exceed the posting transform", meta.rows)));
        }
        let (page, cardinality, rows) = (chain.page_size, meta.cardinality, meta.rows);
        let expect = Meta::layout(chain.chain, page, cardinality, rows, meta.post_pages)?;
        if meta != expect {
            return Err(refuse(format!("checkpointed layout {meta:?} should be {expect:?}")));
        }
        Ok(PagedInvertedIndex { pool: pool.clone(), meta: Arc::new(meta) })
    }

    /// Dictionary cardinality.
    pub fn cardinality(&self) -> u64 {
        self.meta.cardinality
    }

    /// Rows indexed.
    pub fn rows(&self) -> u64 {
        self.meta.rows
    }

    /// True when the directory is elided (unique column).
    pub fn is_unique(&self) -> bool {
        self.meta.unique
    }

    /// Total pages in the chain.
    pub fn pages(&self) -> u64 {
        self.meta.chain.pages
    }

    /// The codec the builder recorded in the chain descriptor.
    pub fn codec_kind(&self) -> CodecKind {
        self.meta.codec
    }

    /// The store chain id holding this index's pages (postings, skip
    /// table, directory) — for attributing traced page events.
    pub fn chain_id(&self) -> u64 {
        self.meta.chain.chain.0
    }

    /// Creates a lookup iterator (`getFirstRowPos` / `getNextRowPos`).
    pub fn iter(&self) -> PagedIndexIterator<'_> {
        PagedIndexIterator {
            idx: self,
            post_guard: None,
            dir_guard: None,
            skip_guard: None,
            state: None,
            post_chunk: None,
            dir_chunk: None,
        }
    }

    /// Reads the posting run of the vids `lo..=hi` into `out` (cleared
    /// first) via a fresh iterator: [`PagedIndexIterator::position_run`],
    /// then a drain.
    pub fn posting_run(&self, lo: u64, hi: u64, out: &mut Vec<u64>) -> CoreResult<()> {
        out.clear();
        let mut it = self.iter();
        it.position_run(lo, hi)?;
        out.reserve(it.remaining() as usize);
        while let Some(rpos) = it.get_next_row_pos()? {
            out.push(rpos);
        }
        Ok(())
    }

    /// Page number and byte offset of directory entry `e` — the paper's
    /// Eq. 1 / Eq. 2 in chunk-granular form.
    fn dir_location(&self, e: u64) -> (u64, usize) {
        let di = e / CHUNK_LEN as u64;
        let page = self.meta.dir_start_page + di / self.meta.dir_cpp;
        let offset = ((di % self.meta.dir_cpp) as usize) * bytes_per_chunk(self.meta.wd);
        (page, offset)
    }
}

#[derive(Clone, Copy)]
struct IterState {
    /// Next postinglist offset to read.
    cur: u64,
    /// One past the last postinglist offset of the positioned run.
    end: u64,
}

/// Stateful lookup iterator over a [`PagedInvertedIndex`].
///
/// Keeps at most one pinned directory page and one pinned postinglist page;
/// consecutive [`PagedIndexIterator::get_next_row_pos`] calls for the same
/// vid usually hit the already-pinned postinglist page.
pub struct PagedIndexIterator<'a> {
    idx: &'a PagedInvertedIndex,
    post_guard: Option<(u64, PageGuard)>,
    dir_guard: Option<(u64, PageGuard)>,
    skip_guard: Option<(u64, PageGuard)>,
    state: Option<IterState>,
    /// Decoded-chunk caches: consecutive reads within one chunk (the common
    /// `getNextRowPos` pattern) cost one array lookup instead of a decode.
    post_chunk: Option<(u64, [u64; CHUNK_LEN])>,
    dir_chunk: Option<(u64, [u64; CHUNK_LEN])>,
}

impl PagedIndexIterator<'_> {
    fn pin(
        pool: &BufferPool,
        chain: &ChainRef,
        slot: &mut Option<(u64, PageGuard)>,
        page_no: u64,
    ) -> CoreResult<()> {
        let stale = !matches!(slot, Some((cur, _)) if *cur == page_no);
        if stale {
            let g = pool.pin(PageKey::new(chain.chain, page_no)).map_err(CoreError::Storage)?;
            *slot = Some((page_no, g));
        }
        Ok(())
    }

    fn read_dir(&mut self, e: u64) -> CoreResult<u64> {
        let meta = &self.idx.meta;
        let chunk_no = e / CHUNK_LEN as u64;
        let slot = (e % CHUNK_LEN as u64) as usize;
        if let Some((c, buf)) = &self.dir_chunk {
            if *c == chunk_no {
                return Ok(buf[slot]);
            }
        }
        let (page, offset) = self.idx.dir_location(e);
        Self::pin(&self.idx.pool, &meta.chain, &mut self.dir_guard, page)?;
        let Some((_, guard)) = self.dir_guard.as_ref() else {
            unreachable!("pin above populated the guard slot")
        };
        let mut buf = [0u64; CHUNK_LEN];
        decode_packed_chunk(guard, offset, meta.wd, &mut buf);
        self.dir_chunk = Some((chunk_no, buf));
        Ok(buf[slot])
    }

    /// Chain byte offset of PEF partition `p`, read from the skip table.
    fn read_skip(&mut self, p: u64) -> CoreResult<u64> {
        let meta = &self.idx.meta;
        let epp = skip_entries_per_page(meta.chain.page_size);
        let page = meta.post_pages + p / epp;
        Self::pin(&self.idx.pool, &meta.chain, &mut self.skip_guard, page)?;
        let Some((_, guard)) = self.skip_guard.as_ref() else {
            unreachable!("pin above populated the guard slot")
        };
        let off = ((p % epp) * 8) as usize;
        Ok(crate::util::le_u64(&guard[off..off + 8]))
    }

    fn read_post(&mut self, k: u64) -> CoreResult<u64> {
        let meta = &self.idx.meta;
        if meta.post_pages == 0 {
            return Ok(0); // 0 or 1 rows: the only row position is 0
        }
        let chunk_no = k / CHUNK_LEN as u64;
        let slot = (k % CHUNK_LEN as u64) as usize;
        if let Some((c, buf)) = &self.post_chunk {
            if *c == chunk_no {
                return Ok(buf[slot]);
            }
        }
        let mut buf = [0u64; CHUNK_LEN];
        let loc = self.read_skip(chunk_no)?;
        let page_size = self.idx.meta.chain.page_size as u64;
        let meta = &self.idx.meta;
        Self::pin(&self.idx.pool, &meta.chain, &mut self.post_guard, loc / page_size)?;
        let Some((_, guard)) = self.post_guard.as_ref() else {
            unreachable!("pin above populated the guard slot")
        };
        let n = (meta.rows - chunk_no * CHUNK_LEN as u64).min(CHUNK_LEN as u64) as usize;
        let part = PartitionRef::parse(&guard[..], (loc % page_size) as usize, n)?;
        part.read_into(&mut buf)?;
        // Undo the vid·rows+rpos transform once per cached chunk.
        for v in &mut buf[..n] {
            *v %= meta.rows;
        }
        self.post_chunk = Some((chunk_no, buf));
        Ok(buf[slot])
    }

    /// Positions the iterator on the **posting run** of the vids `lo..=hi`:
    /// postings are stored grouped by vid, so the run is the contiguous
    /// postinglist slice `directory[lo]..directory[hi + 1]` — two directory
    /// reads whatever the number of vids — which
    /// [`PagedIndexIterator::get_next_row_pos`] then drains vid-major,
    /// ascending within each vid. An empty range (`lo > hi`) positions on
    /// the empty run.
    pub fn position_run(&mut self, lo: u64, hi: u64) -> CoreResult<()> {
        self.state = None;
        if lo > hi {
            return Ok(());
        }
        let meta = &self.idx.meta;
        if hi >= meta.cardinality {
            return Err(CoreError::VidOutOfBounds { vid: hi, cardinality: meta.cardinality });
        }
        let (cur, end) = if meta.unique {
            (lo, hi + 1)
        } else {
            (self.read_dir(lo)?, self.read_dir(hi + 1)?)
        };
        self.state = Some(IterState { cur, end });
        Ok(())
    }

    /// Positions the iterator on `vid` — the run `vid..=vid` — and returns
    /// its first row position (`None` when `vid` has no postings, which
    /// cannot happen for vids in a merged main fragment but is handled
    /// defensively).
    pub fn get_first_row_pos(&mut self, vid: u64) -> CoreResult<Option<u64>> {
        self.position_run(vid, vid)?;
        self.get_next_row_pos()
    }

    /// Returns the next row position of the positioned run, or `None` when
    /// it is exhausted (or nothing is positioned).
    pub fn get_next_row_pos(&mut self) -> CoreResult<Option<u64>> {
        let Some(state) = self.state else { return Ok(None) };
        if state.cur >= state.end {
            return Ok(None);
        }
        let rpos = self.read_post(state.cur)?;
        self.state = Some(IterState { cur: state.cur + 1, end: state.end });
        Ok(Some(rpos))
    }

    /// Seeks within `vid`'s postinglist: returns the smallest row position
    /// `>= rpos`, or `None` when the list has no such posting, positioning
    /// the iterator so `get_next_row_pos` continues after the match.
    ///
    /// This is a compressed-domain seek: partitions whose header bound lies
    /// below the target are skipped for the price of two varints, and at
    /// most one Elias-Fano bucket of the landing partition is scanned —
    /// nothing is bulk-decoded.
    pub fn next_row_pos_geq(&mut self, vid: u64, rpos: u64) -> CoreResult<Option<u64>> {
        let meta = &self.idx.meta;
        if vid >= meta.cardinality {
            return Err(CoreError::VidOutOfBounds { vid, cardinality: meta.cardinality });
        }
        self.state = None;
        if rpos >= meta.rows {
            return Ok(None);
        }
        let (start, end) = if meta.unique {
            (vid, vid + 1)
        } else {
            (self.read_dir(vid)?, self.read_dir(vid + 1)?)
        };
        if start >= end {
            return Ok(None);
        }
        if meta.post_pages == 0 {
            // One row: `rpos < rows` made the target row 0, its only posting.
            self.state = Some(IterState { cur: start + 1, end });
            return Ok(Some(0));
        }
        let target = vid * meta.rows + rpos;
        let vid_end = (vid + 1) * meta.rows;
        let page_size = meta.chain.page_size as u64;
        let first_p = start / PARTITION_LEN as u64;
        let last_p = (end - 1) / PARTITION_LEN as u64;
        for p in first_p..=last_p {
            let loc = self.read_skip(p)?;
            let meta = &self.idx.meta;
            Self::pin(&self.idx.pool, &meta.chain, &mut self.post_guard, loc / page_size)?;
            let Some((_, guard)) = self.post_guard.as_ref() else {
                unreachable!("pin above populated the guard slot")
            };
            let n = (meta.rows - p * PARTITION_LEN as u64).min(PARTITION_LEN as u64) as usize;
            let part = PartitionRef::parse(&guard[..], (loc % page_size) as usize, n)?;
            if part.last() < target {
                continue; // header-only skip: no value here can match
            }
            let Some((slot, v)) = part.next_geq(target)? else { continue };
            let g = p * PARTITION_LEN as u64 + slot as u64;
            if g >= end || v >= vid_end {
                return Ok(None); // first match belongs to a later vid
            }
            self.state = Some(IterState { cur: g + 1, end });
            return Ok(Some(v - vid * meta.rows));
        }
        Ok(None)
    }

    /// Number of postings of the positioned run that remain unread.
    pub fn remaining(&self) -> u64 {
        self.state.map_or(0, |s| s.end.saturating_sub(s.cur))
    }

    /// Number of postings of `vid`, read from the directory alone — no
    /// postinglist pages are touched (the paper's COUNT path).
    pub fn posting_count(&mut self, vid: u64) -> CoreResult<u64> {
        let meta = &self.idx.meta;
        if vid >= meta.cardinality {
            return Err(CoreError::VidOutOfBounds { vid, cardinality: meta.cardinality });
        }
        if meta.unique {
            return Ok(1);
        }
        let start = self.read_dir(vid)?;
        let end = self.read_dir(vid + 1)?;
        Ok(end.saturating_sub(start))
    }
}

/// Decodes the full 64-value chunk starting at byte `offset` of a page.
fn decode_packed_chunk(page: &PageGuard, offset: usize, w: BitWidth, out: &mut [u64; CHUNK_LEN]) {
    let n = w.bits() as usize;
    let mut words = [0u64; 64];
    let bytes = &page[offset..offset + n * 8];
    payg_encoding::unaligned::fill_le_words(bytes, &mut words[..n]);
    payg_encoding::chunk::decode_chunk(&words[..n], w, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
    }

    fn sample(len: usize, card: u64, seed: u64) -> Vec<u64> {
        // Guarantee every vid occurs at least once (main-dictionary invariant).
        (0..len as u64)
            .map(|i| {
                if i < card {
                    i
                } else {
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        % card
                }
            })
            .collect()
    }

    fn build(values: &[u64], card: u64) -> (BufferPool, PagedInvertedIndex) {
        let pool = pool();
        let idx = PagedInvertedIndex::build(&pool, &PageConfig::tiny(), values, card).unwrap();
        (pool, idx)
    }

    /// The posting run `lo..=hi` through a fresh iterator.
    fn run(idx: &PagedInvertedIndex, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = vec![u64::MAX]; // stale content must be cleared
        idx.posting_run(lo, hi, &mut out).unwrap();
        out
    }

    /// The oracle: row positions of the vids `lo..=hi` filtered from the
    /// source, vid-major.
    fn naive(values: &[u64], lo: u64, hi: u64) -> Vec<u64> {
        (lo..=hi)
            .flat_map(|vid| (0..values.len() as u64).filter(move |&r| values[r as usize] == vid))
            .collect()
    }

    #[test]
    fn posting_runs_match_naive() {
        let values = sample(3000, 40, 1);
        let (_pool, paged) = build(&values, 40);
        assert!(paged.pages() > 3, "tiny pages must force a multi-page chain");
        for vid in 0..40 {
            assert_eq!(run(&paged, vid, vid), naive(&values, vid, vid), "vid {vid}");
        }
        // A vid range is one run: the per-vid lists back to back, read
        // with two directory entries and drained across pages.
        for (lo, hi) in [(0, 39), (3, 4), (17, 31)] {
            assert_eq!(run(&paged, lo, hi), naive(&values, lo, hi), "run {lo}..={hi}");
        }
        assert_eq!(run(&paged, 5, 4), Vec::<u64>::new(), "lo > hi is the empty run");
        assert!(matches!(
            paged.posting_run(39, 40, &mut Vec::new()),
            Err(CoreError::VidOutOfBounds { vid: 40, .. })
        ));
    }

    #[test]
    fn iterator_protocol() {
        let values = [1u64, 0, 1, 1, 2, 0];
        let (_pool, paged) = build(&values, 3);
        let mut it = paged.iter();
        assert_eq!(it.get_first_row_pos(1).unwrap(), Some(0));
        assert_eq!(it.remaining(), 2);
        assert_eq!(it.get_next_row_pos().unwrap(), Some(2));
        assert_eq!(it.get_next_row_pos().unwrap(), Some(3));
        assert_eq!(it.get_next_row_pos().unwrap(), None);
        // Repositioning resets state.
        assert_eq!(it.get_first_row_pos(2).unwrap(), Some(4));
        assert_eq!(it.get_next_row_pos().unwrap(), None);
        // A run positions without reading; the drain crosses vid boundaries.
        it.position_run(0, 1).unwrap();
        assert_eq!(it.remaining(), 5);
        let mut drained = Vec::new();
        while let Some(rpos) = it.get_next_row_pos().unwrap() {
            drained.push(rpos);
        }
        assert_eq!(drained, vec![1, 5, 0, 2, 3]);
        // Unpositioned iterator.
        let mut fresh = paged.iter();
        assert_eq!(fresh.get_next_row_pos().unwrap(), None);
        assert!(matches!(fresh.get_first_row_pos(3), Err(CoreError::VidOutOfBounds { .. })));
    }

    #[test]
    fn unique_index_has_no_directory_pages() {
        let rows = 2000u64;
        let values: Vec<u64> = (0..rows).map(|i| (i * 7) % rows).collect(); // permutation
        let (_pool, unique) = build(&values, rows);
        assert!(unique.is_unique());
        let (_pool2, non_unique) = build(&sample(rows as usize, rows / 2, 2), rows / 2);
        assert!(!non_unique.is_unique());
        assert!(non_unique.pages() > non_unique.meta.dir_start_page);
        // The unique chain stores only the postinglist and its skip table.
        assert_eq!(unique.pages(), unique.meta.dir_start_page);
        for vid in (0..rows).step_by(97) {
            let rpos = values.iter().position(|&v| v == vid).unwrap() as u64;
            assert_eq!(run(&unique, vid, vid), vec![rpos]);
        }
    }

    #[test]
    fn chain_self_describes_and_reopens() {
        let values = sample(4000, 300, 11);
        let (pool, pef) = build(&values, 300);
        assert_eq!(pef.codec_kind(), CodecKind::Pef);
        // The chain file self-describes the posting codec.
        let desc = pool.store().chain_descriptor(pef.meta.chain.chain).unwrap();
        assert_eq!(ChainCodec::deserialize(&desc).unwrap().kind, CodecKind::Pef);
        // Checkpoint metadata round-trips the codec and skip-table layout.
        let reopened = PagedInvertedIndex::open(&pool, &pef.meta_bytes()).unwrap();
        assert_eq!(reopened.meta, pef.meta);
        for vid in (0..300).step_by(37) {
            assert_eq!(run(&reopened, vid, vid), naive(&values, vid, vid));
        }
    }

    /// Asserts `open` refuses `bytes` with a `Corrupt` error naming the chain.
    fn assert_refused(idx: &PagedInvertedIndex, bytes: &[u8], why: &str) {
        match PagedInvertedIndex::open(&idx.pool, bytes) {
            Err(CoreError::Storage(StorageError::Corrupt(what))) => {
                assert!(what.contains(&format!("index chain {}", idx.chain_id())), "{why}: {what}")
            }
            other => panic!("{why}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn open_refuses_a_flipped_codec_byte() {
        let (_pool, idx) = build(&sample(4000, 300, 11), 300);
        let good = idx.meta_bytes();
        let codec_at = good.len() - 9; // `codec:u8 | skip_pages:u64` end the blob
        assert_eq!(good[codec_at], CodecKind::Pef as u8);
        for byte in [CodecKind::Plain as u8, CodecKind::Fsst as u8, 7] {
            let mut bad = good.clone();
            bad[codec_at] = byte;
            assert_refused(&idx, &bad, "posting pages that are not PEF");
        }
        // And the other way: a chain without posting pages cannot claim PEF.
        let (_pool, one_row) = build(&[0], 1);
        let mut bad = one_row.meta_bytes();
        assert_eq!(bad[codec_at], CodecKind::Plain as u8, "the blob is fixed-size");
        bad[codec_at] = CodecKind::Pef as u8;
        assert_refused(&one_row, &bad, "PEF without posting pages");
    }

    #[test]
    fn open_refuses_page_counts_that_do_not_add_up() {
        let (_pool, idx) = build(&sample(4000, 300, 11), 300);
        let good = idx.meta_bytes();
        assert!(idx.meta.skip_pages > 1, "tiny pages spread the skip table");
        let put = |bytes: &mut Vec<u8>, from_end: usize, v: u64| {
            let at = bytes.len() - from_end;
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        // A truncated skip table, alone and with the directory moved up to
        // close the gap: both leave partitions without a skip entry.
        let mut bad = good.clone();
        put(&mut bad, 8, idx.meta.skip_pages - 1);
        assert_refused(&idx, &bad, "skip table one page short");
        put(&mut bad, 17, idx.meta.dir_start_page - 1);
        assert_refused(&idx, &bad, "skip table short, directory moved up");
        // Posting pages the chain does not have.
        let mut bad = good.clone();
        put(&mut bad, 25, idx.meta.post_pages + 1);
        assert_refused(&idx, &bad, "one posting page too many");
        assert!(PagedInvertedIndex::open(&idx.pool, &good).is_ok());
    }

    #[test]
    fn clustered_postings_beat_the_bit_packed_width() {
        // Clustered rows: each vid's postings are one consecutive run, the
        // favorable case for Elias-Fano.
        let rows = 20_000u64;
        let values: Vec<u64> = (0..rows).map(|i| i / 200).collect();
        let card = rows / 200;
        let (_pool, idx) = build(&values, card);
        let posting_bits = idx.meta.dir_start_page * idx.meta.chain.page_size as u64 * 8;
        let packed_bits = rows * u64::from(BitWidth::for_cardinality(rows).bits());
        assert!(
            posting_bits < packed_bits,
            "postings + skip table ({posting_bits} bits) must beat n-bit packing ({packed_bits})"
        );
        for vid in (0..card).step_by(7) {
            assert_eq!(run(&idx, vid, vid), naive(&values, vid, vid));
        }
    }

    #[test]
    fn next_row_pos_geq_matches_naive() {
        let values = sample(3000, 80, 13);
        let (_pool, idx) = build(&values, 80);
        let mut it = idx.iter();
        for vid in (0..80).step_by(9) {
            let posts = run(&idx, vid, vid);
            for target in [0, 1, posts[0], posts[posts.len() / 2], *posts.last().unwrap(), 2999, 5000] {
                let naive = posts.iter().copied().find(|&p| p >= target);
                let got = it.next_row_pos_geq(vid, target).unwrap();
                assert_eq!(got, naive, "vid {vid} target {target}");
                // The seek positions the iterator for continuation.
                if let Some(hit) = naive {
                    let after = posts.iter().copied().find(|&p| p > hit);
                    assert_eq!(it.get_next_row_pos().unwrap(), after);
                }
            }
        }
    }

    #[test]
    fn lookup_pins_at_most_three_pages() {
        let values = sample(5000, 500, 4);
        let (pool, idx) = build(&values, 500);
        assert_eq!(idx.codec_kind(), CodecKind::Pef);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits(Some(payg_resman::PoolLimits::new(0, usize::MAX)));
        let mut it = idx.iter();
        let _ = it.get_first_row_pos(250).unwrap();
        // Directory page + skip page + posting page.
        resman.reactive_unload();
        assert!(pool.resident_pages() <= 3);
        let loads_before = pool.metrics().loads;
        let mut it2 = idx.iter();
        let _ = it2.get_first_row_pos(251).unwrap();
        assert!(pool.metrics().loads - loads_before <= 3);
    }

    #[test]
    fn tiny_corpora() {
        // Single row: no posting pages, and a chain that says so.
        let (_p, idx) = build(&[0], 1);
        assert_eq!((idx.pages(), idx.codec_kind()), (0, CodecKind::Plain));
        assert_eq!(run(&idx, 0, 0), vec![0]);
        let mut it = idx.iter();
        assert_eq!(it.next_row_pos_geq(0, 0).unwrap(), Some(0));
        assert_eq!(it.get_next_row_pos().unwrap(), None);
        assert_eq!(it.next_row_pos_geq(0, 1).unwrap(), None);
        // No rows at all.
        let (_p, idx) = build(&[], 0);
        assert_eq!(idx.pages(), 0);
        assert_eq!(PagedInvertedIndex::open(&idx.pool, &idx.meta_bytes()).unwrap().rows(), 0);
        // Single distinct value over many rows.
        let values = vec![0u64; 300];
        let (_p, idx) = build(&values, 1);
        assert_eq!(run(&idx, 0, 0), (0..300u64).collect::<Vec<_>>());
        // Two rows, two values (unique).
        let (_p, idx) = build(&[1, 0], 2);
        assert!(idx.is_unique());
        assert_eq!(run(&idx, 0, 0), vec![1]);
        assert_eq!(run(&idx, 1, 1), vec![0]);
        assert_eq!(run(&idx, 0, 1), vec![1, 0]);
    }
}

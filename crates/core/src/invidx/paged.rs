//! The page-loadable inverted index (paper §3.3, Fig. 3).
//!
//! One chain persists both vectors: postinglist pages first, then at most
//! one **mixed page** (trailing postinglist chunks followed by the first
//! directory chunks), then pure directory pages. Both vectors are n-bit
//! packed in 64-value chunks, so the logical page number and in-page offset
//! of any entry are pure arithmetic — the paper's Eq. 1 and Eq. 2. A lookup
//! therefore pins at most one directory page and one postinglist page.
//!
//! For unique columns the directory is the identity and is not stored; the
//! chain contains only postinglist pages.
//!
//! When [`PageConfig::pef_postings`] is on (and the fragment has fewer than
//! 2³² rows), the postinglist is stored as **partitioned Elias-Fano**
//! instead of bit-packed chunks: the vid-grouped row positions are mapped
//! through the monotone transform `vid · rows + rpos`, encoded 64 values
//! per partition, and packed into pages without straddling. Partitions are
//! variable-sized, so a plain-`u64` **skip table** (one chain offset per
//! partition) sits between the posting pages and the directory pages; a
//! lookup pins at most one skip page, one posting page and one directory
//! page. Seeks run in the compressed domain via
//! [`PagedIndexIterator::next_row_pos_geq`] — partition headers bound-skip
//! and at most one Elias-Fano bucket is scanned. The directory stays
//! bit-packed (it is random-accessed, not scanned), and there is no mixed
//! page in this layout.

use crate::{CoreError, CoreResult, PageConfig};
use payg_encoding::chunk::{bytes_per_chunk, CHUNK_LEN};
#[cfg(test)]
use payg_encoding::chunk::chunk_count;
use payg_encoding::dispatch::{ChainCodec, CodecKind};
use payg_encoding::pef::{PartitionRef, PARTITION_LEN};
use payg_encoding::{BitPackedVec, BitWidth};
use payg_obs::names;
use payg_storage::{BufferPool, ChainRef, PageGuard, PageKey};
use std::sync::Arc;

struct Meta {
    chain: ChainRef,
    cardinality: u64,
    rows: u64,
    /// Width of postinglist entries (row positions).
    wp: BitWidth,
    /// Width of directory entries (offsets, up to `rows` inclusive).
    wd: BitWidth,
    unique: bool,
    /// Postinglist chunks per full page.
    post_cpp: u64,
    /// Directory chunks per full (pure directory) page.
    dir_cpp: u64,
    /// Pages holding postinglist chunks (the last may be the mixed page).
    post_pages: u64,
    /// Directory chunks co-located on the mixed page (0 = no mixed page).
    mixed_dir_chunks: u64,
    /// Bytes of postinglist data on the mixed page (offset of its first
    /// directory chunk).
    mixed_post_bytes: usize,
    /// First pure directory page.
    dir_start_page: u64,
    /// Postinglist codec: `Plain` = bit-packed chunks, `Pef` = partitioned
    /// Elias-Fano over the `vid · rows + rpos` transform.
    codec: CodecKind,
    /// Skip-table pages (PEF only; they follow the posting pages).
    skip_pages: u64,
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
        let unique = cardinality == rows;
        let page = config.index_page;
        let store = Arc::clone(pool.store());
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let chain = scratch.create_chain(page)?;

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

        let wp = BitWidth::for_cardinality(rows);
        let wd = BitWidth::for_max_value(rows);
        let post = BitPackedVec::from_values_with_width(&postings, wp);
        let dir = (!unique && cardinality > 0)
            .then(|| BitPackedVec::from_values_with_width(&offsets, wd));

        let bpc_p = bytes_per_chunk(wp);
        let bpc_d = bytes_per_chunk(wd);
        let post_cpp = page.checked_div(bpc_p).unwrap_or(0) as u64;
        let dir_cpp = page.checked_div(bpc_d).unwrap_or(0) as u64;
        // PEF needs the `vid · rows + rpos` transform to stay in u64, hence
        // the row-count guard; trivial postinglists stay bit-packed.
        let use_pef = config.pef_postings && wp.bits() > 0 && rows < (1u64 << 32);
        if (!use_pef && wp.bits() > 0 && post_cpp == 0) || (dir.is_some() && dir_cpp == 0) {
            return Err(CoreError::Storage(payg_storage::StorageError::corrupt(format!(
                "index page of {page} bytes cannot hold one chunk at {wp}/{wd}"
            ))));
        }

        let mut buf: Vec<u8> = Vec::with_capacity(page);
        let mut post_pages = 0u64;
        let mut skip_pages = 0u64;
        let mut dir_pages = 0u64;
        let mut mixed_dir_chunks = 0u64;
        let mut mixed_post_bytes = 0usize;
        let mut pef_post_bytes = 0u64;
        if use_pef {
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
            let mut part_locs: Vec<u64> =
                Vec::with_capacity(transformed.len().div_ceil(PARTITION_LEN));
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
                    return Err(CoreError::Storage(payg_storage::StorageError::corrupt(
                        format!(
                            "index page of {page} bytes cannot hold a {}-byte pef partition",
                            enc.len()
                        ),
                    )));
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
            // Skip table: plain little-endian u64 chain offsets, one per
            // partition, on their own pages after the posting pages.
            for group in part_locs.chunks((page / 8).max(1)) {
                let mut bytes = Vec::with_capacity(group.len() * 8);
                for &loc in group {
                    bytes.extend_from_slice(&loc.to_le_bytes());
                }
                store.append_page(chain, &bytes)?;
                skip_pages += 1;
            }
            // Pure directory pages; the PEF layout has no mixed page.
            if let Some(dir) = &dir {
                for ci in 0..dir.chunk_count() {
                    for &w in dir.chunk_words(ci) {
                        buf.extend_from_slice(&w.to_le_bytes());
                    }
                    if buf.len() + bpc_d > page {
                        store.append_page(chain, &buf)?;
                        dir_pages += 1;
                        buf.clear();
                    }
                }
                if !buf.is_empty() {
                    store.append_page(chain, &buf)?;
                    dir_pages += 1;
                    buf.clear();
                }
            }
        } else {
            // Bit-packed postinglist chunks, page by page.
            if wp.bits() > 0 {
                for ci in 0..post.chunk_count() {
                    for &w in post.chunk_words(ci) {
                        buf.extend_from_slice(&w.to_le_bytes());
                    }
                    if buf.len() + bpc_p > page {
                        store.append_page(chain, &buf)?;
                        post_pages += 1;
                        buf.clear();
                    }
                }
            }
            // `buf` now holds the trailing partial posting page (possibly empty).
            mixed_post_bytes = buf.len();
            if let Some(dir) = &dir {
                let dir_chunks = dir.chunk_count();
                let mut next_chunk = 0u64;
                if !buf.is_empty() {
                    // Fill the tail posting page with directory chunks → mixed page.
                    while next_chunk < dir_chunks && buf.len() + bpc_d <= page {
                        for &w in dir.chunk_words(next_chunk) {
                            buf.extend_from_slice(&w.to_le_bytes());
                        }
                        next_chunk += 1;
                    }
                    mixed_dir_chunks = next_chunk;
                    store.append_page(chain, &buf)?;
                    post_pages += 1;
                    buf.clear();
                }
                // Pure directory pages.
                while next_chunk < dir_chunks {
                    for &w in dir.chunk_words(next_chunk) {
                        buf.extend_from_slice(&w.to_le_bytes());
                    }
                    next_chunk += 1;
                    if buf.len() + bpc_d > page {
                        store.append_page(chain, &buf)?;
                        dir_pages += 1;
                        buf.clear();
                    }
                }
                if !buf.is_empty() {
                    store.append_page(chain, &buf)?;
                    dir_pages += 1;
                    buf.clear();
                }
            } else if !buf.is_empty() {
                store.append_page(chain, &buf)?;
                post_pages += 1;
                buf.clear();
            }
        }

        // Self-describing chain + per-codec build metrics, mirroring the
        // paged dictionary.
        let codec = if use_pef { CodecKind::Pef } else { CodecKind::Plain };
        store.set_chain_descriptor(chain, &ChainCodec { kind: codec, params: Vec::new() }.serialize())?;
        let registry = pool.registry();
        let label = pool.metrics_label();
        registry
            .counter_labeled(names::POOL_PAGE_BYTES, &[("pool", label), ("codec", codec.label())])
            .add((post_pages + skip_pages) * page as u64);
        if dir_pages > 0 {
            registry
                .counter_labeled(
                    names::POOL_PAGE_BYTES,
                    &[("pool", label), ("codec", CodecKind::Plain.label())],
                )
                .add(dir_pages * page as u64);
        }
        if use_pef && rows > 0 {
            // Average Elias-Fano bits per posting, ×100.
            registry
                .gauge_labeled(names::PEF_CHUNK_BITS, &[("pool", label)])
                .set(pef_post_bytes * 8 * 100 / rows);
        }

        let meta = Meta {
            chain: ChainRef { chain, pages: post_pages + skip_pages + dir_pages, page_size: page },
            cardinality,
            rows,
            wp,
            wd: if dir.is_some() { wd } else { BitWidth::ZERO },
            unique,
            post_cpp,
            dir_cpp,
            post_pages,
            mixed_dir_chunks,
            mixed_post_bytes: if mixed_dir_chunks > 0 { mixed_post_bytes } else { 0 },
            dir_start_page: post_pages + skip_pages,
            codec,
            skip_pages,
        };
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
        w.u8(m.wp.bits() as u8);
        w.u8(m.wd.bits() as u8);
        w.u8(u8::from(m.unique));
        w.u64(m.post_cpp);
        w.u64(m.dir_cpp);
        w.u64(m.post_pages);
        w.u64(m.mixed_dir_chunks);
        w.u64(m.mixed_post_bytes as u64);
        w.u64(m.dir_start_page);
        w.u8(match m.codec {
            CodecKind::Plain => 0,
            CodecKind::Fsst => 1,
            CodecKind::Pef => 2,
        });
        w.u64(m.skip_pages);
        w.finish()
    }

    /// Reopens an index from checkpointed metadata over `pool`'s store.
    pub fn open(pool: &BufferPool, bytes: &[u8]) -> CoreResult<Self> {
        let mut r = crate::meta::MetaReader::new(bytes);
        let chain = crate::meta::read_chain(&mut r)?;
        let meta = Meta {
            chain,
            cardinality: r.u64()?,
            rows: r.u64()?,
            wp: BitWidth::new(u32::from(r.u8()?))?,
            wd: BitWidth::new(u32::from(r.u8()?))?,
            unique: r.u8()? != 0,
            post_cpp: r.u64()?,
            dir_cpp: r.u64()?,
            post_pages: r.u64()?,
            mixed_dir_chunks: r.u64()?,
            mixed_post_bytes: r.u64()? as usize,
            dir_start_page: r.u64()?,
            codec: match r.u8()? {
                2 => CodecKind::Pef,
                1 => CodecKind::Fsst,
                _ => CodecKind::Plain,
            },
            skip_pages: r.u64()?,
        };
        r.expect_end()?;
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

    /// True when the chain contains a mixed postinglist+directory page.
    pub fn has_mixed_page(&self) -> bool {
        self.meta.mixed_dir_chunks > 0
    }

    /// The codec the postinglist is stored in.
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
    fn dir_location(&self, e: u64) -> (u64, usize, usize) {
        let di = e / CHUNK_LEN as u64;
        let slot = (e % CHUNK_LEN as u64) as usize;
        let bpc_d = bytes_per_chunk(self.meta.wd);
        if di < self.meta.mixed_dir_chunks {
            let page = self.meta.post_pages - 1; // the mixed page
            let offset = self.meta.mixed_post_bytes + di as usize * bpc_d;
            (page, offset, slot)
        } else {
            let rel = di - self.meta.mixed_dir_chunks;
            let page = self.meta.dir_start_page + rel / self.meta.dir_cpp;
            let offset = ((rel % self.meta.dir_cpp) as usize) * bpc_d;
            (page, offset, slot)
        }
    }

    /// Page number and byte offset of postinglist entry `k`.
    fn post_location(&self, k: u64) -> (u64, usize, usize) {
        let ci = k / CHUNK_LEN as u64;
        let slot = (k % CHUNK_LEN as u64) as usize;
        let bpc_p = bytes_per_chunk(self.meta.wp);
        let page = ci / self.meta.post_cpp;
        let offset = ((ci % self.meta.post_cpp) as usize) * bpc_p;
        (page, offset, slot)
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
        let (page, offset, _) = self.idx.dir_location(e);
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
        let epp = (meta.chain.page_size / 8).max(1) as u64;
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
        if meta.wp.bits() == 0 {
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
        if meta.codec == CodecKind::Pef {
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
        } else {
            let (page, offset, _) = self.idx.post_location(k);
            Self::pin(&self.idx.pool, &meta.chain, &mut self.post_guard, page)?;
            let Some((_, guard)) = self.post_guard.as_ref() else {
                unreachable!("pin above populated the guard slot")
            };
            decode_packed_chunk(guard, offset, meta.wp, &mut buf);
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
    /// Under the PEF codec this is a compressed-domain seek: partitions
    /// whose header bound lies below the target are skipped for the price
    /// of two varints, and at most one Elias-Fano bucket of the landing
    /// partition is scanned — nothing is bulk-decoded. Under the bit-packed
    /// codec it binary-searches the sorted postinglist slice.
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
        if meta.codec == CodecKind::Pef {
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
            return Ok(None);
        }
        // Bit-packed: binary search the sorted slice through the chunk cache.
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.read_post(mid)? < rpos {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo >= end {
            return Ok(None);
        }
        let v = self.read_post(lo)?;
        self.state = Some(IterState { cur: lo + 1, end });
        Ok(Some(v))
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

/// The paper's Eq. 1, kept verbatim for the equivalence test: logical page
/// number of the directory page containing `vid`'s offset, where `b` is the
/// mixed (or first directory) page, `v_first` the offsets on it and
/// `v_page` the offsets per full directory page.
#[cfg(test)]
fn eq1_page(b: u64, v_first: u64, vid: u64, v_page: u64) -> u64 {
    if vid < v_first {
        b
    } else {
        // The paper's 1-based formulation maps to 0-based chunks here: skip
        // past the `v_first` offsets on page b, then stride by `v_page`.
        b + 1 + (vid - v_first) / v_page
    }
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
        build_with(values, card, &PageConfig::tiny())
    }

    fn build_with(
        values: &[u64],
        card: u64,
        config: &PageConfig,
    ) -> (BufferPool, PagedInvertedIndex) {
        let pool = pool();
        let idx = PagedInvertedIndex::build(&pool, config, values, card).unwrap();
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

    /// The legacy bit-packed postinglist layout (mixed page, Eq. 1 layout).
    fn bitpacked() -> PageConfig {
        PageConfig { pef_postings: false, ..PageConfig::tiny() }
    }

    #[test]
    fn posting_runs_match_naive() {
        let values = sample(3000, 40, 1);
        for config in [PageConfig::tiny(), bitpacked()] {
            let (_pool, paged) = build_with(&values, 40, &config);
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
        let (_pool, unique) = build_with(&values, rows, &bitpacked());
        assert!(unique.is_unique());
        assert!(!unique.has_mixed_page());
        let (_pool2, non_unique) = build_with(&sample(rows as usize, rows / 2, 2), rows / 2, &bitpacked());
        assert!(!non_unique.is_unique());
        // The unique chain stores only the postinglist.
        let post_only_pages =
            chunk_count(rows).div_ceil(unique.meta.post_cpp);
        assert_eq!(unique.pages(), post_only_pages);
        for vid in (0..rows).step_by(97) {
            let rpos = values.iter().position(|&v| v == vid).unwrap() as u64;
            assert_eq!(run(&unique, vid, vid), vec![rpos]);
        }
    }

    #[test]
    fn sparse_column_uses_a_mixed_page() {
        // Few rows + small cardinality: postings and directory share a page.
        let values = sample(100, 5, 3);
        let (_pool, idx) = build_with(&values, 5, &bitpacked());
        assert!(idx.has_mixed_page());
        assert_eq!(idx.pages(), idx.meta.post_pages, "no pure directory pages");
        for vid in 0..5 {
            assert_eq!(run(&idx, vid, vid), naive(&values, vid, vid));
        }
        assert_eq!(run(&idx, 0, 4), naive(&values, 0, 4));
    }

    #[test]
    fn lookup_pins_at_most_two_pages() {
        let values = sample(5000, 500, 4);
        let (pool, idx) = build_with(&values, 500, &bitpacked());
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits(Some(payg_resman::PoolLimits::new(0, usize::MAX)));
        let mut it = idx.iter();
        let _ = it.get_first_row_pos(250).unwrap();
        // Everything except the iterator's (≤2) pinned pages is evictable.
        resman.reactive_unload();
        assert!(pool.resident_pages() <= 2);
        // And a full lookup loads at most one directory + one posting page
        // beyond what is already resident.
        let loads_before = pool.metrics().loads;
        let mut it2 = idx.iter();
        let _ = it2.get_first_row_pos(251).unwrap();
        assert!(pool.metrics().loads - loads_before <= 2);
    }

    #[test]
    fn eq1_equivalence_with_chunk_arithmetic() {
        // Build an index whose directory spans the mixed page and several
        // pure pages, then check dir_location against the paper's Eq. 1.
        let values = sample(2100, 1500, 5);
        let (_pool, idx) = build_with(&values, 1500, &bitpacked());
        assert!(idx.has_mixed_page());
        let m = &idx.meta;
        let b = m.post_pages - 1;
        let v_first = m.mixed_dir_chunks * CHUNK_LEN as u64;
        let v_page = m.dir_cpp * CHUNK_LEN as u64;
        for e in 0..=m.cardinality {
            let (page, _, _) = idx.dir_location(e);
            assert_eq!(page, eq1_page(b, v_first, e, v_page), "entry {e}");
        }
    }

    #[test]
    fn pef_parity_with_bitpacked() {
        let values = sample(4000, 300, 11);
        let (pool, pef) = build(&values, 300);
        let (_pool2, packed) = build_with(&values, 300, &bitpacked());
        assert_eq!(pef.codec_kind(), CodecKind::Pef);
        assert_eq!(packed.codec_kind(), CodecKind::Plain);
        for vid in 0..300 {
            assert_eq!(run(&pef, vid, vid), run(&packed, vid, vid), "vid {vid}");
        }
        // The chain file self-describes the posting codec.
        let desc = pool.store().chain_descriptor(pef.meta.chain.chain).unwrap();
        assert_eq!(ChainCodec::deserialize(&desc).unwrap().kind, CodecKind::Pef);
        // Checkpoint metadata round-trips the codec and skip-table layout.
        let reopened = PagedInvertedIndex::open(&pool, &pef.meta_bytes()).unwrap();
        assert_eq!(reopened.codec_kind(), CodecKind::Pef);
        for vid in (0..300).step_by(37) {
            assert_eq!(run(&reopened, vid, vid), run(&packed, vid, vid));
        }
    }

    #[test]
    fn pef_clustered_postings_use_fewer_pages() {
        // Clustered rows: each vid's postings are one consecutive run, the
        // favorable case for Elias-Fano.
        let rows = 20_000u64;
        let values: Vec<u64> = (0..rows).map(|i| i / 200).collect();
        let card = rows / 200;
        let (_p1, pef) = build(&values, card);
        let (_p2, packed) = build_with(&values, card, &bitpacked());
        assert_eq!(pef.codec_kind(), CodecKind::Pef);
        assert!(
            pef.pages() < packed.pages(),
            "pef chain ({} pages incl. skip table) must beat bit-packed ({} pages) on clustered rows",
            pef.pages(),
            packed.pages()
        );
        for vid in (0..card).step_by(7) {
            assert_eq!(run(&pef, vid, vid), run(&packed, vid, vid));
        }
    }

    #[test]
    fn next_row_pos_geq_matches_naive_under_both_codecs() {
        let values = sample(3000, 80, 13);
        for config in [PageConfig::tiny(), bitpacked()] {
            let (_pool, idx) = build_with(&values, 80, &config);
            let mut it = idx.iter();
            for vid in (0..80).step_by(9) {
                let posts = run(&idx, vid, vid);
                for target in [0, 1, posts[0], posts[posts.len() / 2], *posts.last().unwrap(), 2999, 5000] {
                    let naive = posts.iter().copied().find(|&p| p >= target);
                    assert_eq!(
                        it.next_row_pos_geq(vid, target).unwrap(),
                        naive,
                        "vid {vid} target {target} codec {:?}",
                        idx.codec_kind()
                    );
                    // The seek positions the iterator for continuation.
                    if let Some(hit) = naive {
                        let after = posts.iter().copied().find(|&p| p > hit);
                        assert_eq!(it.get_next_row_pos().unwrap(), after);
                    }
                }
            }
        }
    }

    #[test]
    fn pef_lookup_pins_at_most_three_pages() {
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
        // Single row.
        let (_p, idx) = build(&[0], 1);
        assert_eq!(run(&idx, 0, 0), vec![0]);
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

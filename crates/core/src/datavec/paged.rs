//! The page-loadable data vector (paper §3.1).
//!
//! Physical layout (§3.1.1): identifiers are uniformly n-bit packed into
//! chunks of exactly 64, and each page of the chain holds an integral number
//! of chunks. No per-page header is needed — the whole geometry (width,
//! length, chunks per page) lives in the in-memory metadata, so mapping a
//! row position to a logical page number is pure arithmetic. That mapping is
//! what lets a scan load *only* the pages overlapping a requested row range
//! (§3.1.2), and a point or list decode only the pages holding its rows
//! ([`PagedDataVector::decode_on_page`], phase (a) of late materialization).

use crate::waves::{Waves, WAVE_PAGES};
use crate::{CoreError, CoreResult, PageConfig};
use payg_encoding::chunk::{self, bytes_per_chunk, CHUNK_LEN};
use payg_encoding::kernels::{boundary_mask, KernelPredicate, Packed};
use payg_encoding::scan::push_bitmap_positions;
use payg_encoding::{BitPackedVec, BitWidth, VidSet};
use payg_obs::EventKind;
use payg_storage::{BufferPool, ChainRef, PageKey, StorageError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct Meta {
    chain: ChainRef,
    width: BitWidth,
    len: u64,
    chunks_per_page: u64,
    /// Per-page (min, max) value-identifier summaries — the transient
    /// page-summary structure of §3.3 / footnote 2: scans skip pages whose
    /// summary does not overlap the predicate, without loading them.
    summaries: Vec<(u64, u64)>,
}

/// The page-loadable encoded data vector.
pub struct PagedDataVector {
    pool: BufferPool,
    meta: Arc<Meta>,
}

impl PagedDataVector {
    /// Persists a packed vector as a page chain.
    pub fn build(pool: &BufferPool, config: &PageConfig, vec: &BitPackedVec) -> CoreResult<Self> {
        let store = Arc::clone(pool.store());
        let width = vec.width();
        let mut scratch = crate::scratch::ChainScratch::new(pool);
        let chain = scratch.create_chain(config.datavec_page)?;
        let cpp = if width.bits() == 0 {
            0
        } else {
            let per_chunk = bytes_per_chunk(width);
            let cpp = config.datavec_page / per_chunk;
            if cpp == 0 {
                return Err(CoreError::Storage(StorageError::corrupt(format!(
                    "data-vector page of {} bytes cannot hold one chunk at {width} ({per_chunk} bytes)",
                    config.datavec_page
                ))));
            }
            cpp as u64
        };
        let mut pages = 0u64;
        let mut summaries: Vec<(u64, u64)> = Vec::new();
        if cpp > 0 {
            let mut page = Vec::with_capacity(config.datavec_page);
            let mut page_min = u64::MAX;
            let mut page_max = 0u64;
            let mut decoded = [0u64; CHUNK_LEN];
            for ci in 0..vec.chunk_count() {
                for &w in vec.chunk_words(ci) {
                    page.extend_from_slice(&w.to_le_bytes());
                }
                // Track the page's value range for the summary. The trailing
                // chunk's zero padding is excluded.
                chunk::decode_chunk(vec.chunk_words(ci), width, &mut decoded);
                let valid = (vec.len() - ci * CHUNK_LEN as u64).min(CHUNK_LEN as u64) as usize;
                for &v in &decoded[..valid] {
                    page_min = page_min.min(v);
                    page_max = page_max.max(v);
                }
                if (ci + 1) % cpp == 0 {
                    store.append_page(chain, &page)?;
                    pages += 1;
                    page.clear();
                    summaries.push((page_min, page_max));
                    (page_min, page_max) = (u64::MAX, 0);
                }
            }
            if !page.is_empty() {
                store.append_page(chain, &page)?;
                pages += 1;
                summaries.push((page_min, page_max));
            }
        }
        scratch.commit();
        Ok(PagedDataVector {
            pool: pool.clone(),
            meta: Arc::new(Meta {
                chain: ChainRef { chain, pages, page_size: config.datavec_page },
                width,
                len: vec.len(),
                chunks_per_page: cpp,
                summaries,
            }),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.meta.len
    }

    /// True when the vector holds no rows.
    pub fn is_empty(&self) -> bool {
        self.meta.len == 0
    }

    /// The uniform bit width.
    pub fn width(&self) -> BitWidth {
        self.meta.width
    }

    /// Number of pages in the chain.
    pub fn pages(&self) -> u64 {
        self.meta.chain.pages
    }

    /// The store chain id holding this vector's pages — for attributing
    /// traced page events back to the structure that owns them.
    pub fn chain_id(&self) -> u64 {
        self.meta.chain.chain.0
    }

    /// The logical page number holding `rpos` (`None` at width 0, where no
    /// pages exist).
    pub fn page_of(&self, rpos: u64) -> Option<u64> {
        if self.meta.chunks_per_page == 0 {
            return None;
        }
        Some(chunk::chunk_of(rpos) / self.meta.chunks_per_page)
    }

    /// Rows covered by one full page (0 at width 0, where no pages exist).
    pub fn rows_per_page(&self) -> u64 {
        self.meta.chunks_per_page * CHUNK_LEN as u64
    }

    /// The store address of logical page `page_no`.
    pub fn page_key(&self, page_no: u64) -> PageKey {
        PageKey::new(self.meta.chain.chain, page_no)
    }

    /// The buffer pool this vector reads through.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Creates a scan iterator (§3.1.2): a range scan pins the pages that
    /// survive pruning a wave at a time and holds nothing in between.
    pub fn iter(&self) -> PagedDataVectorIterator<'_> {
        PagedDataVectorIterator {
            vec: self,
            cancel: None,
            bitmaps: Vec::new(),
            waves: Waves::default(),
        }
    }

    /// An iterator for one worker of `par_count`: it polls `cancel`
    /// before every wave and stops early — with a partial, to-be-discarded
    /// result — once a sibling has raised it, and raises it itself when one
    /// of its own pages fails.
    pub(crate) fn iter_cancellable<'a>(
        &'a self,
        cancel: &'a AtomicBool,
    ) -> PagedDataVectorIterator<'a> {
        let mut it = self.iter();
        it.cancel = Some(cancel);
        it
    }

    /// The (min, max) value summary of one page (§3.3's transient page
    /// summary).
    pub fn page_summary(&self, page_no: u64) -> (u64, u64) {
        self.meta.summaries[page_no as usize]
    }

    /// Serializes the vector's metadata for a catalog checkpoint. The page
    /// chain itself already lives in the store; only the in-memory residue
    /// (geometry + summaries) needs persisting.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let mut w = crate::meta::MetaWriter::new();
        crate::meta::write_chain(&mut w, &self.meta.chain);
        w.u8(self.meta.width.bits() as u8);
        w.u64(self.meta.len);
        w.u64(self.meta.chunks_per_page);
        w.u64(self.meta.summaries.len() as u64);
        for &(lo, hi) in &self.meta.summaries {
            w.u64(lo);
            w.u64(hi);
        }
        w.finish()
    }

    /// Reopens a vector from checkpointed metadata over `pool`'s store.
    pub fn open(pool: &BufferPool, bytes: &[u8]) -> CoreResult<Self> {
        let mut r = crate::meta::MetaReader::new(bytes);
        let chain = crate::meta::read_chain(&mut r)?;
        let width = BitWidth::new(u32::from(r.u8()?))?;
        let len = r.u64()?;
        let chunks_per_page = r.u64()?;
        let n = r.read_len()?;
        let mut summaries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            summaries.push((r.u64()?, r.u64()?));
        }
        r.expect_end()?;
        if summaries.len() as u64 != chain.pages {
            return Err(CoreError::Storage(StorageError::corrupt(
                "data-vector summaries do not match page count",
            )));
        }
        Ok(PagedDataVector {
            pool: pool.clone(),
            meta: Arc::new(Meta { chain, width, len, chunks_per_page, summaries }),
        })
    }

    /// Reads the whole chain directly from the store — no buffer pool, no
    /// paged resources — and reassembles the resident packed vector. This is
    /// the full-column-load path of default (fully resident) columns.
    pub fn decode_all_direct(&self) -> CoreResult<BitPackedVec> {
        let store = self.pool.store();
        let n = self.meta.width.bits() as usize;
        if n == 0 {
            return Ok(BitPackedVec::from_words(self.meta.width, self.meta.len, Vec::new())?);
        }
        let total_chunks = chunk::chunk_count(self.meta.len);
        let mut words = Vec::with_capacity(total_chunks as usize * n);
        let per_chunk = bytes_per_chunk(self.meta.width);
        let mut remaining = total_chunks;
        for p in 0..self.meta.chain.pages {
            let page = store.read_page(PageKey::new(self.meta.chain.chain, p))?;
            let on_page = remaining.min(self.meta.chunks_per_page) as usize;
            for ci in 0..on_page {
                let base = ci * per_chunk;
                payg_encoding::unaligned::extend_le_words(
                    &page[base..base + n * 8],
                    &mut words,
                );
            }
            remaining -= on_page as u64;
        }
        Ok(BitPackedVec::from_words(self.meta.width, self.meta.len, words)?)
    }

    /// Batch point-decode against one pinned page: writes the identifier
    /// at every position of `rows` — ascending, all on the logical page
    /// whose bytes are `page` — into `out` (same length). Each chunk is
    /// unpacked once; a chunk holding a single requested row decodes just
    /// that slot, straight from the one or two words holding it. This is the data-vector step of phased late
    /// materialization ([`crate::column::materialize`]): the caller plans
    /// which pages the rows touch, pins them as a batch, and decodes from
    /// the returned guards. Width-0 vectors have no pages and never get here.
    pub(crate) fn decode_on_page(&self, page: &[u8], rows: &[u64], out: &mut [u64]) {
        debug_assert_eq!(rows.len(), out.len());
        let width = self.meta.width;
        let n = width.bits() as usize;
        let per_chunk = bytes_per_chunk(width);
        // Word and value buffers of a whole-chunk decode, set up by the
        // first chunk holding more than one requested row.
        let mut buffers: Option<([u64; 64], [u64; CHUNK_LEN])> = None;
        let mut k = 0;
        while k < rows.len() {
            let ci = chunk::chunk_of(rows[k]);
            let run = rows[k..].iter().take_while(|&&r| chunk::chunk_of(r) == ci).count();
            let base = (ci % self.meta.chunks_per_page) as usize * per_chunk;
            let bytes = &page[base..base + per_chunk];
            if run == 1 {
                out[k] = chunk::decode_slot_bytes(bytes, width, chunk::slot_of(rows[k]));
            } else {
                let (words, decoded) = match buffers {
                    Some(ref mut b) => b,
                    None => buffers.insert(([0; 64], [0; CHUNK_LEN])),
                };
                payg_encoding::unaligned::fill_le_words(bytes, &mut words[..n]);
                chunk::decode_chunk(&words[..n], width, decoded);
                for j in k..k + run {
                    out[j] = decoded[chunk::slot_of(rows[j])];
                }
            }
            k += run;
        }
    }

    pub(super) fn check_range(&self, from: u64, to: u64) -> CoreResult<()> {
        if from > to || to > self.meta.len {
            return Err(CoreError::RowOutOfBounds { rpos: to, len: self.meta.len });
        }
        Ok(())
    }

    /// Emits the `DataScan` event of one `search` or `count` over this
    /// vector, tagged with the calling thread's span — one relaxed load
    /// while tracing is off.
    fn trace_scan(&self, pruned: u64, chunks: u64, matches: u64) {
        let tracer = self.pool.registry().tracer();
        if tracer.enabled() {
            let span = tracer.current_span();
            tracer.emit_tagged(EventKind::DataScan, self.chain_id(), pruned, chunks, span, matches);
        }
    }
}

/// Scan iterator over a [`PagedDataVector`]: `search` and `count` over row
/// ranges, pinning a wave of pages at a time. Point and list decodes are
/// not its business — they are phase (a) of late materialization. Each call
/// that evaluates its predicate over the pages emits one
/// [`EventKind::DataScan`] event: pages pruned, chunks scanned, matches.
pub struct PagedDataVectorIterator<'a> {
    vec: &'a PagedDataVector,
    /// The count-wide cancellation flag of a `par_count` worker.
    cancel: Option<&'a AtomicBool>,
    /// Reusable per-page result-bitmap buffer (one word per chunk).
    bitmaps: Vec<u64>,
    /// The buffers a scan pins its waves with.
    waves: Waves,
}

impl PagedDataVectorIterator<'_> {
    /// `search(range-of-rows, set-of-vids)`: appends row positions in
    /// `from..to` whose identifier is in `set`. Pages outside the range are
    /// never loaded; surviving pages are pinned once, a wave at a time, and
    /// evaluated in place — one bit-width-specialized kernel call over the
    /// pinned bytes each — producing per-chunk result bitmaps that are
    /// materialized into positions late. A page that fails to load ends the
    /// scan with [`CoreError::ScanAborted`] naming it.
    pub fn search(
        &mut self,
        from: u64,
        to: u64,
        set: &VidSet,
        out: &mut Vec<u64>,
    ) -> CoreResult<()> {
        self.vec.check_range(from, to)?;
        if from == to || set.is_empty() {
            return Ok(());
        }
        let pred = KernelPredicate::new(self.vec.meta.width, set);
        if pred.never_matches() {
            return Ok(());
        }
        if self.vec.meta.width.bits() == 0 || pred.always_matches() {
            if pred.always_matches() {
                out.extend(from..to);
            }
            return Ok(());
        }
        let matched_from = out.len();
        let mut bitmaps = std::mem::take(&mut self.bitmaps);
        let (pruned, chunks) = self.for_each_chunk_run(from, to, set, |run, first_ci| {
            bitmaps.clear();
            pred.scan(Packed::Bytes(run), &mut bitmaps);
            for (k, &bm) in bitmaps.iter().enumerate() {
                if bm != 0 {
                    push_bitmap_positions(bm, (first_ci + k as u64) * CHUNK_LEN as u64, from, to, out);
                }
            }
        })?;
        self.bitmaps = bitmaps;
        self.vec.trace_scan(pruned, chunks, (out.len() - matched_from) as u64);
        Ok(())
    }

    /// Counts rows in `from..to` whose identifier is in `set` without
    /// materializing positions: each page's chunk run is counted in place by
    /// one kernel call that sums lane hits directly, building a bitmap only
    /// for the run's two edge chunks (masked to the row range).
    pub fn count(&mut self, from: u64, to: u64, set: &VidSet) -> CoreResult<u64> {
        self.vec.check_range(from, to)?;
        if from == to || set.is_empty() {
            return Ok(0);
        }
        let pred = KernelPredicate::new(self.vec.meta.width, set);
        if pred.never_matches() {
            return Ok(0);
        }
        if self.vec.meta.width.bits() == 0 || pred.always_matches() {
            return Ok(if pred.always_matches() { to - from } else { 0 });
        }
        let per_chunk = bytes_per_chunk(self.vec.meta.width);
        let mut total = 0u64;
        let (pruned, chunks) = self.for_each_chunk_run(from, to, set, |run, first_ci| {
            let last_ci = first_ci + (run.len() / per_chunk) as u64 - 1;
            let (head, tail) = (boundary_mask(first_ci, from, to), boundary_mask(last_ci, from, to));
            total += pred.count(Packed::Bytes(run), head, tail);
        })?;
        self.vec.trace_scan(pruned, chunks, total);
        Ok(total)
    }

    /// Applies `body(run, first_ci)` to every page-contiguous run of chunks
    /// overlapping `from..to` that survives page-summary pruning: `run` is
    /// the run's packed bytes inside the pinned page — one pin per page, no
    /// copy — starting at chunk `first_ci`. The page summaries name the
    /// surviving pages before storage is touched, so they are pinned a wave
    /// of at most [`WAVE_PAGES`] at a time: a cold scan's consecutive pages
    /// arrive as coalesced ranged reads, and no guard is held across a
    /// wave's submit-and-wait. Returns the pages pruned and the chunks
    /// scanned.
    fn for_each_chunk_run(
        &mut self,
        from: u64,
        to: u64,
        set: &VidSet,
        mut body: impl FnMut(&[u8], u64),
    ) -> CoreResult<(u64, u64)> {
        let vec = self.vec;
        let (mut pruned, mut chunks_scanned) = (0u64, 0u64);
        let per_chunk = bytes_per_chunk(vec.meta.width);
        let cpp = vec.meta.chunks_per_page;
        let first = chunk::chunk_of(from);
        let last = chunk::chunk_of(to - 1);
        let last_page = last / cpp;
        // The surviving pages of the wave being planned.
        let mut pages = [0u64; WAVE_PAGES];
        let mut page_no = first / cpp;
        while page_no <= last_page && !self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            // Page-summary pruning (§3.3): skip whole pages whose value
            // range cannot match, without loading them.
            let mut planned = 0;
            while page_no <= last_page && planned < WAVE_PAGES {
                let (pmin, pmax) = vec.meta.summaries[page_no as usize];
                if set.overlaps(pmin, pmax) {
                    pages[planned] = page_no;
                    planned += 1;
                } else {
                    pruned += 1;
                }
                page_no += 1;
            }
            let mut scanned = 0;
            let wave = self.waves.for_each_page(
                &vec.pool,
                &pages[..planned],
                |&page| vec.page_key(page),
                |&page, guard| {
                    let ci = first.max(page * cpp);
                    let chunks = last.min((page + 1) * cpp - 1) - ci + 1;
                    let base = (ci % cpp) as usize * per_chunk;
                    body(&guard[base..base + chunks as usize * per_chunk], ci);
                    chunks_scanned += chunks;
                    scanned += 1;
                    Ok(())
                },
            );
            if let Err(source) = wave {
                if let Some(cancel) = self.cancel {
                    cancel.store(true, Ordering::Relaxed);
                }
                // Pages are stepped in plan order and scanning one cannot
                // fail: the wave stopped at the page that did not pin.
                let key = vec.page_key(pages[scanned]);
                return Err(CoreError::ScanAborted {
                    chain: key.chain.0,
                    page_no: key.page_no,
                    source: Box::new(source),
                });
            }
        }
        Ok((pruned, chunks_scanned))
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
        (0..len as u64)
            .map(|i| {
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    % card
            })
            .collect()
    }

    fn build(values: &[u64]) -> (BufferPool, PagedDataVector, BitPackedVec) {
        let pool = pool();
        let packed = BitPackedVec::from_values(values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        (pool, paged, packed)
    }

    /// The identifiers at `rows` (ascending) read the way phase (a) of late
    /// materialization reads them: each page the rows touch pinned once and
    /// decoded in place. A width-0 vector has no pages; its rows are all 0.
    fn decode(paged: &PagedDataVector, rows: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; rows.len()];
        let rpp = paged.rows_per_page();
        let mut lo = 0;
        while rpp > 0 && lo < rows.len() {
            let page = rows[lo] / rpp;
            let hi = lo + rows[lo..].iter().take_while(|&&r| r / rpp == page).count();
            let guard = paged.pool().pin(paged.page_key(page)).unwrap();
            paged.decode_on_page(&guard, &rows[lo..hi], &mut out[lo..hi]);
            lo = hi;
        }
        out
    }

    /// A page-loadable INTEGER column over `values`.
    fn column(pool: &BufferPool, values: &[u64]) -> crate::Column {
        let values: Vec<crate::Value> = values.iter().map(|&v| crate::Value::Integer(v as i64)).collect();
        crate::ColumnBuilder::new(crate::DataType::Integer)
            .policy(crate::LoadPolicy::PageLoadable)
            .build(pool, &PageConfig::tiny(), &values)
            .unwrap()
            .column
    }

    #[test]
    fn decode_on_page_matches_packed_across_pages() {
        let values = sample(3000, 1000, 1);
        let (_pool, paged, packed) = build(&values);
        assert!(paged.pages() > 5, "tiny pages must force a multi-page chain");
        let rows: Vec<u64> = (0..values.len() as u64).collect();
        let expect: Vec<u64> = rows.iter().map(|&r| packed.get(r)).collect();
        assert_eq!(expect, values);
        assert_eq!(decode(&paged, &rows), expect);
        // Sparse rows: one slot of a chunk decodes alone.
        let sparse: Vec<u64> = rows.iter().copied().step_by(97).collect();
        let expect: Vec<u64> = sparse.iter().map(|&r| packed.get(r)).collect();
        assert_eq!(decode(&paged, &sparse), expect);
    }

    #[test]
    fn decoded_ranges_match_slice() {
        let values = sample(1000, 300, 2);
        let (_pool, paged, _) = build(&values);
        for (from, to) in [(0u64, 0u64), (0, 1000), (63, 65), (100, 500), (999, 1000)] {
            let rows: Vec<u64> = (from..to).collect();
            assert_eq!(decode(&paged, &rows), &values[from as usize..to as usize], "{from}..{to}");
        }
    }

    #[test]
    fn search_matches_naive_and_loads_only_needed_pages() {
        let values = sample(4000, 50, 3);
        let (pool, paged, _) = build(&values);
        let set = VidSet::range(10, 20);
        let mut out = Vec::new();
        // Restricted row range: only its pages load.
        let mut it = paged.iter();
        it.search(1000, 1200, &set, &mut out).unwrap();
        let expect: Vec<u64> =
            (1000..1200).filter(|&i| set.contains(values[i as usize])).collect();
        assert_eq!(out, expect);
        let loaded = pool.metrics().loads;
        assert!(
            loaded < paged.pages(),
            "range-restricted search loaded {loaded} of {} pages",
            paged.pages()
        );
        // Full scan agrees with the reference.
        out.clear();
        paged.iter().search(0, 4000, &set, &mut out).unwrap();
        let expect: Vec<u64> = (0..4000).filter(|&i| set.contains(values[i as usize])).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn one_row_read_loads_one_data_page_and_holds_none() {
        use crate::column::ColumnRead;
        let values = sample(3000, 1000, 6);
        let pool = pool();
        let col = column(&pool, &values);
        let crate::Column::Paged(paged) = &col else { unreachable!("built page loadable") };
        let crate::column::StoredRows::Plain { data, .. } = &paged.parts().rows else {
            unreachable!("the sample repeats values")
        };
        assert!(data.pages() > 5, "tiny pages must force a multi-page chain");
        let data_pages_resident =
            || (0..data.pages()).filter(|&p| pool.is_resident(data.page_key(p))).count();
        // A cold point read is a one-row late materialization: it loads the
        // one data-vector page holding the row, and releases every pin.
        let got = col.get_values(&[2999]).unwrap();
        assert_eq!(got, vec![crate::Value::Integer(values[2999] as i64)]);
        assert_eq!(data_pages_resident(), 1, "one data-vector page per one-row read");
        assert_eq!(pool.live_pins(), 0);
        let resman = pool.resource_manager().clone();
        resman.set_paged_limits(Some(payg_resman::PoolLimits::new(0, usize::MAX)));
        resman.reactive_unload();
        assert_eq!(pool.resident_pages(), 0, "a point read leaves no page pinned");
        // Nor is anything held across a scan's waves or after them.
        let mut out = Vec::new();
        data.iter().search(0, 3000, &VidSet::Single(0), &mut out).unwrap();
        resman.reactive_unload();
        assert_eq!(pool.resident_pages(), 0, "a scan leaves no page pinned");
    }

    #[test]
    fn search_pins_each_page_once() {
        let values = sample(4000, 500, 9);
        let (pool, paged, _) = build(&values);
        let set = VidSet::range(0, 499);
        let pins = |pool: &BufferPool| {
            let m = pool.metrics();
            m.hits + m.loads
        };
        let mut it = paged.iter();
        let mut out = Vec::new();
        it.search(0, 4000, &set, &mut out).unwrap();
        assert_eq!(out.len(), 4000);
        assert_eq!(pins(&pool), paged.pages(), "one pin per page on a cold full scan");
        // A warm re-scan pins every page once more — never one pin per chunk.
        out.clear();
        it.search(0, 4000, &set, &mut out).unwrap();
        assert_eq!(out.len(), 4000);
        assert_eq!(pins(&pool), 2 * paged.pages(), "one pin per page on the warm re-scan");
    }

    #[test]
    fn count_matches_naive() {
        let values = sample(3000, 300, 10);
        let (_pool, paged, _) = build(&values);
        let mut it = paged.iter();
        for set in [VidSet::Single(7), VidSet::range(20, 80), VidSet::from_vids(vec![0, 150, 299])] {
            for (from, to) in [(0u64, 3000u64), (63, 65), (100, 2500), (2999, 3000), (64, 64)] {
                let expect =
                    (from..to).filter(|&i| set.contains(values[i as usize])).count() as u64;
                assert_eq!(it.count(from, to, &set).unwrap(), expect, "{set:?} {from}..{to}");
            }
        }
    }

    #[test]
    fn count_equals_search_len_across_chunk_and_page_boundaries() {
        // Every (from, to) built from positions around chunk and page edges,
        // at widths on each side of the window geometry (8, 4 and 2 lanes,
        // dividing and not) — the count kernel sums lane hits for interior
        // chunks and masks a bitmap for the two edge chunks of every page.
        for (card, seed) in [(7u64, 1u64), (100, 2), (5000, 3), (100_000, 4), (1 << 31, 5)] {
            let values = sample(1500, card, seed);
            let (_pool, paged, _) = build(&values);
            let rpp = paged.rows_per_page();
            let mut edges = vec![0, 1, 63, 64, 65, 1499, 1500];
            for page in 1..=2 {
                edges.extend([page * rpp - 1, page * rpp, page * rpp + 1, page * rpp + 64]);
            }
            edges.retain(|&e| e <= 1500);
            edges.sort_unstable();
            edges.dedup();
            let third = card / 3;
            for set in [
                VidSet::Single(values[77]),
                VidSet::range(third, 2 * third),
                VidSet::from_vids(vec![values[5], values[900], third, card - 1]),
            ] {
                let mut it = paged.iter();
                for &from in &edges {
                    for &to in edges.iter().filter(|&&to| to >= from) {
                        let expect =
                            (from..to).filter(|&i| set.contains(values[i as usize])).count();
                        let mut rows = Vec::new();
                        it.search(from, to, &set, &mut rows).unwrap();
                        assert_eq!(rows.len(), expect, "search card={card} {set:?} {from}..{to}");
                        let n = it.count(from, to, &set).unwrap();
                        assert_eq!(n, expect as u64, "count card={card} {set:?} {from}..{to}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_distinct_value_has_no_pages() {
        let values = vec![0u64; 1000];
        let (_pool, paged, _) = build(&values);
        assert_eq!(paged.pages(), 0);
        assert_eq!(paged.width().bits(), 0);
        assert_eq!(decode(&paged, &[5, 6, 7, 999]), vec![0; 4]);
        let mut it = paged.iter();
        let mut out = Vec::new();
        it.search(10, 20, &VidSet::Single(0), &mut out).unwrap();
        assert_eq!(out, (10..20).collect::<Vec<u64>>());
        out.clear();
        it.search(10, 20, &VidSet::Single(1), &mut out).unwrap();
        assert!(out.is_empty());
        // A column over one distinct value reads it back from no page.
        use crate::column::ColumnRead;
        let pool = pool();
        let col = column(&pool, &[42; 1000]);
        let read = col.get_values(&[999, 5, 6, 7]).unwrap();
        assert_eq!(read, vec![crate::Value::Integer(42); 4]);
        assert_eq!(col.vid_counts(&[5, 6, 7]).unwrap(), vec![(0, 3)]);
        assert_eq!(pool.metrics().loads, 1, "the one dictionary page, no data-vector page");
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        use crate::column::ColumnRead;
        let values = sample(100, 10, 7);
        let (pool, paged, _) = build(&values);
        let mut it = paged.iter();
        let mut out = Vec::new();
        assert!(it.search(0, 101, &VidSet::Single(0), &mut out).is_err());
        assert!(it.count(50, 101, &VidSet::Single(0)).is_err());
        let col = column(&pool, &values);
        let oob = |r: CoreResult<Vec<crate::Value>>| matches!(r, Err(CoreError::RowOutOfBounds { .. }));
        assert!(oob(col.get_values(&[100])));
        assert!(oob(col.get_values(&[3, 100, 50])));
    }

    #[test]
    fn page_of_arithmetic() {
        let values = sample(3000, 256, 8); // 8-bit → 512 bytes/chunk? no: 8 bit = 8 words = 64 B
        let (_pool, paged, _) = build(&values);
        // tiny page = 256 B; 8-bit chunks are 64 B → 4 chunks (256 rows) per page.
        assert_eq!(paged.page_of(0), Some(0));
        assert_eq!(paged.page_of(255), Some(0));
        assert_eq!(paged.page_of(256), Some(1));
        assert_eq!(paged.pages(), 3000u64.div_ceil(256));
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;

    /// A clustered layout (values sorted by row) makes summaries selective.
    #[test]
    fn summaries_prune_page_loads_on_clustered_data() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let values: Vec<u64> = (0..4096u64).map(|i| i / 16).collect(); // sorted, card 256
        let packed = BitPackedVec::from_values(&values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        assert!(paged.pages() > 4);
        // Summaries are tight on clustered data.
        let (min0, max0) = paged.page_summary(0);
        let (minl, maxl) = paged.page_summary(paged.pages() - 1);
        assert!(max0 < minl, "clustered pages have disjoint ranges");
        assert_eq!(min0, 0);
        assert_eq!(maxl, 255);
        // A point search touches only the page(s) whose summary matches.
        let mut out = Vec::new();
        paged.iter().search(0, 4096, &VidSet::Single(200), &mut out).unwrap();
        let expect: Vec<u64> = (0..4096).filter(|&i| values[i as usize] == 200).collect();
        assert_eq!(out, expect);
        let loads = pool.metrics().loads;
        assert!(
            loads <= 2,
            "summary pruning must load at most the matching page(s), loaded {loads} of {}",
            paged.pages()
        );
        // A disjoint predicate loads nothing at all.
        let before = pool.metrics().loads;
        out.clear();
        paged.iter().search(0, 4096, &VidSet::Single(9999), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(pool.metrics().loads, before, "no page loads for a non-overlapping predicate");
    }

    /// Pruning never changes results on unclustered data (false positives
    /// are pruned by the scan itself, as the paper notes).
    #[test]
    fn pruning_preserves_results_on_random_data() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let values: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 97)
            .collect();
        let packed = BitPackedVec::from_values(&values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        for set in [VidSet::Single(13), VidSet::range(90, 96), VidSet::from_vids(vec![0, 50, 96])] {
            let mut out = Vec::new();
            paged.iter().search(0, 2000, &set, &mut out).unwrap();
            let expect: Vec<u64> =
                (0..2000).filter(|&i| set.contains(values[i as usize])).collect();
            assert_eq!(out, expect, "{set:?}");
        }
    }
}

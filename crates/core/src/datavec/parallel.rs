//! Parallel segmented scans over data vectors.
//!
//! A scan splits its row range into page-aligned [`ScanPartition`]s *after*
//! page-summary pruning (§3.3): pages whose (min, max) summary cannot match
//! the predicate are excluded before the split, so workers divide only the
//! pages that will actually be read. Each worker drives its own stateful,
//! repositioning iterator — holding a small bounded set of pinned pages via
//! its guard cache, in the spirit of §3.1.2's single-pin iterator — plus
//! asynchronous read-ahead for its upcoming surviving pages: an adaptive
//! window of prefetch submissions to the pool's cold-path I/O stage whose
//! depth tracks completion latency versus consumption rate
//! ([`StagedReadAhead`]).
//! Per-segment results are concatenated in partition order, which makes the
//! output bit-identical to the sequential scan.
//!
//! Faults abort cooperatively: workers poll a shared cancellation flag at
//! every page boundary, the first failing worker raises it, and the scan
//! surfaces one [`CoreError::ScanAborted`] naming the failing (chain, page)
//! while the remaining workers stop instead of finishing doomed partitions.

use crate::datavec::PagedDataVector;
use crate::{CoreError, CoreResult};
use payg_encoding::chunk::CHUNK_LEN;
use payg_encoding::{scan, BitPackedVec, VidSet};
use payg_obs::{QueryCtx, ScanProfile, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// How a scan may parallelize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Maximum worker threads (1 = sequential on the calling thread).
    pub workers: usize,
    /// Whether each worker reads ahead of its cursor through the pool's
    /// I/O stage. Only affects paged scans.
    pub prefetch: bool,
}

impl ScanOptions {
    /// Sequential scan on the calling thread (the default).
    pub const fn sequential() -> Self {
        ScanOptions { workers: 1, prefetch: false }
    }

    /// Parallel scan with `workers` threads and read-ahead enabled.
    pub fn with_workers(workers: usize) -> Self {
        ScanOptions { workers: workers.max(1), prefetch: true }
    }
}

impl Default for ScanOptions {
    fn default() -> Self {
        Self::sequential()
    }
}

/// One worker's share of a segmented scan: a row range whose interior
/// boundaries fall on page (paged) or chunk (resident) boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPartition {
    /// First row (inclusive).
    pub from: u64,
    /// One past the last row.
    pub to: u64,
}

impl ScanPartition {
    /// Rows covered.
    pub fn rows(&self) -> u64 {
        self.to - self.from
    }
}

/// Splits the scan range `from..to` over `vec`'s page chain into at most
/// `workers` partitions. Pages whose summary does not overlap `set` are
/// pruned *first*; the surviving pages are divided into contiguous groups of
/// near-equal size, so workers are balanced by pages actually read, not by
/// raw row count. Returns no partitions when every page is pruned.
pub fn scan_partitions(
    vec: &PagedDataVector,
    from: u64,
    to: u64,
    set: Option<&VidSet>,
    workers: usize,
) -> Vec<ScanPartition> {
    if from >= to {
        return Vec::new();
    }
    let rpp = vec.rows_per_page();
    if rpp == 0 {
        // Width 0: no pages exist, the scan is pure arithmetic.
        return vec![ScanPartition { from, to }];
    }
    let first = from / rpp;
    let last = (to - 1) / rpp;
    let surviving: Vec<u64> = (first..=last)
        .filter(|&p| {
            set.is_none_or(|s| {
                let (lo, hi) = vec.page_summary(p);
                s.overlaps(lo, hi)
            })
        })
        .collect();
    if surviving.is_empty() {
        return Vec::new();
    }
    let w = workers.max(1).min(surviving.len());
    let base = surviving.len() / w;
    let rem = surviving.len() % w;
    let mut parts = Vec::with_capacity(w);
    let mut idx = 0;
    for i in 0..w {
        let take = base + usize::from(i < rem);
        let group = &surviving[idx..idx + take];
        idx += take;
        parts.push(ScanPartition {
            from: from.max(group[0] * rpp),
            to: to.min((group[group.len() - 1] + 1) * rpp),
        });
    }
    parts
}

/// Wraps a worker's failure in [`CoreError::ScanAborted`], naming the page
/// the scan died on. Storage errors that carry their own page address
/// (checksum mismatches, quarantine hits, failed single-flight loads) name
/// it directly; anything else is attributed to the page the worker was
/// scanning when the error surfaced.
fn scan_abort(vec: &PagedDataVector, page_no: u64, source: CoreError) -> CoreError {
    let key = match &source {
        CoreError::Storage(e) => e.page_key().unwrap_or_else(|| vec.page_key(page_no)),
        _ => vec.page_key(page_no),
    };
    CoreError::ScanAborted { chain: key.chain.0, page_no: key.page_no, source: Box::new(source) }
}

/// Deadline-aware read-ahead window for a scan worker over the pool's
/// cold-path I/O stage:
/// the worker keeps up to `depth` surviving pages submitted ahead of its
/// cursor via [`payg_storage::BufferPool::prefetch_submit`] — adjacent
/// submissions coalesce into ranged reads inside the stage. The depth
/// adapts to completion latency versus consumption rate: arriving at a page
/// that is *still not resident* means the stage is losing the race, so the
/// window doubles (up to [`Self::MAX_DEPTH`]); a long streak of warm
/// arrivals means the window is outrunning the scan, so it shrinks back.
struct StagedReadAhead {
    /// Surviving pages to keep submitted ahead of the scan cursor.
    depth: u64,
    /// First page number not yet considered for submission.
    cursor: u64,
    /// Consecutive pages found resident on arrival.
    warm_streak: u32,
}

impl StagedReadAhead {
    const INITIAL_DEPTH: u64 = 2;
    const MAX_DEPTH: u64 = 32;
    /// Warm arrivals in a row before the window halves.
    const SHRINK_AFTER: u32 = 8;

    fn new() -> Self {
        StagedReadAhead { depth: Self::INITIAL_DEPTH, cursor: 0, warm_streak: 0 }
    }

    /// Feed the adaptation signal: was the page the worker just arrived at
    /// already resident?
    fn observe(&mut self, resident: bool) {
        if resident {
            self.warm_streak += 1;
            if self.warm_streak >= Self::SHRINK_AFTER && self.depth > Self::INITIAL_DEPTH {
                self.depth = (self.depth / 2).max(Self::INITIAL_DEPTH);
                self.warm_streak = 0;
            }
        } else {
            self.warm_streak = 0;
            self.depth = (self.depth * 2).min(Self::MAX_DEPTH);
        }
    }

    /// Submit prefetches so that up to `depth` surviving pages beyond
    /// `page` (bounded by `last`) are in flight. Pages already considered
    /// (below the cursor) are never re-submitted; a submission the stage
    /// sheds under queue pressure is simply dropped — the demand pin will
    /// load it.
    fn top_up(
        &mut self,
        vec: &PagedDataVector,
        page: u64,
        last: u64,
        survives: &impl Fn(u64) -> bool,
    ) {
        let mut ahead = 0u64;
        for p in (page + 1)..=last {
            if ahead == self.depth {
                break;
            }
            if !survives(p) {
                continue;
            }
            ahead += 1;
            if p < self.cursor {
                continue;
            }
            self.cursor = p + 1;
            let key = vec.page_key(p);
            if !vec.pool().is_resident(key) {
                vec.pool().prefetch_submit(key);
            }
        }
    }
}

/// Scans one partition page by page with a private repositioning iterator
/// (one pin) and, when enabled, a private read-ahead window over the
/// upcoming surviving pages. Before each page the worker polls the scan-wide `cancel`
/// flag — first error wins: the worker that hits a bad page raises the flag
/// and returns [`CoreError::ScanAborted`] naming it, and every other worker
/// quits at its next page boundary instead of finishing doomed work.
/// Returns the matches alongside the worker's own [`ScanProfile`].
fn scan_partition_worker(
    vec: &PagedDataVector,
    part: ScanPartition,
    set: &VidSet,
    prefetch: bool,
    cancel: &AtomicBool,
) -> CoreResult<(Vec<u64>, ScanProfile)> {
    let mut out = Vec::new();
    let rpp = vec.rows_per_page();
    let mut it = vec.iter();
    if rpp == 0 {
        // Width 0: no pages exist, the scan is pure arithmetic.
        it.search(part.from, part.to, set, &mut out)?;
        return Ok((out, it.profile()));
    }
    let survives = |p: u64| {
        let (lo, hi) = vec.page_summary(p);
        set.overlaps(lo, hi)
    };
    // Read-ahead: the worker keeps an *adaptive window* of prefetch
    // submissions to the I/O stage ahead of its cursor (`StagedReadAhead`).
    let mut window = StagedReadAhead::new();
    let first = part.from / rpp;
    let last = (part.to - 1) / rpp;
    for page in first..=last {
        if cancel.load(Ordering::Relaxed) {
            break;
        }
        if !survives(page) {
            // Credit the pruned page to the iterator so profiles (and the
            // registry's scan counters) match the sequential scan's.
            it.note_pruned();
            continue;
        }
        // Read ahead: start loading upcoming surviving pages before scanning
        // this one, so the store latency overlaps the predicate work. The
        // pool's single-flight load states make our later pin join that load
        // instead of duplicating it.
        if prefetch {
            window.observe(vec.pool().is_resident(vec.page_key(page)));
            window.top_up(vec, page, last, &survives);
        }
        let lo = part.from.max(page * rpp);
        let hi = part.to.min((page + 1) * rpp);
        if let Err(e) = it.search(lo, hi, set, &mut out) {
            cancel.store(true, Ordering::Relaxed);
            return Err(scan_abort(vec, page, e));
        }
    }
    Ok((out, it.profile()))
}

/// [`scan_partition_worker`]'s COUNT twin: popcounts one partition page by
/// page, polling `cancel` at every page boundary. Page-summary pruning
/// happens inside [`crate::datavec::PagedDataVectorIterator::count`], which
/// sees each page's full chunk run.
fn count_partition_worker(
    vec: &PagedDataVector,
    part: ScanPartition,
    set: &VidSet,
    cancel: &AtomicBool,
) -> CoreResult<u64> {
    let rpp = vec.rows_per_page();
    let mut it = vec.iter();
    if rpp == 0 {
        return it.count(part.from, part.to, set);
    }
    let mut total = 0u64;
    let first = part.from / rpp;
    let last = (part.to - 1) / rpp;
    for page in first..=last {
        if cancel.load(Ordering::Relaxed) {
            break;
        }
        let lo = part.from.max(page * rpp);
        let hi = part.to.min((page + 1) * rpp);
        match it.count(lo, hi, set) {
            Ok(n) => total += n,
            Err(e) => {
                cancel.store(true, Ordering::Relaxed);
                return Err(scan_abort(vec, page, e));
            }
        }
    }
    Ok(total)
}

impl PagedDataVector {
    /// Parallel `search(range-of-rows, set-of-vids)`: identical results to
    /// [`crate::datavec::PagedDataVectorIterator::search`] over the same
    /// range, computed by up to `opts.workers` segment workers. Each worker
    /// holds one pinned page (plus its read-ahead window when enabled); pruned
    /// pages are skipped before partitioning. A failing page aborts the
    /// whole scan with [`CoreError::ScanAborted`] — see the module docs.
    pub fn par_search(
        &self,
        from: u64,
        to: u64,
        set: &VidSet,
        opts: ScanOptions,
    ) -> CoreResult<Vec<u64>> {
        self.par_search_profiled(from, to, set, opts).map(|(out, _)| out)
    }

    /// [`PagedDataVector::par_search`] plus the merged [`ScanProfile`] of
    /// every segment worker: per-worker kernel figures are summed
    /// (`dispatch_width` and `elapsed_ns` take the maximum), the cold/warm
    /// pool split is measured as this pool's metrics delta around the scan,
    /// and the wall-clock duration is recorded in the registry's `scan_ns`
    /// histogram.
    pub fn par_search_profiled(
        &self,
        from: u64,
        to: u64,
        set: &VidSet,
        opts: ScanOptions,
    ) -> CoreResult<(Vec<u64>, ScanProfile)> {
        if from > to || to > self.len() {
            return Err(CoreError::RowOutOfBounds { rpos: to, len: self.len() });
        }
        let mut out = Vec::new();
        let mut profile = ScanProfile::default();
        if from == to || set.is_empty() {
            return Ok((out, profile));
        }
        let before = self.pool().metrics();
        // Flight recorder: each worker's partition runs under its own
        // scan-partition span, parented to whatever query span the caller
        // has open. The context must be captured here — thread locals do
        // not follow `std::thread::scope`.
        let tracer = self.pool().registry().tracer();
        let ctx = QueryCtx::current(tracer);
        let started = Instant::now();
        if self.width().bits() == 0 {
            let mut it = self.iter();
            it.search(from, to, set, &mut out)?;
            profile = it.profile();
        } else {
            // Cold scans are I/O-bound: more workers than cores still helps,
            // because they overlap page-load latency. A fully-resident range
            // is CPU-bound, so extra workers beyond the actual cores only add
            // scheduling overhead — cap them.
            let mut workers = opts.workers;
            if workers > 1 {
                let rpp = self.rows_per_page();
                let all_resident = ((from / rpp)..=((to - 1) / rpp))
                    .all(|p| self.pool().is_resident(self.page_key(p)));
                if all_resident {
                    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                    workers = workers.min(cores);
                }
            }
            let parts = scan_partitions(self, from, to, Some(set), workers);
            let cancel = AtomicBool::new(false);
            let cancel = &cancel;
            match parts.as_slice() {
                [] => {}
                [only] => {
                    let _span = ctx.enter(tracer, SpanKind::ScanPartition, only.from);
                    let (segment, p) =
                        scan_partition_worker(self, *only, set, opts.prefetch, cancel)?;
                    out = segment;
                    profile = p;
                }
                many => std::thread::scope(|s| -> CoreResult<()> {
                    let handles: Vec<_> = many
                        .iter()
                        .map(|&part| {
                            s.spawn(move || {
                                let _span =
                                    ctx.enter(tracer, SpanKind::ScanPartition, part.from);
                                scan_partition_worker(self, part, set, opts.prefetch, cancel)
                            })
                        })
                        .collect();
                    // Joining in partition order keeps the concatenation
                    // ascending — bit-identical to the sequential scan.
                    for h in handles {
                        let (segment, p) =
                            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))?;
                        out.extend(segment);
                        profile.merge(&p);
                    }
                    Ok(())
                })?,
            }
        }
        profile.elapsed_ns = started.elapsed().as_nanos() as u64;
        let after = self.pool().metrics();
        profile.cold_loads = after.loads - before.loads;
        profile.warm_hits = after.hits - before.hits;
        profile.io_batches = after.io_physical_reads - before.io_physical_reads;
        profile.io_coalesced_pages = after.io_coalesced - before.io_coalesced;
        profile.io_queue_sheds = after.io_shed - before.io_shed;
        self.scan.scan_ns.record(profile.elapsed_ns);
        Ok((out, profile))
    }

    /// Parallel COUNT over `from..to`: identical to
    /// `par_search(..).len()` but positions are never materialized — each
    /// worker popcounts its partition's result bitmaps in place
    /// ([`crate::datavec::PagedDataVectorIterator::count`]) and the
    /// per-partition counts are summed.
    pub fn par_count(
        &self,
        from: u64,
        to: u64,
        set: &VidSet,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        if from > to || to > self.len() {
            return Err(CoreError::RowOutOfBounds { rpos: to, len: self.len() });
        }
        if from == to || set.is_empty() {
            return Ok(0);
        }
        if self.width().bits() == 0 {
            return self.iter().count(from, to, set);
        }
        let workers = opts.workers.max(1);
        let parts = scan_partitions(self, from, to, Some(set), workers);
        let cancel = AtomicBool::new(false);
        let cancel = &cancel;
        let tracer = self.pool().registry().tracer();
        let ctx = QueryCtx::current(tracer);
        match parts.as_slice() {
            [] => Ok(0),
            [only] => {
                let _span = ctx.enter(tracer, SpanKind::ScanPartition, only.from);
                count_partition_worker(self, *only, set, cancel)
            }
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many
                    .iter()
                    .map(|&part| {
                        s.spawn(move || {
                            let _span = ctx.enter(tracer, SpanKind::ScanPartition, part.from);
                            count_partition_worker(self, part, set, cancel)
                        })
                    })
                    .collect();
                let mut total = 0u64;
                for h in handles {
                    total += h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))?;
                }
                Ok(total)
            }),
        }
    }
}

/// Parallel scan over a fully-resident packed vector: identical results to
/// [`scan::search`] over `from..to`, computed by up to `workers` threads on
/// chunk-aligned segments.
pub fn par_search_resident(
    vec: &BitPackedVec,
    from: u64,
    to: u64,
    set: &VidSet,
    workers: usize,
) -> Vec<u64> {
    let mut out = Vec::new();
    if from >= to || set.is_empty() {
        return out;
    }
    let first = from / CHUNK_LEN as u64;
    let last = (to - 1) / CHUNK_LEN as u64;
    let chunks = last - first + 1;
    // Always CPU-bound (no I/O to overlap): workers beyond the actual cores
    // only add scheduling overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = workers.max(1).min(cores).min(chunks as usize).min(u32::MAX as usize) as u64;
    if w <= 1 {
        scan::search(vec, from, to, set, &mut out);
        return out;
    }
    let base = chunks / w;
    let rem = chunks % w;
    let mut parts = Vec::with_capacity(w as usize);
    let mut chunk = first;
    for i in 0..w {
        let take = base + u64::from(i < rem);
        let begin = chunk;
        chunk += take;
        parts.push(ScanPartition {
            from: from.max(begin * CHUNK_LEN as u64),
            to: to.min(chunk * CHUNK_LEN as u64),
        });
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    scan::search(vec, part.from, part.to, set, &mut local);
                    local
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageConfig;
    use payg_resman::ResourceManager;
    use payg_storage::{
        BufferPool, FaultPlan, FaultyStore, MemStore, PageKey, PageStore, PoolConfig, RetryPolicy,
    };
    use std::sync::Arc;

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
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let packed = BitPackedVec::from_values(values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        (pool, paged, packed)
    }

    #[test]
    fn partitions_are_page_aligned_and_cover_the_range() {
        let values = sample(4000, 500, 11);
        let (_pool, paged, _) = build(&values);
        let rpp = paged.rows_per_page();
        assert!(rpp > 0);
        for workers in [1, 2, 3, 4, 7] {
            let parts = scan_partitions(&paged, 100, 3900, None, workers);
            assert!(parts.len() <= workers);
            assert_eq!(parts.first().unwrap().from, 100);
            assert_eq!(parts.last().unwrap().to, 3900);
            for pair in parts.windows(2) {
                assert_eq!(pair[0].to, pair[1].from, "contiguous without pruning");
                assert_eq!(pair[0].to % rpp, 0, "interior boundaries page-aligned");
            }
        }
    }

    #[test]
    fn pruned_pages_are_excluded_before_partitioning() {
        // Clustered values give disjoint page summaries.
        let values: Vec<u64> = (0..4096u64).map(|i| i / 16).collect();
        let (_pool, paged, _) = build(&values);
        let set = VidSet::range(0, 10); // only the first pages survive
        let parts = scan_partitions(&paged, 0, 4096, Some(&set), 4);
        let covered: u64 = parts.iter().map(|p| p.rows()).sum();
        assert!(covered < 4096, "pruning shrank the partitioned rows");
        // A fully disjoint predicate yields no partitions at all.
        assert!(scan_partitions(&paged, 0, 4096, Some(&VidSet::Single(9999)), 4).is_empty());
    }

    #[test]
    fn par_search_matches_sequential_paged() {
        let values = sample(6000, 97, 12);
        let (_pool, paged, _) = build(&values);
        for set in [VidSet::Single(13), VidSet::range(20, 60), VidSet::from_vids(vec![0, 50, 96])] {
            for (from, to) in [(0u64, 6000u64), (123, 5991), (64, 128), (0, 1)] {
                let mut seq = Vec::new();
                paged.iter().search(from, to, &set, &mut seq).unwrap();
                for workers in [1, 2, 4, 7] {
                    for prefetch in [false, true] {
                        let par = paged
                            .par_search(from, to, &set, ScanOptions { workers, prefetch })
                            .unwrap();
                        assert_eq!(par, seq, "workers={workers} prefetch={prefetch} {from}..{to}");
                    }
                }
            }
        }
    }

    #[test]
    fn par_search_matches_sequential_resident() {
        let values = sample(5000, 250, 13);
        let packed = BitPackedVec::from_values(&values);
        let set = VidSet::range(10, 100);
        for (from, to) in [(0u64, 5000u64), (77, 4800), (0, 63)] {
            let mut seq = Vec::new();
            scan::search(&packed, from, to, &set, &mut seq);
            for workers in [1, 2, 4, 9] {
                assert_eq!(par_search_resident(&packed, from, to, &set, workers), seq);
            }
        }
    }

    #[test]
    fn par_search_zero_width_and_bounds() {
        let values = vec![0u64; 1000];
        let (_pool, paged, _) = build(&values);
        let out = paged.par_search(10, 20, &VidSet::Single(0), ScanOptions::with_workers(4)).unwrap();
        assert_eq!(out, (10..20).collect::<Vec<u64>>());
        assert!(paged.par_search(0, 1001, &VidSet::Single(0), ScanOptions::with_workers(4)).is_err());
    }

    #[test]
    fn par_count_matches_par_search_len() {
        let values = sample(6000, 97, 15);
        let (_pool, paged, _) = build(&values);
        for set in [VidSet::Single(13), VidSet::range(20, 60), VidSet::from_vids(vec![0, 50, 96])] {
            for (from, to) in [(0u64, 6000u64), (123, 5991), (64, 128), (0, 1), (50, 50)] {
                let expect =
                    (from..to).filter(|&i| set.contains(values[i as usize])).count() as u64;
                for workers in [1, 4] {
                    let opts = ScanOptions { workers, prefetch: workers > 1 };
                    assert_eq!(
                        paged.par_count(from, to, &set, opts).unwrap(),
                        expect,
                        "workers={workers} {set:?} {from}..{to}"
                    );
                }
            }
        }
    }

    /// A paged vector over a [`FaultyStore`] with retries disabled, so one
    /// injected fault surfaces on the first pin.
    fn build_faulty(values: &[u64]) -> (Arc<FaultyStore<MemStore>>, BufferPool, PagedDataVector) {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let pool = BufferPool::with_config(
            Arc::clone(&store) as Arc<dyn PageStore>,
            ResourceManager::new(),
            PoolConfig { retry: RetryPolicy::NONE, ..PoolConfig::default() },
        );
        let packed = BitPackedVec::from_values(values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        (store, pool, paged)
    }

    #[test]
    fn bad_page_aborts_the_parallel_scan_naming_its_address() {
        let values = sample(4000, 500, 21);
        let (store, pool, paged) = build_faulty(&values);
        assert!(paged.pages() > 4, "enough pages for a real fan-out");
        let bad = PageKey::new(paged.page_key(0).chain, 2);
        store.set_plan(FaultPlan::CorruptPages(vec![bad]));
        let set = VidSet::range(0, 499); // nothing prunes: every worker reads
        for prefetch in [false, true] {
            pool.clear();
            pool.clear_quarantine();
            let err = paged
                .par_search(0, 4000, &set, ScanOptions { workers: 4, prefetch })
                .map(|_| ())
                .unwrap_err();
            match err {
                CoreError::ScanAborted { chain, page_no, source } => {
                    assert_eq!((chain, page_no), (bad.chain.0, bad.page_no), "prefetch={prefetch}");
                    assert!(
                        matches!(*source, CoreError::Storage(_)),
                        "abort wraps the storage failure: {source}"
                    );
                }
                other => panic!("expected ScanAborted, got: {other}"),
            }
        }
        let err = paged.par_count(0, 4000, &set, ScanOptions::with_workers(4)).unwrap_err();
        assert!(
            matches!(err, CoreError::ScanAborted { page_no: 2, .. }),
            "count aborts the same way: {err}"
        );
        pool.assert_no_live_pins("after aborted parallel scans");
        // Recovery: with the fault cleared and the quarantine drained, the
        // same scan completes and matches the sequential result.
        store.set_plan(FaultPlan::None);
        pool.clear_quarantine();
        let mut seq = Vec::new();
        paged.iter().search(0, 4000, &set, &mut seq).unwrap();
        let par = paged.par_search(0, 4000, &set, ScanOptions::with_workers(4)).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn worker_side_pruning_is_credited_to_the_profile() {
        // Clustered values: only the first and last pages survive a
        // {0, max} predicate, so every interior page is pruned — by the
        // iterator in a sequential scan, by the worker loop in a parallel
        // one. Both must report the same pages_pruned.
        let values: Vec<u64> = (0..4096u64).map(|i| i / 16).collect();
        let (_pool, paged, _) = build(&values);
        let set = VidSet::from_vids(vec![0, 255]);
        let mut seq = Vec::new();
        let mut it = paged.iter();
        it.search(0, 4096, &set, &mut seq).unwrap();
        let seq_pruned = it.profile().pages_pruned;
        drop(it);
        assert!(seq_pruned > 0, "interior pages were pruned");
        for prefetch in [false, true] {
            let (out, profile) = paged
                .par_search_profiled(0, 4096, &set, ScanOptions { workers: 1, prefetch })
                .unwrap();
            assert_eq!(out, seq, "prefetch={prefetch}");
            assert_eq!(profile.pages_pruned, seq_pruned, "prefetch={prefetch}");
        }
    }

    #[test]
    fn parallel_workers_load_disjoint_pages_once() {
        let values = sample(4000, 500, 14);
        let (pool, paged, _) = build(&values);
        let set = VidSet::range(0, 499); // nothing prunes: every page loads
        let out = paged.par_search(0, 4000, &set, ScanOptions::with_workers(4)).unwrap();
        assert_eq!(out.len(), 4000);
        let m = pool.metrics();
        assert_eq!(m.loads, paged.pages(), "each page loaded exactly once across workers");
    }
}

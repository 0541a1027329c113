//! A segmented COUNT over a paged data vector — the probe `payg-perf` times
//! as `core.scan_ns_per_row_par2`. No query runs it: a query searches and
//! counts on its own thread (DESIGN §5c).
//!
//! The count splits its row range into page-aligned [`ScanPartition`]s
//! *after* page-summary pruning (§3.3): pages whose (min, max) summary cannot
//! match the predicate are set aside before the split, so workers divide the
//! pages that will actually be read. Each worker is the sequential count over
//! its partition — its own iterator, pinning the partition's surviving pages
//! a wave at a time ([`crate::datavec::PagedDataVectorIterator`]) — so one
//! worker or four overlap and coalesce their cold reads the same way, and the
//! per-partition counts sum to the sequential count.
//!
//! Faults abort cooperatively: workers poll a shared cancellation flag
//! before every wave, the first failing worker raises it, and the count
//! surfaces one [`crate::CoreError::ScanAborted`] naming the failing (chain, page)
//! while the remaining workers stop instead of finishing doomed partitions.

use crate::datavec::PagedDataVector;
use crate::CoreResult;
use payg_encoding::VidSet;
use payg_obs::{QueryCtx, SpanKind};
use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;

/// How many threads [`PagedDataVector::par_count`] may split over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Maximum worker threads (1 = sequential on the calling thread).
    pub workers: usize,
}

impl ScanOptions {
    /// The calling thread only (the default).
    pub const fn sequential() -> Self {
        ScanOptions { workers: 1 }
    }

    /// Up to `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ScanOptions { workers: workers.max(1) }
    }
}

impl Default for ScanOptions {
    fn default() -> Self {
        Self::sequential()
    }
}

/// One worker's share of a segmented count: a row range whose interior
/// boundaries fall on page boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPartition {
    /// First row (inclusive).
    pub from: u64,
    /// One past the last row.
    pub to: u64,
}

/// The cores a count may fan out over. Asked of the OS once: the answer costs
/// ~16 µs (cgroup files) — more than half a warm 100 k-row scan.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits the scan range `from..to` over `vec`'s page chain into at most
/// `workers` partitions that tile it. Pages whose summary does not overlap
/// `set` are pruned *first*; the surviving pages are divided into contiguous
/// groups of near-equal size, so workers are balanced by pages actually
/// read, not by raw row count, and each partition runs from its group's
/// first surviving page up to the next group's — a pruned page belongs to
/// exactly one partition, whose worker skips it by its summary as the
/// sequential scan does. One partition when nothing survives.
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
    let w = workers.clamp(1, surviving.len().max(1));
    let base = surviving.len() / w;
    let rem = surviving.len() % w;
    let mut parts = Vec::with_capacity(w);
    let mut begin = from;
    let mut idx = 0;
    for i in 0..w {
        idx += base + usize::from(i < rem);
        let end = if i + 1 == w { to } else { surviving[idx] * rpp };
        parts.push(ScanPartition { from: begin, to: end });
        begin = end;
    }
    parts
}

impl PagedDataVector {
    /// COUNT over `from..to` split into [`scan_partitions`], each counted by
    /// its own cancellable iterator under its own scan-partition span, on up
    /// to `opts.workers` threads; identical to
    /// [`crate::datavec::PagedDataVectorIterator::count`] over the same
    /// range. The worker count is capped by the cores and by the pages that
    /// survive pruning. A failing page aborts the whole count with
    /// [`crate::CoreError::ScanAborted`] — see the module docs.
    pub fn par_count(
        &self,
        from: u64,
        to: u64,
        set: &VidSet,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        self.check_range(from, to)?;
        let parts = scan_partitions(self, from, to, Some(set), opts.workers.min(cores()));
        // Flight recorder: each partition runs under its own scan-partition
        // span, parented to whatever query span the caller has open. The
        // context must be captured here — thread locals do not follow
        // `std::thread::scope`.
        let tracer = self.pool().registry().tracer();
        let ctx = QueryCtx::current(tracer);
        let cancel = AtomicBool::new(false);
        let run = |part: ScanPartition| {
            let _span = ctx.enter(tracer, SpanKind::ScanPartition, part.from);
            self.iter_cancellable(&cancel).count(part.from, part.to, set)
        };
        if let [only] = parts.as_slice() {
            return run(*only);
        }
        std::thread::scope(|s| {
            let run = &run;
            let handles: Vec<_> = parts.iter().map(|&part| s.spawn(move || run(part))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreError, PageConfig};
    use payg_encoding::BitPackedVec;
    use payg_obs::{EventKind, PageEvent};
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

    fn build(values: &[u64]) -> (BufferPool, PagedDataVector) {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let packed = BitPackedVec::from_values(values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        (pool, paged)
    }

    #[test]
    fn partitions_are_page_aligned_and_cover_the_range() {
        let values = sample(4000, 500, 11);
        let (_pool, paged) = build(&values);
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
    fn pruned_pages_are_set_aside_before_partitioning() {
        // Clustered values give disjoint page summaries.
        let values: Vec<u64> = (0..4096u64).map(|i| i / 16).collect();
        let (_pool, paged) = build(&values);
        let rpp = paged.rows_per_page();
        let set = VidSet::range(0, 40); // only the first pages survive
        let survives = |p: u64| {
            let (lo, hi) = paged.page_summary(p);
            set.overlaps(lo, hi)
        };
        let surviving = (0..paged.pages()).filter(|&p| survives(p)).count();
        assert!((2..8).contains(&surviving), "a few leading pages survive: {surviving}");
        let parts = scan_partitions(&paged, 0, 4096, Some(&set), 8);
        assert_eq!(parts.len(), surviving, "workers divide the surviving pages, not the rows");
        assert_eq!((parts[0].from, parts[parts.len() - 1].to), (0, 4096), "the range is tiled");
        for pair in parts.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
            assert!(survives(pair[1].from / rpp), "a partition starts on a surviving page");
        }
        // A fully disjoint predicate is one partition, pruned page by page.
        let none = scan_partitions(&paged, 0, 4096, Some(&VidSet::Single(9999)), 4);
        assert_eq!(none, [ScanPartition { from: 0, to: 4096 }]);
    }

    #[test]
    fn par_count_matches_the_sequential_count() {
        let values = sample(6000, 97, 15);
        let (_pool, paged) = build(&values);
        for set in [VidSet::Single(13), VidSet::range(20, 60), VidSet::from_vids(vec![0, 50, 96])] {
            for (from, to) in [(0u64, 6000u64), (123, 5991), (64, 128), (0, 1), (50, 50)] {
                let expect =
                    (from..to).filter(|&i| set.contains(values[i as usize])).count() as u64;
                assert_eq!(paged.iter().count(from, to, &set).unwrap(), expect);
                for workers in [1, 2, 4, 7] {
                    assert_eq!(
                        paged.par_count(from, to, &set, ScanOptions { workers }).unwrap(),
                        expect,
                        "workers={workers} {set:?} {from}..{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_count_zero_width_and_bounds() {
        let values = vec![0u64; 1000];
        let (_pool, paged) = build(&values);
        let four = ScanOptions::with_workers(4);
        assert_eq!(paged.par_count(10, 20, &VidSet::Single(0), four).unwrap(), 10);
        assert!(paged.par_count(0, 1001, &VidSet::Single(0), four).is_err());
        assert!(paged.par_count(20, 10, &VidSet::Single(0), four).is_err());
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
    fn bad_page_aborts_the_parallel_count_naming_its_address() {
        let values = sample(4000, 500, 21);
        let (store, pool, paged) = build_faulty(&values);
        assert!(paged.pages() > 4, "enough pages for a real fan-out");
        let bad = PageKey::new(paged.page_key(0).chain, 2);
        store.set_plan(FaultPlan::CorruptPages(vec![bad]));
        let set = VidSet::range(0, 499); // nothing prunes: every worker reads
        for workers in [1, 4] {
            pool.clear();
            pool.clear_quarantine();
            let err = paged.par_count(0, 4000, &set, ScanOptions { workers }).unwrap_err();
            match err {
                CoreError::ScanAborted { chain, page_no, source } => {
                    assert_eq!((chain, page_no), (bad.chain.0, bad.page_no), "workers={workers}");
                    assert!(
                        matches!(*source, CoreError::Storage(_)),
                        "abort wraps the storage failure: {source}"
                    );
                }
                other => panic!("expected ScanAborted, got: {other}"),
            }
        }
        pool.assert_no_live_pins("after aborted parallel counts");
        // Recovery: with the fault cleared and the quarantine drained, the
        // same count completes and matches the sequential one.
        store.set_plan(FaultPlan::None);
        pool.clear_quarantine();
        let seq = paged.iter().count(0, 4000, &set).unwrap();
        assert_eq!(paged.par_count(0, 4000, &set, ScanOptions::with_workers(4)).unwrap(), seq);
    }

    /// The `DataScan` events one call of `scan` emits: how many, and their
    /// summed pages pruned, chunks scanned and matches.
    fn data_scans(pool: &BufferPool, scan: impl FnOnce()) -> (usize, [u64; 3]) {
        let tracer = pool.registry().tracer();
        tracer.enable();
        scan();
        tracer.disable();
        let scans: Vec<PageEvent> =
            tracer.drain().into_iter().filter(|e| e.kind == EventKind::DataScan).collect();
        let sum = |field: fn(&PageEvent) -> u64| -> u64 { scans.iter().map(field).sum() };
        (scans.len(), [sum(|e| e.page_no), sum(|e| e.bytes), sum(|e| e.aux)])
    }

    #[test]
    fn scan_counters_count_scans_and_match_the_sequential_scan() {
        // Clustered values in runs of 16 over 64 pages; the predicate keeps
        // a run of pages at either end and a few in the middle, so pruned
        // pages lie inside partitions and between them.
        let values: Vec<u64> = (0..16_384u64).map(|i| i / 64).collect();
        let (pool, paged) = build(&values);
        assert!(paged.pages() >= 32, "a real fan-out: {} pages", paged.pages());
        let set = VidSet::from_vids((0..40).chain(120..130).chain(200..256).collect());
        let mut seq = 0;
        let (seq_scans, seq_work) = data_scans(&pool, || {
            seq = paged.iter().count(0, 16_384, &set).unwrap();
        });
        assert_eq!(seq_scans, 1);
        assert!(seq_work[0] > 0, "interior pages were pruned: {seq_work:?}");
        let (par_scans, par_work) = data_scans(&pool, || {
            let n = paged.par_count(0, 16_384, &set, ScanOptions::with_workers(4)).unwrap();
            assert_eq!(n, seq);
        });
        assert!((1..=4).contains(&par_scans), "one scan per partition, not per page: {par_scans}");
        assert_eq!(par_work, seq_work, "pruned / chunks / matches do not depend on the workers");
    }

    #[test]
    fn parallel_workers_load_disjoint_pages_once() {
        let values = sample(4000, 500, 14);
        let (pool, paged) = build(&values);
        let set = VidSet::range(0, 499); // nothing prunes: every page loads
        assert_eq!(paged.par_count(0, 4000, &set, ScanOptions::with_workers(4)).unwrap(), 4000);
        let m = pool.metrics();
        assert_eq!(m.loads, paged.pages(), "each page loaded exactly once across workers");
    }
}

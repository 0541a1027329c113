//! Per-scan cost profiles.

use crate::names;
use crate::registry::ObsSnapshot;

/// What one scan cost, broken down the way the paper's evaluation slices
/// it: pool traffic (pages pinned, cold loads vs warm hits), kernel work
/// (chunks, dispatch width), and selectivity (bitmap matches). Plain data —
/// filled in by a scan iterator for its own scan, or from a registry delta
/// ([`ScanProfile::from_delta`]) for everything a query caused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanProfile {
    /// Pages pinned through the buffer pool.
    pub pages_pinned: u64,
    /// Pages skipped entirely via page-summary pruning.
    pub pages_pruned: u64,
    /// 64-value chunks decoded or kernel-scanned.
    pub chunks_scanned: u64,
    /// Bit width the scan kernel was dispatched at (0 = no kernel scan).
    pub dispatch_width: u32,
    /// Match positions (or counted matches) the scan produced.
    pub bitmap_matches: u64,
    /// Pool loads that hit the store during the scan (cold half of the
    /// cold/warm split; filled by the profiled entry points).
    pub cold_loads: u64,
    /// Pool pins served by already-resident frames during the scan (warm
    /// half; filled by the profiled entry points).
    pub warm_hits: u64,
    /// Physical reads issued by the cold-path I/O stage during the scan —
    /// coalesced ranged reads count once however many pages they cover
    /// (filled by the profiled entry points).
    pub io_batches: u64,
    /// Requests whose page rode a multi-page coalesced read instead of
    /// its own positioned read (filled by the profiled entry points).
    pub io_coalesced_pages: u64,
    /// Wall-clock duration of the scan in nanoseconds (profiled entry
    /// points only).
    pub elapsed_ns: u64,
}

impl ScanProfile {
    /// Builds a profile from a registry snapshot *delta* spanning the
    /// scan (see `ObsSnapshot::delta`): scan counters map onto the
    /// corresponding fields and pool counters fill the cold/warm split.
    /// Exact when nothing else drives the registry concurrently.
    pub fn from_delta(d: &ObsSnapshot) -> ScanProfile {
        ScanProfile {
            pages_pinned: d.counter(names::SCAN_PAGES_PINNED),
            pages_pruned: d.counter(names::SCAN_PAGES_PRUNED),
            chunks_scanned: d.counter(names::SCAN_CHUNKS_SCANNED),
            dispatch_width: d.gauge(names::SCAN_DISPATCH_WIDTH) as u32,
            bitmap_matches: d.counter(names::SCAN_BITMAP_MATCHES),
            cold_loads: d.counter(names::POOL_LOADS),
            warm_hits: d.counter(names::POOL_SHARD_HITS),
            io_batches: d.counter(names::POOL_IO_PHYSICAL_READS),
            io_coalesced_pages: d.counter(names::POOL_IO_COALESCED),
            elapsed_ns: 0,
        }
    }

    /// Renders as a JSON object (for embedding in bench reports).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pages_pinned\": {}, \"pages_pruned\": {}, \
             \"chunks_scanned\": {}, \"dispatch_width\": {}, \"bitmap_matches\": {}, \
             \"cold_loads\": {}, \"warm_hits\": {}, \"io_batches\": {}, \
             \"io_coalesced_pages\": {}, \"elapsed_ns\": {}}}",
            self.pages_pinned,
            self.pages_pruned,
            self.chunks_scanned,
            self.dispatch_width,
            self.bitmap_matches,
            self.cold_loads,
            self.warm_hits,
            self.io_batches,
            self.io_coalesced_pages,
            self.elapsed_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn from_delta_reads_scan_and_pool_names() {
        let reg = Registry::new();
        reg.counter(crate::names::SCAN_PAGES_PINNED).add(4);
        reg.counter(crate::names::SCAN_PAGES_PRUNED).add(9);
        reg.counter(crate::names::SCAN_CHUNKS_SCANNED).add(64);
        reg.counter(crate::names::SCAN_BITMAP_MATCHES).add(2);
        reg.gauge(crate::names::SCAN_DISPATCH_WIDTH).set(17);
        reg.counter_labeled(crate::names::POOL_LOADS, &[("pool", "0")]).add(3);
        reg.counter_labeled(crate::names::POOL_SHARD_HITS, &[("pool", "0"), ("shard", "1")])
            .add(5);
        reg.counter_labeled(crate::names::POOL_IO_PHYSICAL_READS, &[("pool", "0")]).add(6);
        reg.counter_labeled(crate::names::POOL_IO_COALESCED, &[("pool", "0")]).add(11);
        let p = ScanProfile::from_delta(&reg.snapshot());
        assert_eq!(p.pages_pinned, 4);
        assert_eq!(p.pages_pruned, 9);
        assert_eq!(p.chunks_scanned, 64);
        assert_eq!(p.bitmap_matches, 2);
        assert_eq!(p.dispatch_width, 17);
        assert_eq!(p.cold_loads, 3);
        assert_eq!(p.warm_hits, 5);
        assert_eq!(p.io_batches, 6);
        assert_eq!(p.io_coalesced_pages, 11);
        let json = p.to_json();
        assert!(json.contains("\"pages_pinned\": 4"), "{json}");
        assert!(json.contains("\"io_batches\": 6"), "{json}");
    }
}

//! Canonical metric names.
//!
//! Producers (pool, resource manager, scan iterators) and consumers
//! (exporters, benches, [`crate::ScanProfile::from_delta`]) share these
//! constants so a rename cannot silently split a series. Instance-scoped
//! metrics (per pool, per shard) add labels on top of these base names;
//! [`crate::ObsSnapshot::counter`] sums across labels.
//!
//! Every name is declared once through [`declare_names!`], which emits the
//! `pub const` *and* a row in [`ALL`] — the introspection table the static
//! analyzer (`cargo xtask analyze`, obs-vocabulary pass) consumes to verify
//! that every name string reaching a registry handle is declared here, that
//! every declared name is used somewhere, and that labelled registrations
//! pass exactly the declared label keys.

/// One declared metric name: the const identifier, the wire name, and the
/// label keys instance-scoped registrations must pass (base registrations
/// through the unlabelled accessors are always allowed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NameSpec {
    /// The `pub const` identifier (`POOL_LOADS`).
    pub ident: &'static str,
    /// The metric name on the wire (`"pool_loads"`).
    pub name: &'static str,
    /// Label keys for labelled registrations, in canonical order.
    pub labels: &'static [&'static str],
}

/// Declares the metric-name consts and the [`ALL`] table from one list.
macro_rules! declare_names {
    ($( $(#[$meta:meta])* $ident:ident = $value:literal, labels: [$($label:ident),*]; )+) => {
        $( $(#[$meta])* pub const $ident: &str = $value; )+

        /// Every declared metric name, in declaration order. Generated from
        /// the same `declare_names!` invocation that emits the consts.
        pub static ALL: &[NameSpec] = &[
            $( NameSpec {
                ident: stringify!($ident),
                name: $value,
                labels: &[$(stringify!($label)),*],
            }, )+
        ];
    };
}

declare_names! {
    /// Successful page loads completed by a buffer pool (labelled `pool`).
    POOL_LOADS = "pool_loads", labels: [pool];
    /// Bytes brought in by successful page loads (labelled `pool`).
    POOL_BYTES_LOADED = "pool_bytes_loaded", labels: [pool];
    /// Times a `pin()` blocked on another thread's in-flight load of the
    /// same page (labelled `pool`).
    POOL_LOAD_WAITS = "pool_load_waits", labels: [pool];
    /// Warm pin-latency histogram in nanoseconds — pins served from a
    /// resident frame only; cold paths land in [`POOL_LOAD_NS`] (labelled
    /// `pool`).
    POOL_PIN_NS = "pool_pin_ns", labels: [pool];
    /// Cold pin-latency histogram in nanoseconds — pins that started or
    /// joined a load, so warm latency in [`POOL_PIN_NS`] stays readable
    /// (labelled `pool`).
    POOL_LOAD_NS = "pool_load_ns", labels: [pool];
    /// Per-shard resident hits (labelled `pool`, `shard`).
    POOL_SHARD_HITS = "pool_shard_hits", labels: [pool, shard];
    /// Per-shard misses — pin attempts that found no resident frame and
    /// became or joined a load (labelled `pool`, `shard`). Counts attempts,
    /// so failed loads are `misses - loads`.
    POOL_SHARD_MISSES = "pool_shard_misses", labels: [pool, shard];
    /// Per-shard lock-contention events (labelled `pool`, `shard`).
    POOL_SHARD_CONTENDED = "pool_shard_contended", labels: [pool, shard];
    /// Load attempts re-issued after a transient store fault (labelled
    /// `pool`).
    POOL_LOAD_RETRIES = "pool_load_retries", labels: [pool];
    /// Store faults observed by the pool's load path, including ones
    /// absorbed by a successful retry (labelled `pool`, `kind` ∈ transient/
    /// corrupt/logical).
    POOL_LOAD_FAULTS = "pool_load_faults", labels: [pool, kind];
    /// Pages placed in per-shard quarantine after a permanent load failure
    /// (labelled `pool`).
    POOL_QUARANTINE_INSERTS = "pool_quarantine_inserts", labels: [pool];
    /// Pins failed fast from quarantine without touching the store
    /// (labelled `pool`).
    POOL_QUARANTINE_FAIL_FAST = "pool_quarantine_fail_fast", labels: [pool];

    /// Fetch requests submitted to the cold-path I/O stage (labelled
    /// `pool`).
    POOL_IO_SUBMITTED = "pool_io_submitted", labels: [pool];
    /// Requests whose page rode a multi-page coalesced read instead of its
    /// own positioned read (labelled `pool`).
    POOL_IO_COALESCED = "pool_io_coalesced", labels: [pool];
    /// Fetch requests completed by the I/O stage, successes and failures
    /// alike (labelled `pool`).
    POOL_IO_COMPLETIONS = "pool_io_completions", labels: [pool];
    /// Physical store reads issued by the I/O stage — coalesced ranged
    /// reads count once however many pages they cover (labelled `pool`).
    POOL_IO_PHYSICAL_READS = "pool_io_physical_reads", labels: [pool];
    /// Pages-per-physical-read histogram for the I/O stage (labelled
    /// `pool`).
    POOL_IO_BATCH_PAGES = "pool_io_batch_pages", labels: [pool];
    /// Submission-queue depth sampled at each submit (labelled `pool`).
    POOL_IO_QUEUE_DEPTH = "pool_io_queue_depth", labels: [pool];

    /// Bytes currently registered with the resource manager (gauge).
    RESMAN_TOTAL_BYTES = "resman_total_bytes", labels: [];
    /// Bytes of paged (evictable) resources currently registered (gauge).
    RESMAN_PAGED_BYTES = "resman_paged_bytes", labels: [];
    /// Number of registered resources (gauge).
    RESMAN_RESOURCE_COUNT = "resman_resource_count", labels: [];
    /// Number of registered paged resources (gauge).
    RESMAN_PAGED_COUNT = "resman_paged_count", labels: [];
    /// Resources evicted by the proactive background sweeper.
    RESMAN_PROACTIVE_EVICTIONS = "resman_proactive_evictions", labels: [];
    /// Resources evicted reactively on allocation pressure.
    RESMAN_REACTIVE_EVICTIONS = "resman_reactive_evictions", labels: [];
    /// Resources evicted by the weighted-LRU low-memory handler.
    RESMAN_WEIGHTED_EVICTIONS = "resman_weighted_evictions", labels: [];
    /// Total bytes reclaimed by evictions of any kind.
    RESMAN_EVICTED_BYTES = "resman_evicted_bytes", labels: [];
    /// Resource registrations since startup.
    RESMAN_REGISTRATIONS = "resman_registrations", labels: [];
    /// Bytes committed to reads in flight through the I/O stage — already
    /// charged against memory but not yet registered as resources (gauge).
    RESMAN_INFLIGHT_BYTES = "resman_inflight_bytes", labels: [];
    /// Number of in-flight I/O-stage reads currently charged (gauge).
    RESMAN_INFLIGHT_COUNT = "resman_inflight_count", labels: [];

    /// Scan calls (search/count) completed by paged data-vector iterators.
    SCAN_SCANS = "scan_scans", labels: [];
    /// 64-value chunks decoded or kernel-scanned.
    SCAN_CHUNKS_SCANNED = "scan_chunks_scanned", labels: [];
    /// Pages pinned through the pool by scan iterators.
    SCAN_PAGES_PINNED = "scan_pages_pinned", labels: [];
    /// Bitmap match positions produced by scans.
    SCAN_BITMAP_MATCHES = "scan_bitmap_matches", labels: [];
    /// Pages skipped via page-summary (min/max) pruning.
    SCAN_PAGES_PRUNED = "scan_pages_pruned", labels: [];
    /// Kernel dispatch width (bit width of the last dispatched kernel;
    /// gauge).
    SCAN_DISPATCH_WIDTH = "scan_dispatch_width", labels: [];

    /// Full-column loads performed by resident columns.
    COLUMN_FULL_LOADS = "column_full_loads", labels: [];

    /// Bytes persisted into page chains at build time, by chain codec
    /// (labelled `pool`, `codec` ∈ plain/fsst/pef/array).
    POOL_PAGE_BYTES = "pool_page_bytes", labels: [pool, codec];
    /// FSST dictionary-chain compression ratio in per-mille — compressed ÷
    /// raw × 1000 on the training sample; 1000 when FSST was evaluated but
    /// not applied (gauge, labelled `pool`).
    DICT_FSST_RATIO = "dict_fsst_ratio", labels: [pool];
    /// Average partitioned-Elias-Fano bits per posting × 100 for the most
    /// recently built inverted index (gauge, labelled `pool`).
    PEF_CHUNK_BITS = "pef_chunk_bits", labels: [pool];

    /// Sessions refused at open (counter). Nothing increments it: opening a
    /// session only pins the current version. `payg-perf` still reads it
    /// until ROADMAP item 0(b) drops the probe; reading it through
    /// `Registry::counter` creates it at 0.
    TABLE_SESSIONS_REJECTED = "table_sessions_rejected", labels: [];
    /// Online delta-merge duration histogram in nanoseconds (aborted
    /// merges record too, so abort latency is visible).
    TABLE_MERGE_NS = "table_merge_ns", labels: [];
    /// Table versions currently live — pinned snapshots keep retired
    /// versions alive, so this gauge exposes retirement lag (gauge).
    TABLE_VERSIONS_LIVE = "table_versions_live", labels: [];

    /// Trace events overwritten because a per-thread ring was full —
    /// injected into snapshots by the registry from the tracer's drop
    /// counts, so ring overflow is visible instead of silent.
    TRACE_DROPPED = "trace_dropped", labels: [];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_consts() {
        assert!(ALL.iter().any(|s| s.ident == "POOL_LOADS" && s.name == POOL_LOADS));
        assert!(ALL.iter().any(|s| s.name == SCAN_SCANS && s.labels.is_empty()));
        let faults = ALL.iter().find(|s| s.name == POOL_LOAD_FAULTS).unwrap();
        assert_eq!(faults.labels, ["pool", "kind"]);
    }

    #[test]
    fn names_and_idents_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate wire name");
                assert_ne!(a.ident, b.ident, "duplicate const ident");
            }
        }
    }
}

//! Buffer-pool metrics: pool-wide counters plus per-shard activity.
//!
//! All counters are `payg-obs` registry handles, registered in the pool's
//! [`payg_obs::Registry`] (shared with the resource manager) under the
//! `pool_*` names with a `pool="<instance>"` label, so one registry
//! snapshot carries every pool's series next to the `resman_*` ones. The
//! [`crate::PoolMetrics`] / [`ShardMetrics`] structs remain the exact
//! per-pool view (reads of this pool's own handles, never another
//! instance's).

use crate::error::FaultClass;
use payg_obs::{names, Counter, Histogram, Registry};

/// Pool-wide counters (not attributable to a single shard).
pub(crate) struct MetricCounters {
    pub loads: Counter,
    pub bytes_loaded: Counter,
    pub load_waits: Counter,
    /// Load attempts re-issued after a transient fault.
    pub load_retries: Counter,
    /// Store faults by class — counted per *attempt* (a fault later absorbed
    /// by a successful retry still counts), so the series measures store
    /// health, not just surfaced errors.
    pub faults_transient: Counter,
    pub faults_corrupt: Counter,
    pub faults_logical: Counter,
    /// Pages placed in quarantine after a permanent load failure.
    pub quarantine_inserts: Counter,
    /// Pins failed fast from quarantine without touching the store.
    pub quarantine_fail_fast: Counter,
    /// Warm pin latency in nanoseconds — pins served from a resident frame
    /// only. Cold pins (loaders and single-flight waiters) record into
    /// `load_ns` instead, so this series stays readable at ~100ns scale.
    pub pin_ns: Histogram,
    /// Cold pin latency in nanoseconds — pins that started or joined a load.
    pub load_ns: Histogram,
    /// Fetch requests submitted to the I/O stage.
    pub io_submitted: Counter,
    /// Requests served by a multi-page coalesced read.
    pub io_coalesced: Counter,
    /// Requests completed by the I/O stage (successes and failures).
    pub io_completions: Counter,
    /// Physical store reads issued by the I/O stage (a coalesced ranged
    /// read counts once however many pages it covers).
    pub io_physical_reads: Counter,
    /// Pages-per-physical-read histogram.
    pub io_batch_pages: Histogram,
    /// Submission-queue depth, sampled at each submit.
    pub io_queue_depth: Histogram,
}

impl MetricCounters {
    pub fn register(registry: &Registry, pool_label: &str) -> Self {
        let l: &[(&str, &str)] = &[("pool", pool_label)];
        let fault = |kind: &str| {
            registry.counter_labeled(names::POOL_LOAD_FAULTS, &[("pool", pool_label), ("kind", kind)])
        };
        MetricCounters {
            loads: registry.counter_labeled(names::POOL_LOADS, l),
            bytes_loaded: registry.counter_labeled(names::POOL_BYTES_LOADED, l),
            load_waits: registry.counter_labeled(names::POOL_LOAD_WAITS, l),
            load_retries: registry.counter_labeled(names::POOL_LOAD_RETRIES, l),
            faults_transient: fault(FaultClass::Transient.label()),
            faults_corrupt: fault(FaultClass::Corrupt.label()),
            faults_logical: fault(FaultClass::Logical.label()),
            quarantine_inserts: registry.counter_labeled(names::POOL_QUARANTINE_INSERTS, l),
            quarantine_fail_fast: registry.counter_labeled(names::POOL_QUARANTINE_FAIL_FAST, l),
            pin_ns: registry.histogram_labeled(names::POOL_PIN_NS, l),
            load_ns: registry.histogram_labeled(names::POOL_LOAD_NS, l),
            io_submitted: registry.counter_labeled(names::POOL_IO_SUBMITTED, l),
            io_coalesced: registry.counter_labeled(names::POOL_IO_COALESCED, l),
            io_completions: registry.counter_labeled(names::POOL_IO_COMPLETIONS, l),
            io_physical_reads: registry.counter_labeled(names::POOL_IO_PHYSICAL_READS, l),
            io_batch_pages: registry.histogram_labeled(names::POOL_IO_BATCH_PAGES, l),
            io_queue_depth: registry.histogram_labeled(names::POOL_IO_QUEUE_DEPTH, l),
        }
    }

    /// The fault counter for one class.
    pub fn fault_counter(&self, class: FaultClass) -> &Counter {
        match class {
            FaultClass::Transient => &self.faults_transient,
            FaultClass::Corrupt => &self.faults_corrupt,
            FaultClass::Logical => &self.faults_logical,
        }
    }
}

/// Per-shard counters. `hits`/`misses` partition the pin calls that reached
/// this shard; `contended` counts lock acquisitions that had to block.
pub(crate) struct ShardCounters {
    pub hits: Counter,
    pub misses: Counter,
    pub contended: Counter,
}

impl ShardCounters {
    pub fn register(registry: &Registry, pool_label: &str, shard: usize) -> Self {
        let shard = shard.to_string();
        let l: &[(&str, &str)] = &[("pool", pool_label), ("shard", &shard)];
        ShardCounters {
            hits: registry.counter_labeled(names::POOL_SHARD_HITS, l),
            misses: registry.counter_labeled(names::POOL_SHARD_MISSES, l),
            contended: registry.counter_labeled(names::POOL_SHARD_CONTENDED, l),
        }
    }

    pub fn snapshot(&self) -> ShardMetrics {
        ShardMetrics {
            hits: self.hits.get(),
            misses: self.misses.get(),
            contended: self.contended.get(),
        }
    }
}

/// A snapshot of one shard's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Pin calls served from a resident frame.
    pub hits: u64,
    /// Pin calls that started a load (includes failed loads).
    pub misses: u64,
    /// Shard-lock acquisitions that found the lock held (contention probe).
    pub contended: u64,
}

/// A snapshot of buffer-pool activity. Experiments use `loads` to count page
/// I/O per query (the source of the paper's run-time-ratio spikes). The
/// hit/miss/contention fields are rolled up over all shards; call
/// [`crate::BufferPool::shard_metrics`] for the per-shard breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Page loads (pool misses that read from the store successfully).
    pub loads: u64,
    /// Pool hits (page already resident).
    pub hits: u64,
    /// Pin calls that did not find a resident frame: loaders (successful or
    /// not), waiters whose single-flight load failed, and quarantine
    /// fail-fasts. `misses - loads` is the number of *failed* pins; every
    /// pin call lands in exactly one of `hits` or `misses`, so
    /// `hits + misses == pins` always holds.
    pub misses: u64,
    /// Total bytes read from the store.
    pub bytes_loaded: u64,
    /// Pin calls that waited for another thread's in-flight load.
    pub load_waits: u64,
    /// Shard-lock acquisitions that found the lock held, over all shards.
    pub contended: u64,
    /// Load attempts re-issued after a transient fault.
    pub load_retries: u64,
    /// Store faults observed across all classes, counted per attempt
    /// (includes faults later absorbed by a successful retry).
    pub load_faults: u64,
    /// Pages placed in quarantine after a permanent load failure.
    pub quarantine_inserts: u64,
    /// Pins failed fast from quarantine without touching the store.
    pub quarantine_fail_fast: u64,
    /// Fetch requests submitted to the cold-path I/O stage: one per page a
    /// pin call was elected to load.
    pub io_submitted: u64,
    /// Requests whose page rode a multi-page coalesced read.
    pub io_coalesced: u64,
    /// Fetch requests completed by the I/O stage, successes and failures
    /// alike.
    pub io_completions: u64,
    /// Physical store reads issued by the I/O stage; a coalesced ranged
    /// read counts once. `io_completions / io_physical_reads` is the
    /// stage's coalescing ratio (pages per physical read).
    pub io_physical_reads: u64,
    /// Always 0: the stage sheds nothing (every request has a pin parked on
    /// it). The field outlives its counter only because the benchmark reads
    /// it (ROADMAP: drop `iostage.shed` and this field together).
    pub io_shed: u64,
}

impl PoolMetrics {
    /// Field-wise difference against an earlier snapshot of the same pool
    /// (saturating, so a mismatched baseline degrades to zeros rather than
    /// wrapping). Benches use this to attribute counter movement to one
    /// measured phase.
    pub fn delta(&self, earlier: &PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            loads: self.loads.saturating_sub(earlier.loads),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes_loaded: self.bytes_loaded.saturating_sub(earlier.bytes_loaded),
            load_waits: self.load_waits.saturating_sub(earlier.load_waits),
            contended: self.contended.saturating_sub(earlier.contended),
            load_retries: self.load_retries.saturating_sub(earlier.load_retries),
            load_faults: self.load_faults.saturating_sub(earlier.load_faults),
            quarantine_inserts: self.quarantine_inserts.saturating_sub(earlier.quarantine_inserts),
            quarantine_fail_fast: self
                .quarantine_fail_fast
                .saturating_sub(earlier.quarantine_fail_fast),
            io_submitted: self.io_submitted.saturating_sub(earlier.io_submitted),
            io_coalesced: self.io_coalesced.saturating_sub(earlier.io_coalesced),
            io_completions: self.io_completions.saturating_sub(earlier.io_completions),
            io_physical_reads: self.io_physical_reads.saturating_sub(earlier.io_physical_reads),
            io_shed: 0,
        }
    }
}

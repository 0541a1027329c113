//! The paper's table variants on a real file store: generate → insert →
//! merge → checkpoint → reopen cold.
//!
//! The `T_b` / `T_p` / `T_b^i` / `T_p^i` recipes are re-implemented here on
//! purpose (not imported from `crates/bench`), so that crate stays free to
//! change without moving the benchmark.

use crate::api::{
    value_at, BufferPool, ChainId, FileStore, LoadPolicy, PageConfig, PageStore, PartitionSpec,
    PoolConfig, PoolLimits, ResourceManager, Row, Schema, Table, TableProfile,
};
use crate::ops::raw_len;
use crate::probe_store::{ProbeStore, StoreCounters};
use crate::trace::Clock;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per timed `insert` batch.
pub const INSERT_BATCH: u64 = 5_000;

/// The paper's table variants (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `T_b`: fully resident, PK index only.
    Base,
    /// `T_p`: every non-key column page loadable, PK index only.
    Paged,
    /// `T_b^i`: `T_b` with an inverted index on every column.
    BaseIndexed,
    /// `T_p^i`: `T_p` with an inverted index on every column.
    PagedIndexed,
}

impl Variant {
    /// The paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "T_b",
            Variant::Paged => "T_p",
            Variant::BaseIndexed => "T_b^i",
            Variant::PagedIndexed => "T_p^i",
        }
    }

    fn indexed(self) -> bool {
        matches!(self, Variant::BaseIndexed | Variant::PagedIndexed)
    }

    fn policy(self) -> LoadPolicy {
        match self {
            Variant::Base | Variant::BaseIndexed => LoadPolicy::FullyResident,
            Variant::Paged | Variant::PagedIndexed => LoadPolicy::PageLoadable,
        }
    }

    /// The resident twin of a paged variant.
    pub fn twin(self) -> Variant {
        match self {
            Variant::Paged | Variant::Base => Variant::Base,
            Variant::PagedIndexed | Variant::BaseIndexed => Variant::BaseIndexed,
        }
    }
}

/// How the reopened table is served.
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    /// Paged-pool watermarks, if memory is constrained.
    pub limits: Option<PoolLimits>,
    /// Latency charged per physical read call.
    pub read_latency: Duration,
}

impl Serving {
    /// No pool limit, no injected latency.
    pub const WARM: Serving = Serving {
        limits: None,
        read_latency: Duration::ZERO,
    };
}

/// What one set-up cost and produced.
#[derive(Debug, Clone, Default)]
pub struct SetupStats {
    /// Generate + insert + merge + checkpoint + reopen, seconds.
    pub total_s: f64,
    /// Rows inserted.
    pub rows: u64,
    /// Time inside `Table::insert`, seconds.
    pub insert_s: f64,
    /// Insert rate of each [`INSERT_BATCH`], rows per second.
    pub batch_rows_per_s: Vec<f64>,
    /// `delta_merge_all` duration, ms.
    pub merge_ms: f64,
    /// Raw bytes of the generated values.
    pub user_bytes: u64,
    /// Bytes of the chain files after the checkpoint.
    pub disk_bytes: u64,
    /// Store traffic of the build (before the reopen).
    pub build_io: StoreCounters,
    /// Per-append durations of the build, ns.
    pub append_samples_ns: Vec<u64>,
}

/// A table reopened cold over its file store, with its meters.
pub struct Served {
    /// The table.
    pub table: Table,
    /// Its resource manager (footprint, evictions).
    pub resman: ResourceManager,
    /// Its metered store.
    pub store: Arc<ProbeStore>,
    /// The store directory.
    pub dir: PathBuf,
    /// The page size of every chain.
    pub page: usize,
    /// The time base of this table's spans, client and store side.
    pub clock: Clock,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Generates rows `rows` of the profile, returning them with their raw size.
pub fn generate(profile: &TableProfile, rows: std::ops::Range<u64>) -> (Vec<Row>, u64) {
    let mut bytes = 0;
    let batch = rows
        .map(|r| {
            (0..profile.columns.len())
                .map(|c| {
                    let v = value_at(profile, c, r);
                    bytes += raw_len(&v);
                    v
                })
                .collect()
        })
        .collect();
    (batch, bytes)
}

fn page_config(page: usize) -> PageConfig {
    PageConfig {
        datavec_page: page,
        dict_page: page,
        overflow_page: page,
        helper_page: page,
        index_page: page,
        inline_limit: 128,
        ..PageConfig::default()
    }
}

fn schema(profile: &TableProfile, variant: Variant) -> Result<Schema, String> {
    let mut cols = profile
        .schema(variant.indexed())
        .map_err(err("schema"))?
        .columns()
        .to_vec();
    // The key stays resident in every variant (the paper's T_p keeps the PK
    // a default column).
    cols[0].load_policy = Some(LoadPolicy::FullyResident);
    Schema::new(cols)
        .and_then(|s| s.with_primary_key(&profile.columns[0].name))
        .map_err(err("schema"))
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn open_store(dir: &Path, latency: Duration, clock: Clock) -> Result<Arc<ProbeStore>, String> {
    let files = FileStore::open(dir).map_err(err("open file store"))?;
    Ok(Arc::new(ProbeStore::new(files, latency, clock)))
}

/// Reopens the checkpoint `catalog` under `dir` cold, served as `serving`.
pub fn reopen(
    dir: &Path,
    catalog: ChainId,
    page: usize,
    serving: &Serving,
) -> Result<Served, String> {
    let clock = Clock::start();
    let store = open_store(dir, serving.read_latency, clock)?;
    let resman = match serving.limits {
        Some(limits) => ResourceManager::with_paged_limits(limits),
        None => ResourceManager::new(),
    };
    let dyn_store: Arc<dyn PageStore> = store.clone();
    let pool = BufferPool::with_config(dyn_store, resman.clone(), PoolConfig::default());
    // Scans keep the table's default of one worker per query: two measured
    // no faster at this size in interleaved runs (4.2 k against 4.4 k ops/s on
    // `scan_warm`) and, with both vCPUs busy, follow the host's load twice
    // as closely (2.8 k against 5.1 k ops/s between a noisy and a quiet hour).
    // The parallel path is probed by `core.scan_ns_per_row_par2`.
    let table = Table::open(pool, catalog).map_err(err("reopen"))?;
    Ok(Served {
        table,
        resman,
        store,
        dir: dir.to_path_buf(),
        page,
        clock,
    })
}

/// Builds rows `0..rows` of `profile` as `variant` in a fresh store under
/// `dir`, checkpoints it, drops everything and reopens it cold.
pub fn build(
    profile: &TableProfile,
    rows: u64,
    variant: Variant,
    page: usize,
    dir: &Path,
    serving: &Serving,
) -> Result<(Served, SetupStats), String> {
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let mut stats = SetupStats {
        rows,
        ..SetupStats::default()
    };
    let catalog = {
        let store = open_store(dir, Duration::ZERO, Clock::start())?;
        let dyn_store: Arc<dyn PageStore> = store.clone();
        let pool =
            BufferPool::with_config(dyn_store, ResourceManager::new(), PoolConfig::default());
        let table = Table::create(
            pool,
            page_config(page),
            schema(profile, variant)?,
            vec![PartitionSpec::single(variant.policy())],
        )
        .map_err(err("create table"))?;
        let mut next = 0;
        while next < rows {
            let end = (next + INSERT_BATCH).min(rows);
            let (batch, bytes) = generate(profile, next..end);
            stats.user_bytes += bytes;
            let t = Instant::now();
            for row in batch {
                table.insert(row).map_err(err("insert"))?;
            }
            let took = t.elapsed().as_secs_f64();
            stats.insert_s += took;
            stats.batch_rows_per_s.push((end - next) as f64 / took);
            next = end;
        }
        let t = Instant::now();
        table.delta_merge_all().map_err(err("delta merge"))?;
        stats.merge_ms = t.elapsed().as_secs_f64() * 1e3;
        let catalog = table.checkpoint().map_err(err("checkpoint"))?;
        stats.build_io = store.counters();
        stats.append_samples_ns = store.take_samples().1;
        catalog
    };
    stats.disk_bytes = dir_bytes(dir).map_err(err("size store directory"))?;
    let served = reopen(dir, catalog, page, serving)?;
    stats.total_s = started.elapsed().as_secs_f64();
    Ok((served, stats))
}

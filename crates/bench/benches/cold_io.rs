//! `ablation/cold_io` — the batched asynchronous cold-path I/O stage vs
//! the stage-less pool, across synthetic page latencies.
//!
//! Both sides run the same 4-worker parallel scan over the same data; only
//! the cold path differs:
//!
//! * **baseline**: `PoolConfig { io_stage: None }` — demand misses load
//!   inline (one store read per miss, single-flight waiters block on the
//!   loader). A stage-less pool does not read ahead.
//! * **staged**: the default pool — misses submit fetch requests to the
//!   coalescing I/O stage, scan workers keep an adaptive prefetch window
//!   (`StagedReadAhead`) ahead of their cursor, and adjacent page numbers
//!   ride one ranged `read_pages` call.
//!
//! For each latency the report carries the cold scan time and the
//! single-flight `load_waits` on both sides, and the stage's coalescing
//! ratio (`io_completions / io_physical_reads`, pages per physical read).
//!
//! Emits `BENCH_cold_io.json` at the workspace root and **exits non-zero**
//! when an acceptance target at 150 µs is missed: the staged cold scan
//! ≥ 1.3× faster, and the coalescing ratio > 1. (The checked-in report also
//! carries a `load_waits_ratio` target: it compared against the read-ahead
//! slot the stage-less pool had when it was recorded.)
//!
//! `PAYG_SMOKE=1` runs a small-row smoke: same series, reduced sizes, JSON
//! under `target/` (the checked-in numbers are never overwritten), and the
//! only assertion is that the metrics are produced.

use payg_core::datavec::PagedDataVector;
use payg_core::{PageConfig, ScanOptions};
use payg_encoding::{BitPackedVec, VidSet};
use payg_resman::ResourceManager;
use payg_storage::{
    BufferPool, LatencyStore, MemStore, PageStore, PoolConfig, PoolMetrics,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CARDINALITY: u64 = 1000;
const WORKERS: usize = 4;
const LATENCIES_US: &[u64] = &[0, 150, 1000];
/// The latency point the acceptance targets are defined at.
const TARGET_US: u64 = 150;
const SPEEDUP_TARGET: f64 = 1.3;
const COALESCE_TARGET: f64 = 1.0; // ratio must exceed this

struct BenchParams {
    smoke: bool,
    rows: u64,
    iters: usize,
}

impl BenchParams {
    fn from_env() -> Self {
        let smoke = std::env::var_os("PAYG_SMOKE").is_some_and(|v| v != "0");
        if smoke {
            BenchParams { smoke, rows: 20_000, iters: 1 }
        } else {
            BenchParams { smoke, rows: 400_000, iters: 3 }
        }
    }
}

fn values(rows: u64) -> Vec<u64> {
    (0..rows)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i >> 7) % CARDINALITY)
        .collect()
}

fn median(mut ns: Vec<u128>) -> u128 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// One pool (+ its own chain of the same data) under one cold-path config.
struct Side {
    pool: BufferPool,
    paged: PagedDataVector,
}

impl Side {
    fn build(packed: &BitPackedVec, latency: Duration, io_stage: bool) -> Self {
        let store: Arc<dyn PageStore> = Arc::new(LatencyStore::new(MemStore::new(), latency));
        let config = PoolConfig::default();
        let config = if io_stage { config } else { PoolConfig { io_stage: None, ..config } };
        let pool = BufferPool::with_config(store, ResourceManager::new(), config);
        let page_config = PageConfig {
            datavec_page: 4096,
            dict_page: 4096,
            overflow_page: 4096,
            helper_page: 4096,
            index_page: 4096,
            inline_limit: 128,
            ..PageConfig::default()
        };
        let paged = PagedDataVector::build(&pool, &page_config, packed).unwrap();
        Side { pool, paged }
    }

    /// Median cold-scan time over `iters` runs (pool cleared before each),
    /// plus the pool-metrics delta across all of them and the match count.
    fn measure(&self, rows: u64, set: &VidSet, iters: usize) -> (u128, PoolMetrics, usize) {
        let before = self.pool.metrics();
        let mut ns = Vec::with_capacity(iters);
        let mut matches = None;
        for _ in 0..iters {
            self.pool.clear();
            let t0 = Instant::now();
            let n = self
                .paged
                .par_search(0, rows, set, ScanOptions::with_workers(WORKERS))
                .unwrap()
                .len();
            ns.push(t0.elapsed().as_nanos());
            match matches {
                None => matches = Some(n),
                Some(e) => assert_eq!(n, e, "cold scans disagree on the match count"),
            }
        }
        let delta = self.pool.metrics().delta(&before);
        (median(ns), delta, matches.unwrap())
    }
}

struct CasePoint {
    us: u64,
    baseline_ns: u128,
    staged_ns: u128,
    baseline: PoolMetrics,
    staged: PoolMetrics,
}

impl CasePoint {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.staged_ns.max(1) as f64
    }

    fn coalescing_ratio(&self) -> f64 {
        self.staged.io_completions as f64 / self.staged.io_physical_reads.max(1) as f64
    }
}

fn main() {
    let params = BenchParams::from_env();
    let rows = params.rows;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let packed = BitPackedVec::from_values(&values(rows));
    // 20% of the domain, pseudo-random per page: nothing prunes, every page
    // is read cold — the workload the cold path exists for.
    let set = VidSet::range(CARDINALITY / 10, 3 * CARDINALITY / 10 - 1);

    println!("=== ablation/cold_io{} ===", if params.smoke { " (smoke)" } else { "" });
    let mut points: Vec<CasePoint> = Vec::new();
    let mut pages = 0;
    let mut obs_json_out = String::new();
    for &us in LATENCIES_US {
        let latency = Duration::from_micros(us);
        let baseline = Side::build(&packed, latency, false);
        let staged = Side::build(&packed, latency, true);
        assert!(!baseline.pool.io_stage_active() && staged.pool.io_stage_active());
        pages = staged.paged.pages();
        let (baseline_ns, base_m, base_n) = baseline.measure(rows, &set, params.iters);
        let (staged_ns, staged_m, staged_n) = staged.measure(rows, &set, params.iters);
        assert_eq!(base_n, staged_n, "pools disagree on the match count at {us}us");
        let p = CasePoint { us, baseline_ns, staged_ns, baseline: base_m, staged: staged_m };
        println!(
            "{us:>5}us: baseline {:>8.2}ms  staged {:>8.2}ms  speedup {:>5.2}x  \
             waits {:>4} -> {:>4}  coalescing {:.2} pages/read ({} reads for {} completions)",
            p.baseline_ns as f64 / 1e6,
            p.staged_ns as f64 / 1e6,
            p.speedup(),
            p.baseline.load_waits,
            p.staged.load_waits,
            p.coalescing_ratio(),
            p.staged.io_physical_reads,
            p.staged.io_completions,
        );
        if us == TARGET_US {
            // The registry snapshot of the staged pool at the target point
            // rides along in the report.
            let snap = payg_obs::ObsSnapshot::collect(staged.pool.registry());
            obs_json_out = payg_bench::obs::obs_json(&snap, None, "  ");
        }
    // The stage's worker threads are joined when the pool drops at the
    // end of this scope; nothing leaks across latency points.
        points.push(p);
    }

    let target = points.iter().find(|p| p.us == TARGET_US).expect("target latency measured");
    let speedup_met = target.speedup() >= SPEEDUP_TARGET;
    let coalesce_met = target.coalescing_ratio() > COALESCE_TARGET;
    let all_met = speedup_met && coalesce_met;
    println!(
        "target cold speedup at {TARGET_US}us: {:.2}x (target >= {SPEEDUP_TARGET}x) {}",
        target.speedup(),
        if speedup_met { "MET" } else { "MISSED" }
    );
    println!(
        "target coalescing ratio at {TARGET_US}us: {:.2} (target > {COALESCE_TARGET}) {}",
        target.coalescing_ratio(),
        if coalesce_met { "MET" } else { "MISSED" }
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"ablation/cold_io\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"pages\": {pages},");
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"iters\": {},", params.iters);
    let _ = writeln!(
        json,
        "  \"baseline\": \"io_stage: None — inline demand loads, no read-ahead\","
    );
    let _ = writeln!(json, "  \"series\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"page_latency_us\": {}, \"baseline_ns\": {}, \"staged_ns\": {}, \
             \"speedup\": {:.3}, \"baseline_loads\": {}, \"staged_loads\": {}, \
             \"baseline_load_waits\": {}, \"staged_load_waits\": {}, \
             \"io_submitted\": {}, \"io_coalesced\": {}, \"io_completions\": {}, \
             \"io_physical_reads\": {}, \"coalescing_ratio\": {:.3}}}{}",
            p.us,
            p.baseline_ns,
            p.staged_ns,
            p.speedup(),
            p.baseline.loads,
            p.staged.loads,
            p.baseline.load_waits,
            p.staged.load_waits,
            p.staged.io_submitted,
            p.staged.io_coalesced,
            p.staged.io_completions,
            p.staged.io_physical_reads,
            p.coalescing_ratio(),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"targets\": {{");
    let _ = writeln!(
        json,
        "    \"cold_speedup\": {{\"value\": {:.3}, \"target\": {SPEEDUP_TARGET}, \"met\": {speedup_met}}},",
        target.speedup()
    );
    let _ = writeln!(
        json,
        "    \"coalescing_ratio\": {{\"value\": {:.3}, \"target\": {COALESCE_TARGET}, \"met\": {coalesce_met}}}",
        target.coalescing_ratio()
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"obs\": {obs_json_out},");
    let _ = writeln!(json, "  \"all_met\": {all_met}");
    json.push_str("}\n");

    // CARGO_MANIFEST_DIR of payg-bench is <workspace>/crates/bench. Smoke
    // runs write under target/ so the checked-in numbers are preserved.
    let path = if params.smoke {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_cold_io_smoke.json")
    } else {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_cold_io.json")
    };
    std::fs::write(&path, &json).unwrap();
    println!("wrote {}", path.display());

    if params.smoke {
        // Smoke acceptance: the stage actually ran and produced its
        // metrics (small sizes make the ratios themselves noisy).
        assert!(
            target.staged.io_submitted > 0 && target.staged.io_completions > 0,
            "smoke run produced no stage metrics"
        );
        println!(
            "smoke: stage metrics produced ({} submitted, {:.2} pages/read)",
            target.staged.io_submitted,
            target.coalescing_ratio()
        );
        return;
    }
    if !all_met {
        eprintln!(
            "COLD I/O TARGET MISSED: \
             speedup {:.2}x (target >= {SPEEDUP_TARGET}, met {speedup_met})  \
             coalescing {:.2} (target > {COALESCE_TARGET}, met {coalesce_met})",
            target.speedup(),
            target.coalescing_ratio()
        );
        std::process::exit(1);
    }
}

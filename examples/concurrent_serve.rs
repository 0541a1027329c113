//! Concurrent serving across an online delta merge: reader threads at a
//! fixed QPS keep querying while the merge freezes, side-builds, and
//! publishes — the paper's "queries keep running during the merge" claim
//! (§2, §8) turned into a measured latency series.
//!
//! Two phases with the same reader workload: **quiesced** (no merge) and
//! **merge** (a writer thread keeps ingesting and merging). The report is
//! p50/p99 per phase plus the p99 degradation ratio, written to
//! `target/BENCH_concurrent_serve.json`. Targets enforced on
//! a full run: p99 during merge <= 3x quiesced and **zero failed reads** —
//! every session must serve exact answers throughout. The latency target
//! needs real parallelism to mean anything: on a single hardware thread the
//! merge's side build and the readers time-share one core and the
//! scheduler, not the version chain, sets the p99 — so the ratio is
//! reported but only gated when the box has >= 2 cpus.
//!
//! Run with: `cargo run --release --example concurrent_serve`
//! `PAYG_SMOKE=1` runs reduced sizes and writes
//! `target/BENCH_concurrent_serve_smoke.json`.

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{
    ColumnSpec, PartitionSpec, Projection, Query, QueryResult, Rows, Schema, Table,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READERS: usize = 4;

struct Params {
    smoke: bool,
    rows: i64,
    queries_per_reader: usize,
    qps_per_reader: u64,
    ingest_batch: i64,
}

impl Params {
    fn from_env() -> Self {
        let smoke = std::env::var_os("PAYG_SMOKE").is_some_and(|v| v != "0");
        if smoke {
            Params {
                smoke,
                rows: 6_000,
                queries_per_reader: 120,
                qps_per_reader: 600,
                ingest_batch: 400,
            }
        } else {
            Params {
                smoke,
                rows: 60_000,
                queries_per_reader: 400,
                qps_per_reader: 800,
                ingest_batch: 2_000,
            }
        }
    }
}

fn status_of(i: i64) -> &'static str {
    if i % 3 == 0 {
        "open"
    } else {
        "closed"
    }
}

fn order(i: i64, status: &str) -> Vec<Value> {
    vec![
        Value::Integer(i),
        Value::Varchar(status.into()),
        Value::Integer((i * 37) % 10_000),
    ]
}

/// The fixed reader mix; answers are invariant under the writer's ingest
/// (new rows carry ids >= 1e9 and status "ingested", matching no filter).
fn workload(rows: i64) -> Vec<(Query, QueryResult)> {
    let open = (0..rows).filter(|&i| status_of(i) == "open").count() as u64;
    let sum: i64 = (100..1_000).map(|i| (i * 37) % 10_000).sum();
    vec![
        (
            Query::filtered(
                "status",
                ValuePredicate::Eq(Value::Varchar("open".into())),
                Projection::Count,
            ),
            QueryResult::Count(open),
        ),
        (
            Query::filtered(
                "id",
                ValuePredicate::Between(Value::Integer(100), Value::Integer(999)),
                Projection::Sum("amount".into()),
            ),
            QueryResult::Sum(Value::Integer(sum)),
        ),
        (
            Query::filtered(
                "id",
                ValuePredicate::Eq(Value::Integer(1_234)),
                Projection::All,
            ),
            QueryResult::Rows(Rows::from(vec![order(1_234, status_of(1_234))])),
        ),
    ]
}

/// One phase: `READERS` threads each paced at the target QPS, executing the
/// fixed mix through fresh sessions. Returns pooled per-query latencies;
/// wrong answers panic, failed reads count toward the zero-target.
fn run_phase(
    table: &Table,
    params: &Params,
    expected: &[(Query, QueryResult)],
    failed_reads: &AtomicU64,
) -> Vec<u64> {
    let period = Duration::from_nanos(1_000_000_000 / params.qps_per_reader);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|reader| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(params.queries_per_reader);
                    let mut next = Instant::now();
                    for round in 0..params.queries_per_reader {
                        let now = Instant::now();
                        if next > now {
                            std::thread::sleep(next - now);
                        }
                        next += period;
                        let (q, want) = &expected[round % expected.len()];
                        let t0 = Instant::now();
                        match table.execute(q) {
                            Ok(got) => assert_eq!(
                                &got, want,
                                "reader {reader} round {round}: wrong answer during serve"
                            ),
                            Err(_) => {
                                failed_reads.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reader thread")).collect()
    })
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn main() {
    let params = Params::from_env();
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
    let schema = Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::new("status", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap();
    let table = Table::create(
        pool,
        PageConfig::tiny(),
        schema,
        vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
    )
    .unwrap();
    for i in 0..params.rows {
        table.insert(order(i, status_of(i))).unwrap();
    }
    table.delta_merge_all().unwrap();
    let expected = workload(params.rows);
    for (q, want) in &expected {
        assert_eq!(&table.execute(q).unwrap(), want, "warmup answer");
    }

    println!(
        "=== robustness/concurrent_serve{} ===",
        if params.smoke { " (smoke)" } else { "" }
    );
    println!(
        "rows {}  readers {READERS}  {} qps/reader  {} queries/reader",
        params.rows, params.qps_per_reader, params.queries_per_reader
    );

    let failed_reads = AtomicU64::new(0);

    // Phase 1: quiesced baseline — no writer, no merges.
    let mut quiesced = run_phase(&table, &params, &expected, &failed_reads);
    quiesced.sort_unstable();

    // Phase 2: the same reader load across continuous online merges. The
    // writer ingests (ids >= 1e9, outside every filter) and merges until
    // the readers finish their fixed budget.
    let stop = AtomicBool::new(false);
    let merges = AtomicU64::new(0);
    let ingested = AtomicU64::new(0);
    let mut merge_lat = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut next_id: i64 = 1_000_000_000;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..params.ingest_batch {
                    table.insert(order(next_id, "ingested")).unwrap();
                    next_id += 1;
                    ingested.fetch_add(1, Ordering::Relaxed);
                }
                table.delta_merge_all().expect("online merge");
                merges.fetch_add(1, Ordering::Relaxed);
            }
        });
        let lat = run_phase(&table, &params, &expected, &failed_reads);
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
        lat
    });
    merge_lat.sort_unstable();

    let q_p50 = percentile(&quiesced, 0.5);
    let q_p99 = percentile(&quiesced, 0.99);
    let m_p50 = percentile(&merge_lat, 0.5);
    let m_p99 = percentile(&merge_lat, 0.99);
    let ratio = m_p99 as f64 / q_p99.max(1) as f64;
    let failed = failed_reads.load(Ordering::Relaxed);
    let merges_done = merges.load(Ordering::Relaxed);
    let target = 3.0;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Gate the degradation ratio only when merge and readers can actually
    // run in parallel; zero failed reads and live merges are gated always.
    let ratio_gated = cpus >= 2;
    let met = failed == 0 && merges_done > 0 && (!ratio_gated || ratio <= target);

    println!(
        "quiesced: p50 {:.1}us  p99 {:.1}us   during merge: p50 {:.1}us  p99 {:.1}us",
        q_p50 as f64 / 1e3,
        q_p99 as f64 / 1e3,
        m_p50 as f64 / 1e3,
        m_p99 as f64 / 1e3
    );
    println!(
        "p99 degradation {ratio:.2}x (target <= {target}x, {})   merges completed \
         {merges_done}  rows ingested {}  failed reads {failed} (target 0)",
        if ratio_gated { "gated" } else { "reported only: single cpu" },
        ingested.load(Ordering::Relaxed)
    );
    // Readers and writer have joined: every replaced version has retired.
    let versions_live = table.registry().gauge(payg_obs::names::TABLE_VERSIONS_LIVE).get();
    assert_eq!(versions_live, 1, "replaced versions outlived their last session");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"robustness/concurrent_serve\",");
    let _ = writeln!(json, "  \"rows\": {},", params.rows);
    let _ = writeln!(json, "  \"readers\": {READERS},");
    let _ = writeln!(json, "  \"qps_per_reader\": {},", params.qps_per_reader);
    let _ = writeln!(json, "  \"queries_per_reader\": {},", params.queries_per_reader);
    let _ = writeln!(json, "  \"quiesced\": {{");
    let _ = writeln!(json, "    \"queries\": {},", quiesced.len());
    let _ = writeln!(json, "    \"p50_ns\": {q_p50},");
    let _ = writeln!(json, "    \"p99_ns\": {q_p99}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"during_merge\": {{");
    let _ = writeln!(json, "    \"queries\": {},", merge_lat.len());
    let _ = writeln!(json, "    \"p50_ns\": {m_p50},");
    let _ = writeln!(json, "    \"p99_ns\": {m_p99},");
    let _ = writeln!(json, "    \"merges_completed\": {merges_done},");
    let _ = writeln!(json, "    \"rows_ingested\": {}", ingested.load(Ordering::Relaxed));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"p99_ratio\": {ratio:.3},");
    let _ = writeln!(json, "  \"target_ratio\": {target},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"ratio_gated\": {ratio_gated},");
    let _ = writeln!(json, "  \"failed_reads\": {failed},");
    let _ = writeln!(json, "  \"met\": {met},");
    let snap = payg_obs::ObsSnapshot::collect(table.registry());
    let _ = writeln!(json, "  \"obs\": {}", payg_bench::obs::obs_json(&snap, "  "));
    json.push_str("}\n");

    // Both modes write under target/: a report is one run's output on the
    // cpus it names, not a checked-in figure.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(if params.smoke {
        "BENCH_concurrent_serve_smoke.json"
    } else {
        "BENCH_concurrent_serve.json"
    });
    std::fs::write(&path, &json).unwrap();
    println!("wrote {}", path.display());

    if params.smoke {
        // Smoke acceptance: the latency series exists, merges actually ran
        // concurrently with the readers, and no read failed. The ratio
        // itself is too noisy at smoke sizes to gate on.
        assert!(merges_done > 0, "smoke run saw no online merge");
        assert_eq!(failed, 0, "smoke run had failed reads");
        assert!(q_p99 > 0 && m_p99 > 0, "smoke run produced no latency series");
        println!("smoke: concurrent-serve series produced ({ratio:.2}x p99 degradation)");
        return;
    }
    if !met {
        eprintln!(
            "SERVE TARGET MISSED: p99 ratio {ratio:.2}x (target <= {target}x, \
             gated {ratio_gated}), merges {merges_done} (target > 0), \
             failed reads {failed} (target 0)"
        );
        std::process::exit(1);
    }
}

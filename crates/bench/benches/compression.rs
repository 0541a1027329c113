//! `ablation/compression` — compressed-domain paging vs the plain page
//! layouts: FSST dictionary blocks and partitioned Elias-Fano postings.
//!
//! Four measurements, each against the same data built twice (compressed
//! codecs on vs `dict_fsst: false, pef_postings: false`):
//!
//! * **dict bytes** — dictionary + overflow chain bytes for a string-heavy
//!   sorted key set. Target: FSST side ≤ 70% of plain (≥30% reduction).
//! * **pef bytes** — inverted-index chain bytes on clustered row positions
//!   (each vid's postings form dense runs). Target: ≤ plain bit-packed.
//! * **cold scan** — full posting drain + dictionary materialization with
//!   every page cold behind a synthetic per-read latency (data ≫ pool: the
//!   pool is cleared before each run, so page *count* is the cost). Target:
//!   compressed ≥ 1.3× faster, because fewer pages exist to load.
//! * **compressed domain** — warm eq/IN/range probes on the PEF index:
//!   the dispatch seam's `CompressedDomain` traversal (`next_row_pos_geq`
//!   leapfrog, early stop at the window end) vs its `DecodeThenScan`
//!   branch (full drain, filter). Target: ≥ 1.0× on every shape.
//!
//! Emits `BENCH_compression.json` at the workspace root and **exits
//! non-zero** when any target is missed. `PAYG_SMOKE=1` runs reduced
//! sizes, writes under `target/`, and only asserts the metrics exist.

use payg_core::dict::PagedDictionary;
use payg_core::invidx::PagedInvertedIndex;
use payg_core::{
    ColumnBuilder, DataType, LoadPolicy, PageConfig, ScanPath, Value, ValuePredicate,
};
use payg_encoding::dispatch::CodecKind;
use payg_obs::names;
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, LatencyStore, MemStore, PageStore};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DICT_RATIO_TARGET: f64 = 0.70; // fsst chain bytes / plain chain bytes
const PEF_RATIO_TARGET: f64 = 1.0; // pef chain bytes / bit-packed chain bytes
const COLD_SPEEDUP_TARGET: f64 = 1.3;
const DOMAIN_FLOOR: f64 = 1.0;
const COLD_LATENCY_US: u64 = 100;

struct BenchParams {
    smoke: bool,
    keys: u64,
    rows: u64,
    cardinality: u64,
    run_len: u64,
    iters: usize,
    probe_iters: usize,
}

impl BenchParams {
    fn from_env() -> Self {
        let smoke = std::env::var_os("PAYG_SMOKE").is_some_and(|v| v != "0");
        if smoke {
            BenchParams {
                smoke,
                keys: 3_000,
                rows: 30_000,
                cardinality: 200,
                run_len: 30,
                iters: 1,
                probe_iters: 3,
            }
        } else {
            BenchParams {
                smoke,
                keys: 60_000,
                rows: 400_000,
                cardinality: 1_000,
                run_len: 100,
                iters: 3,
                probe_iters: 9,
            }
        }
    }
}

fn median(mut ns: Vec<u128>) -> u128 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// Sorted, distinct, string-heavy keys with the repeated substructure real
/// string dictionaries have (URLs, SKUs): front coding strips the shared
/// prefix between neighbours, FSST compresses the templated remainder.
fn string_keys(n: u64) -> Vec<Vec<u8>> {
    const SEGMENTS: [&str; 6] = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
    let mut keys: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            format!(
                "https://warehouse-{:02}.example.com/catalog/item-{:08}/variant-{}/details.html",
                i % 40,
                i,
                SEGMENTS[(i % 6) as usize]
            )
            .into_bytes()
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// Row values where each vid's postings are dense runs — the clustered
/// layout partitioned Elias-Fano is built for.
fn clustered_values(rows: u64, cardinality: u64, run_len: u64) -> Vec<u64> {
    (0..rows).map(|i| (i / run_len) % cardinality).collect()
}

fn mem_pool() -> BufferPool {
    BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
}

fn config(compressed: bool) -> PageConfig {
    PageConfig {
        dict_fsst: compressed,
        pef_postings: compressed,
        ..PageConfig::default()
    }
}

/// Dictionary + overflow chain bytes (what `pool_page_bytes` accounts for
/// the value chains) for one codec side.
fn dict_chain_bytes(keys: &[Vec<u8>], compressed: bool) -> (u64, CodecKind, u64) {
    let pool = mem_pool();
    let cfg = config(compressed);
    let (dict, stats) = PagedDictionary::build(&pool, &cfg, keys).unwrap();
    let bytes = stats.dict_pages * cfg.dict_page as u64
        + stats.overflow_pages * cfg.overflow_page as u64;
    let per_mille = pool
        .registry()
        .gauge_labeled(names::DICT_FSST_RATIO, &[("pool", pool.metrics_label())])
        .get();
    (bytes, dict.codec_kind(), per_mille)
}

/// Inverted-index chain bytes for one codec side, plus the built index and
/// its pool for reuse in the probe measurements.
fn index_chain_bytes(
    values: &[u64],
    cardinality: u64,
    compressed: bool,
) -> (u64, PagedInvertedIndex, BufferPool) {
    let pool = mem_pool();
    let cfg = config(compressed);
    let index = PagedInvertedIndex::build(&pool, &cfg, values, cardinality).unwrap();
    let bytes = index.pages() * cfg.index_page as u64;
    (bytes, index, pool)
}

/// One cold-side fixture: dictionary + index behind a latency store.
struct ColdSide {
    pool: BufferPool,
    dict: PagedDictionary,
    index: PagedInvertedIndex,
}

impl ColdSide {
    fn build(keys: &[Vec<u8>], values: &[u64], cardinality: u64, compressed: bool) -> Self {
        let store: Arc<dyn PageStore> = Arc::new(LatencyStore::new(
            MemStore::new(),
            Duration::from_micros(COLD_LATENCY_US),
        ));
        let pool = BufferPool::new(store, ResourceManager::new());
        let cfg = config(compressed);
        let (dict, _) = PagedDictionary::build(&pool, &cfg, keys).unwrap();
        let index = PagedInvertedIndex::build(&pool, &cfg, values, cardinality).unwrap();
        ColdSide { pool, dict, index }
    }

    /// Median time to read the compressed structures end to end with every
    /// page cold: drain all postings, then materialize every dictionary
    /// value. Returns (median ns, pool loads across all iters, checksum).
    fn measure(&self, cardinality: u64, iters: usize) -> (u128, u64, u64) {
        let before = self.pool.metrics();
        let mut ns = Vec::with_capacity(iters);
        let mut check = 0u64;
        for _ in 0..iters {
            self.pool.clear();
            let t0 = Instant::now();
            let mut sum = 0u64;
            let mut it = self.index.iter();
            for vid in 0..cardinality {
                let mut cur = it.get_first_row_pos(vid).unwrap();
                while let Some(rpos) = cur {
                    sum = sum.wrapping_add(rpos);
                    cur = it.get_next_row_pos().unwrap();
                }
            }
            for key in self.dict.materialize_all_direct().unwrap() {
                sum = sum.wrapping_add(key.len() as u64);
            }
            ns.push(t0.elapsed().as_nanos());
            check = sum;
        }
        let loads = self.pool.metrics().delta(&before).loads;
        (median(ns), loads, check)
    }
}

/// Warm probe timing on one PEF index: the dispatch seam's two traversal
/// branches over the same vids and row window. Returns
/// (decode_then_scan_ns, compressed_domain_ns, match count).
fn probe_paths(
    index: &PagedInvertedIndex,
    vids: &[u64],
    window: (u64, u64),
    iters: usize,
) -> (u128, u128, u64) {
    let (from, to) = window;
    let mut dts_ns = Vec::with_capacity(iters);
    let mut cd_ns = Vec::with_capacity(iters);
    let mut dts_count = 0u64;
    let mut cd_count = 0u64;
    for _ in 0..iters {
        let mut it = index.iter();
        let t0 = Instant::now();
        let mut n = 0u64;
        for &vid in vids {
            let mut cur = it.get_first_row_pos(vid).unwrap();
            while let Some(rpos) = cur {
                if rpos >= from && rpos < to {
                    n += 1;
                }
                cur = it.get_next_row_pos().unwrap();
            }
        }
        dts_ns.push(t0.elapsed().as_nanos());
        dts_count = n;

        let t0 = Instant::now();
        let mut n = 0u64;
        for &vid in vids {
            let mut cur = it.next_row_pos_geq(vid, from).unwrap();
            while let Some(rpos) = cur {
                if rpos >= to {
                    break;
                }
                n += 1;
                cur = it.get_next_row_pos().unwrap();
            }
        }
        cd_ns.push(t0.elapsed().as_nanos());
        cd_count = n;
    }
    assert_eq!(dts_count, cd_count, "traversal branches disagree on match count");
    (median(dts_ns), median(cd_ns), cd_count)
}

/// The seam itself must route these shapes as measured: compressed columns
/// send point/set probes down the compressed-domain branch and range
/// probes down decode-then-scan.
fn assert_dispatch_routes() {
    let pool = mem_pool();
    let values: Vec<Value> =
        (0..600).map(|i| Value::Varchar(format!("sku-{:04}", i % 97))).collect();
    let col = ColumnBuilder::new(DataType::Varchar)
        .policy(LoadPolicy::PageLoadable)
        .with_index(true)
        .build(&pool, &PageConfig::tiny(), &values)
        .unwrap()
        .column;
    let eq = ValuePredicate::Eq(Value::Varchar("sku-0007".into()));
    let inset = ValuePredicate::In(vec![
        Value::Varchar("sku-0003".into()),
        Value::Varchar("sku-0011".into()),
    ]);
    let range =
        ValuePredicate::Between(Value::Varchar("sku-0000".into()), Value::Varchar("sku-0020".into()));
    assert_eq!(col.scan_path(&eq), ScanPath::CompressedDomain);
    assert_eq!(col.scan_path(&inset), ScanPath::CompressedDomain);
    assert_eq!(col.scan_path(&range), ScanPath::DecodeThenScan);
}

fn main() {
    let params = BenchParams::from_env();
    println!("=== ablation/compression{} ===", if params.smoke { " (smoke)" } else { "" });
    assert_dispatch_routes();

    let keys = string_keys(params.keys);
    let values = clustered_values(params.rows, params.cardinality, params.run_len);

    // Bytes: dictionary chains.
    let (plain_dict_bytes, plain_dict_codec, _) = dict_chain_bytes(&keys, false);
    let (fsst_dict_bytes, fsst_dict_codec, fsst_per_mille) = dict_chain_bytes(&keys, true);
    assert_eq!(plain_dict_codec, CodecKind::Plain);
    assert_eq!(fsst_dict_codec, CodecKind::Fsst, "fsst must pay on this key set");
    let dict_ratio = fsst_dict_bytes as f64 / plain_dict_bytes.max(1) as f64;
    println!(
        "dict chain bytes: plain {plain_dict_bytes}  fsst {fsst_dict_bytes}  \
         ratio {dict_ratio:.3} (block-level per-mille {fsst_per_mille})"
    );

    // Bytes: posting chains on clustered rows.
    let (plain_idx_bytes, _plain_idx, _plain_pool) =
        index_chain_bytes(&values, params.cardinality, false);
    let (pef_idx_bytes, pef_idx, pef_pool) = index_chain_bytes(&values, params.cardinality, true);
    assert_eq!(pef_idx.codec_kind(), CodecKind::Pef);
    let pef_ratio = pef_idx_bytes as f64 / plain_idx_bytes.max(1) as f64;
    let pef_bits_x100 = pef_pool
        .registry()
        .gauge_labeled(names::PEF_CHUNK_BITS, &[("pool", pef_pool.metrics_label())])
        .get();
    println!(
        "posting chain bytes (clustered): bit-packed {plain_idx_bytes}  pef {pef_idx_bytes}  \
         ratio {pef_ratio:.3} ({:.2} bits/posting)",
        pef_bits_x100 as f64 / 100.0
    );

    // Cold scan: every page behind COLD_LATENCY_US, pool cleared per run.
    let plain_cold = ColdSide::build(&keys, &values, params.cardinality, false);
    let comp_cold = ColdSide::build(&keys, &values, params.cardinality, true);
    let (plain_cold_ns, plain_loads, plain_check) =
        plain_cold.measure(params.cardinality, params.iters);
    let (comp_cold_ns, comp_loads, comp_check) =
        comp_cold.measure(params.cardinality, params.iters);
    assert_eq!(plain_check, comp_check, "cold drains disagree");
    let cold_speedup = plain_cold_ns as f64 / comp_cold_ns.max(1) as f64;
    println!(
        "cold scan at {COLD_LATENCY_US}us/page: plain {:.2}ms ({} loads)  \
         compressed {:.2}ms ({} loads)  speedup {cold_speedup:.2}x",
        plain_cold_ns as f64 / 1e6,
        plain_loads,
        comp_cold_ns as f64 / 1e6,
        comp_loads,
    );

    // Compressed-domain vs decode-then-scan, warm, per probe shape.
    let window = (params.rows / 4, 3 * params.rows / 4);
    let eq_vids = [params.cardinality / 2];
    let in_vids: Vec<u64> = (0..8).map(|k| (k * params.cardinality) / 9).collect();
    let range_vids: Vec<u64> = {
        let n = (params.cardinality / 16).max(2);
        (params.cardinality / 3..params.cardinality / 3 + n).collect()
    };
    let shapes: Vec<(&str, Vec<u64>)> =
        vec![("eq", eq_vids.to_vec()), ("in", in_vids), ("range", range_vids)];
    let mut domain_points = Vec::new();
    for (op, vids) in &shapes {
        let (dts_ns, cd_ns, matches) = probe_paths(&pef_idx, vids, window, params.probe_iters);
        let speedup = dts_ns as f64 / cd_ns.max(1) as f64;
        println!(
            "compressed-domain {op:>5}: decode-then-scan {:>8.1}us  in-place {:>8.1}us  \
             speedup {speedup:.2}x ({matches} matches)",
            dts_ns as f64 / 1e3,
            cd_ns as f64 / 1e3,
        );
        domain_points.push((*op, dts_ns, cd_ns, speedup, matches));
    }
    let domain_floor =
        domain_points.iter().map(|p| p.3).fold(f64::INFINITY, f64::min);

    let dict_met = dict_ratio <= DICT_RATIO_TARGET;
    let pef_met = pef_ratio <= PEF_RATIO_TARGET;
    let cold_met = cold_speedup >= COLD_SPEEDUP_TARGET;
    let domain_met = domain_floor >= DOMAIN_FLOOR;
    let all_met = dict_met && pef_met && cold_met && domain_met;
    println!(
        "targets: dict ratio {dict_ratio:.3} (<= {DICT_RATIO_TARGET}) {}  \
         pef ratio {pef_ratio:.3} (<= {PEF_RATIO_TARGET}) {}  \
         cold {cold_speedup:.2}x (>= {COLD_SPEEDUP_TARGET}) {}  \
         domain floor {domain_floor:.2}x (>= {DOMAIN_FLOOR}) {}",
        if dict_met { "MET" } else { "MISSED" },
        if pef_met { "MET" } else { "MISSED" },
        if cold_met { "MET" } else { "MISSED" },
        if domain_met { "MET" } else { "MISSED" },
    );

    let snap = payg_obs::ObsSnapshot::collect(comp_cold.pool.registry());
    let obs_json_out = payg_bench::obs::obs_json(&snap, None, "  ");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"ablation/compression\",");
    let _ = writeln!(json, "  \"keys\": {},", params.keys);
    let _ = writeln!(json, "  \"rows\": {},", params.rows);
    let _ = writeln!(json, "  \"cardinality\": {},", params.cardinality);
    let _ = writeln!(json, "  \"run_len\": {},", params.run_len);
    let _ = writeln!(json, "  \"iters\": {},", params.iters);
    let _ = writeln!(
        json,
        "  \"baseline\": \"plain codecs — front-coded dictionary blocks, bit-packed postings\","
    );
    let _ = writeln!(
        json,
        "  \"dict\": {{\"plain_bytes\": {plain_dict_bytes}, \"fsst_bytes\": {fsst_dict_bytes}, \
         \"ratio\": {dict_ratio:.4}, \"block_per_mille\": {fsst_per_mille}}},"
    );
    let _ = writeln!(
        json,
        "  \"pef\": {{\"plain_bytes\": {plain_idx_bytes}, \"pef_bytes\": {pef_idx_bytes}, \
         \"ratio\": {pef_ratio:.4}, \"bits_per_posting_x100\": {pef_bits_x100}}},"
    );
    let _ = writeln!(
        json,
        "  \"cold\": {{\"page_latency_us\": {COLD_LATENCY_US}, \"plain_ns\": {plain_cold_ns}, \
         \"compressed_ns\": {comp_cold_ns}, \"speedup\": {cold_speedup:.3}, \
         \"plain_loads\": {plain_loads}, \"compressed_loads\": {comp_loads}}},"
    );
    let _ = writeln!(json, "  \"compressed_domain\": [");
    for (i, (op, dts_ns, cd_ns, speedup, matches)) in domain_points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"op\": \"{op}\", \"decode_then_scan_ns\": {dts_ns}, \
             \"compressed_ns\": {cd_ns}, \"speedup\": {speedup:.3}, \"matches\": {matches}}}{}",
            if i + 1 < domain_points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"targets\": {{");
    let _ = writeln!(
        json,
        "    \"dict_bytes_ratio\": {{\"value\": {dict_ratio:.4}, \"target\": {DICT_RATIO_TARGET}, \"met\": {dict_met}}},"
    );
    let _ = writeln!(
        json,
        "    \"pef_bytes_ratio\": {{\"value\": {pef_ratio:.4}, \"target\": {PEF_RATIO_TARGET}, \"met\": {pef_met}}},"
    );
    let _ = writeln!(
        json,
        "    \"cold_speedup\": {{\"value\": {cold_speedup:.3}, \"target\": {COLD_SPEEDUP_TARGET}, \"met\": {cold_met}}},"
    );
    let _ = writeln!(
        json,
        "    \"compressed_domain_floor\": {{\"value\": {domain_floor:.3}, \"target\": {DOMAIN_FLOOR}, \"met\": {domain_met}}}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"obs\": {obs_json_out},");
    let _ = writeln!(json, "  \"all_met\": {all_met}");
    json.push_str("}\n");

    let path = if params.smoke {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_compression_smoke.json")
    } else {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_compression.json")
    };
    std::fs::write(&path, &json).unwrap();
    println!("wrote {}", path.display());

    if params.smoke {
        // Smoke acceptance: both codecs built, both sides measured, the
        // traversal branches agreed — the ratios themselves are noisy at
        // smoke sizes.
        assert!(fsst_dict_bytes > 0 && pef_idx_bytes > 0, "smoke produced no chain bytes");
        assert!(plain_loads > 0 && comp_loads > 0, "smoke cold runs loaded no pages");
        println!("smoke: codec chains built and measured");
        return;
    }
    if !all_met {
        eprintln!(
            "COMPRESSION TARGET MISSED: dict ratio {dict_ratio:.3} (met {dict_met})  \
             pef ratio {pef_ratio:.3} (met {pef_met})  cold {cold_speedup:.2}x (met {cold_met})  \
             domain floor {domain_floor:.2}x (met {domain_met})"
        );
        std::process::exit(1);
    }
}

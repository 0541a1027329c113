//! Isolated per-layer probes: the unit costs the attribution multiplies the
//! in-situ counters with.
//!
//! Each probe times one public entry point of one layer, on the benchmark
//! table's own columns (`core.*`, `pool.*`, `table.*`) or on seeded symbols
//! at the widths the ERP profile produces (`encoding.*`). Every figure is a
//! median over repeated batches, in the layer's natural unit.

use crate::api::{
    domain_value, BitPackedVec, BitWidth, ChainId, Column, ColumnRead, DataType, KernelPredicate,
    PageKey, Projection, Query, ScanOptions, TableProfile, ValuePredicate, VidSet,
};
use crate::ops::{raw_len, KernelKind, Rng};
use crate::report::median;
use crate::setup::Served;
use std::hint::black_box;
use std::time::Instant;

/// Widths the `encoding.*` metrics are reported at: low-, mid- and
/// high-cardinality columns of the ERP profile.
pub const WIDTHS: [u32; 3] = [4, 8, 13];
const KINDS: [KernelKind; 3] = [KernelKind::Eq, KernelKind::Range, KernelKind::InSet];
const SYMBOLS: u64 = 1 << 17;
const REPS: usize = 15;

/// Unit costs, one field per probe metric.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Dictionary `findByValue` (`vid_set_for(=)`), µs.
    pub dict_find_by_value_us: f64,
    /// Dictionary `findByValueID` (`key_by_vid`), µs.
    pub dict_value_by_vid_us: f64,
    /// Primary-key inverted-index point probe (`find_rows(=)`), µs.
    pub index_probe_us: f64,
    /// Late materialization of contiguous rows (`get_values`), ns per row.
    pub get_values_ns_per_row: f64,
    /// Sequential `count_rows(=)` over an unindexed data vector, ns per row.
    pub scan_ns_per_row: f64,
    /// The same scan with two workers, ns per row.
    pub scan_ns_per_row_par2: f64,
    /// `scan_ns_per_row` over the raw kernel's cost at the same width.
    pub scan_over_kernel: f64,
    /// `KernelPredicate::scan_chunks`, ns per symbol, `[kind][width]`.
    pub kernel: [[f64; 3]; 3],
    /// `BitPackedVec::mget`, ns per symbol, per width.
    pub mget: [f64; 3],
    /// `BufferPool::pin` of a resident page, ns.
    pub warm_pin_ns: f64,
    /// `BufferPool::pin` of an absent page, µs (store read included).
    pub cold_pin_us: f64,
    /// The store's share of a cold pin, µs.
    pub cold_pin_store_us: f64,
    /// `Snapshot::execute` of `SELECT ROWID() WHERE pk = v` — one index probe
    /// and nothing else below the table layer — ns.
    pub point_query_ns: f64,
    /// Dictionary chain bytes over the raw bytes of the distinct values.
    pub dict_bytes_over_raw: f64,
    /// Inverted-index chain bits per indexed row.
    pub postings_bits_per_row: f64,
}

/// Median over [`REPS`] batches of `f`'s elapsed ns per unit of work done.
fn per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let units = f();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(samples)
}

fn vid_set(kind: KernelKind, width: u32) -> VidSet {
    let max = (1u64 << width) - 1;
    match kind {
        KernelKind::Eq => VidSet::Single(max / 3),
        KernelKind::Range => VidSet::range(max / 4, max / 2),
        KernelKind::InSet => VidSet::from_vids(vec![1, max / 3, max / 2 + 1, max - 1]),
    }
}

fn symbols(width: u32) -> BitPackedVec {
    let mut rng = Rng::new(u64::from(width));
    let vids: Vec<u64> = (0..SYMBOLS)
        .map(|_| rng.next_u64() >> (64 - width))
        .collect();
    let bw = BitWidth::new(width).expect("probe widths are 1..=32");
    BitPackedVec::from_values_with_width(&vids, bw)
}

/// `KernelPredicate::scan_chunks` over seeded symbols, ns per symbol.
pub fn kernel_ns_per_symbol(kind: KernelKind, width: u32) -> f64 {
    let vec = symbols(width);
    let set = vid_set(kind, width);
    let pred = KernelPredicate::new(vec.width(), &set);
    let mut out = Vec::with_capacity(vec.chunk_count() as usize);
    per_unit(|| {
        out.clear();
        pred.scan_chunks(black_box(vec.words()), &mut out);
        black_box(&out);
        SYMBOLS
    })
}

fn mget_ns_per_symbol(width: u32) -> f64 {
    let vec = symbols(width);
    let mut out = Vec::new();
    per_unit(|| {
        vec.mget(0, SYMBOLS, &mut out);
        black_box(&out);
        SYMBOLS
    })
}

fn perr<E: std::fmt::Display>(e: E) -> String {
    format!("probe: {e}")
}

fn chain_bytes(served: &Served, chain: u64) -> u64 {
    let store = served.table.pool().store();
    store.chain_len(ChainId(chain)).unwrap_or(0) * served.page as u64
}

/// Runs every probe against `served` (leaves its pool cleared of unpinned
/// frames, so call it after the timed phase).
pub fn probe(served: &Served, profile: &TableProfile, rows: u64) -> Result<Probes, String> {
    let mut p = Probes::default();
    for (k, &kind) in KINDS.iter().enumerate() {
        for (w, &width) in WIDTHS.iter().enumerate() {
            p.kernel[k][w] = kernel_ns_per_symbol(kind, width);
        }
    }
    for (w, &width) in WIDTHS.iter().enumerate() {
        p.mget[w] = mget_ns_per_symbol(width);
    }

    let snap = served
        .table
        .session()
        .map_err(|e| format!("probe session: {e}"))?;
    let main = snap.partitions()[0].main();
    let mut rng = Rng::new(profile.seed ^ 0x70726f6265);

    // Dictionary probes: the widest paged string dictionary.
    let dict_col = (1..profile.columns.len())
        .filter(|&c| profile.columns[c].data_type == DataType::Varchar)
        .max_by_key(|&c| profile.columns[c].cardinality)
        .ok_or("profile has no string column")?;
    let card = profile.columns[dict_col].cardinality;
    let col = main.column(dict_col);
    let values: Vec<ValuePredicate> = (0..256)
        .map(|_| ValuePredicate::Eq(domain_value(profile, dict_col, rng.below(card))))
        .collect();
    let mut failed = None;
    p.dict_find_by_value_us = per_unit(|| {
        for v in &values {
            if let Err(x) = col.vid_set_for(v) {
                failed = Some(x);
            }
        }
        values.len() as u64
    }) / 1e3;
    let vids: Vec<u64> = (0..256).map(|_| rng.below(col.cardinality())).collect();
    p.dict_value_by_vid_us = per_unit(|| {
        for &vid in &vids {
            if let Err(x) = col.key_by_vid(vid) {
                failed = Some(x);
            }
        }
        vids.len() as u64
    }) / 1e3;

    // The probe every Q_pk op starts with.
    let pk = main.column(0);
    let keys: Vec<ValuePredicate> = (0..256)
        .map(|_| ValuePredicate::Eq(domain_value(profile, 0, rng.below(rows))))
        .collect();
    p.index_probe_us = per_unit(|| {
        for k in &keys {
            match pk.find_rows(k, 0, rows) {
                Ok(hits) => drop(black_box(hits)),
                Err(x) => failed = Some(x),
            }
        }
        keys.len() as u64
    }) / 1e3;

    // Late materialization on the widest numeric column.
    let num_col = (1..profile.columns.len())
        .filter(|&c| profile.columns[c].data_type != DataType::Varchar)
        .max_by_key(|&c| profile.columns[c].cardinality)
        .ok_or("profile has no numeric column")?;
    let span = rows.min(1_000);
    let start = rng.below(rows - span + 1);
    let positions: Vec<u64> = (start..start + span).collect();
    p.get_values_ns_per_row = per_unit(|| {
        match main.column(num_col).get_values(&positions) {
            Ok(vals) => drop(black_box(vals)),
            Err(x) => failed = Some(x),
        }
        span
    });

    // Data-vector scans, where the table has an unindexed column.
    let scan_col = (1..profile.columns.len())
        .filter(|&c| !main.column(c).has_index() && profile.columns[c].cardinality > 1)
        .max_by_key(|&c| profile.columns[c].cardinality);
    if let Some(c) = scan_col {
        let col = main.column(c);
        let pred = ValuePredicate::Eq(domain_value(profile, c, profile.columns[c].cardinality / 3));
        let mut scan = |opts: ScanOptions| {
            per_unit(|| {
                match col.count_rows_par(&pred, 0, rows, opts) {
                    Ok(n) => drop(black_box(n)),
                    Err(x) => failed = Some(x),
                }
                rows
            })
        };
        p.scan_ns_per_row = scan(ScanOptions::sequential());
        p.scan_ns_per_row_par2 = scan(ScanOptions::with_workers(2));
        let width = BitWidth::for_cardinality(col.cardinality()).bits();
        p.scan_over_kernel = p.scan_ns_per_row / kernel_ns_per_symbol(KernelKind::Eq, width);
    }
    if let Some(x) = failed {
        return Err(perr(x));
    }

    // The cheapest real query: what the table layer adds to one index probe.
    let pk_name = &profile.columns[0].name;
    let points: Vec<Query> = keys
        .iter()
        .map(|k| Query::filtered(pk_name.clone(), k.clone(), Projection::RowIds))
        .collect();
    p.point_query_ns = per_unit(|| {
        for q in &points {
            black_box(snap.execute(q).is_ok());
        }
        points.len() as u64
    });

    // Chain sizes by role.
    let (mut dict_bytes, mut dict_raw, mut index_bytes, mut indexed_cols) =
        (0u64, 0u64, 0u64, 0u64);
    for c in 0..profile.columns.len() {
        let column: &Column = main.column(c);
        for (role, chain) in column.chains() {
            if role.starts_with("dict") {
                dict_bytes += chain_bytes(served, chain);
            } else if role == "index" {
                index_bytes += chain_bytes(served, chain);
            }
        }
        indexed_cols += u64::from(column.has_index());
        let card = profile.columns[c].cardinality.min(rows);
        dict_raw += (0..card)
            .map(|i| raw_len(&domain_value(profile, c, i)))
            .sum::<u64>();
    }
    p.dict_bytes_over_raw = dict_bytes as f64 / dict_raw.max(1) as f64;
    p.postings_bits_per_row = (index_bytes * 8) as f64 / (rows * indexed_cols.max(1)) as f64;

    // Pool pins, warm then cold, on the data chain of a paged column.
    let pool = served.table.pool();
    let data_chain = main
        .column(num_col)
        .chains()
        .into_iter()
        .find(|(role, _)| *role == "data")
        .map(|(_, chain)| ChainId(chain))
        .ok_or("column without a data chain")?;
    let pages = pool.store().chain_len(data_chain).map_err(perr)?.min(32);
    if pages > 0 {
        let key = PageKey::new(data_chain, 0);
        let held = pool.pin(key).map_err(perr)?;
        p.warm_pin_ns = per_unit(|| {
            for _ in 0..4_096 {
                black_box(pool.pin(key).is_ok());
            }
            4_096
        });
        drop(held);
        let before = served.store.counters();
        let mut samples = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            pool.clear();
            let t = Instant::now();
            for page in 0..pages {
                black_box(pool.pin(PageKey::new(data_chain, page)).is_ok());
            }
            samples.push(t.elapsed().as_nanos() as f64 / pages as f64);
        }
        p.cold_pin_us = median(samples) / 1e3;
        let io = served.store.counters().delta(&before);
        p.cold_pin_store_us = io.read_ns as f64 / io.read_calls.max(1) as f64 / 1e3;
    }
    Ok(p)
}

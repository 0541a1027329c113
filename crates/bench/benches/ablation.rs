//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * the iterator **handle cache** (§3.2.3) vs a fresh cache per lookup,
//! * **page-summary pruning** on clustered vs unclustered data,
//! * the index iterator's **decoded-chunk cache** (sequential `getNextRowPos`),
//! * the **SWAR** word-aligned equality path vs the generic decode path,
//! * warm **paged vs resident** point reads (the steady-state overhead that
//!   the paper's run-time ratios converge to).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use payg_core::column::ColumnRead;
use payg_core::datavec::PagedDataVector;
use payg_core::dict::{HandleCache, PagedDictionary};
use payg_core::invidx::PagedInvertedIndex;
use payg_core::{ColumnBuilder, DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use payg_encoding::scan::search_bitmap;
use payg_encoding::{BitPackedVec, BitWidth, VidSet};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, MemStore, PageStore, TieredStore};
use std::sync::Arc;
use std::time::Duration;

fn pool() -> BufferPool {
    BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
}

fn config() -> PageConfig {
    PageConfig {
        datavec_page: 4096,
        dict_page: 4096,
        overflow_page: 4096,
        helper_page: 4096,
        index_page: 4096,
        inline_limit: 128,
    }
}

/// Handle cache: a batch of sorted dictionary lookups through one iterator
/// (pages pinned once) vs a fresh cache per lookup (pages re-pinned).
fn bench_dict_handle_cache(c: &mut Criterion) {
    let pool = pool();
    let keys: Vec<Vec<u8>> = (0..100_000u64)
        .map(|i| format!("material-{i:08}").into_bytes())
        .collect();
    let (dict, _) = PagedDictionary::build(&pool, &config(), DataType::Varchar, &keys).unwrap();
    let probes: Vec<u64> = (0..100_000u64).step_by(97).collect();
    let mut g = c.benchmark_group("ablation/dict_handle_cache");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("batch_shared_cache", |b| {
        b.iter(|| {
            let mut cache = HandleCache::new(pool.clone());
            for &vid in &probes {
                std::hint::black_box(dict.key_by_vid(vid, &mut cache).unwrap());
            }
        })
    });
    g.bench_function("fresh_cache_per_lookup", |b| {
        b.iter(|| {
            for &vid in &probes {
                let mut cache = HandleCache::new(pool.clone());
                std::hint::black_box(dict.key_by_vid(vid, &mut cache).unwrap());
            }
        })
    });
    g.finish();
}

/// Page summaries: a selective scan over clustered data skips pages without
/// loading them; the same scan over random data must decode everything.
fn bench_summary_pruning(c: &mut Criterion) {
    let rows = 1_000_000u64;
    let clustered: Vec<u64> = (0..rows).map(|i| i / 4096).collect();
    let random: Vec<u64> = (0..rows)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (rows / 4096))
        .collect();
    let mut g = c.benchmark_group("ablation/page_summary_pruning");
    g.throughput(Throughput::Elements(rows));
    for (name, values) in [("clustered", &clustered), ("random", &random)] {
        let pool = pool();
        let paged =
            PagedDataVector::build(&pool, &config(), &BitPackedVec::from_values(values)).unwrap();
        // Warm the pool so the measurement isolates pruning, not I/O.
        let mut warm = Vec::new();
        paged.iter().search(0, rows, &VidSet::range(0, u64::MAX), &mut warm).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                paged.iter().search(0, rows, &VidSet::Single(7), &mut out).unwrap();
                std::hint::black_box(&out);
            })
        });
    }
    g.finish();
}

/// Chunk cache: draining a long postinglist via `get_next_row_pos` (64
/// postings per decode) vs re-seeking every posting via `get_first_row_pos`.
fn bench_index_chunk_cache(c: &mut Criterion) {
    let pool = pool();
    let rows = 500_000u64;
    // Two distinct values: vid 0's postinglist has 250k entries.
    let values: Vec<u64> = (0..rows).map(|i| i % 2).collect();
    let idx = PagedInvertedIndex::build(&pool, &config(), &values, 2).unwrap();
    let mut g = c.benchmark_group("ablation/index_chunk_cache");
    g.throughput(Throughput::Elements(rows / 2));
    g.bench_function("sequential_get_next", |b| {
        b.iter(|| {
            let mut it = idx.iter();
            let mut n = 0u64;
            let mut cur = it.get_first_row_pos(0).unwrap();
            while let Some(p) = cur {
                n += p & 1;
                cur = it.get_next_row_pos().unwrap();
            }
            std::hint::black_box(n);
        })
    });
    g.finish();
}

/// SWAR vs decode: equality scans at 8 bits (word-aligned fast path) and
/// 12 bits (generic decode) over the same logical data.
fn bench_swar_vs_decode(c: &mut Criterion) {
    let symbols = 1 << 21;
    let mut g = c.benchmark_group("ablation/swar_vs_decode");
    g.throughput(Throughput::Elements(symbols as u64));
    for bits in [8u32, 12] {
        let w = BitWidth::new(bits).unwrap();
        let values: Vec<u64> = (0..symbols as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & w.mask())
            .collect();
        let vec = BitPackedVec::from_values_with_width(&values, w);
        let set = VidSet::Single(values[symbols / 3]);
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| {
                search_bitmap(&vec, 0, vec.len(), &set, &mut out);
                std::hint::black_box(&out);
            })
        });
    }
    g.finish();
}

/// Warm point reads: the steady-state CPU overhead of paged access (pins,
/// transient lookups, block walks) relative to the resident image.
fn bench_warm_point_reads(c: &mut Criterion) {
    let pool = pool();
    let values: Vec<Value> =
        (0..200_000i64).map(|i| Value::Varchar(format!("v-{:06}", i % 50_000))).collect();
    let paged = ColumnBuilder::new(DataType::Varchar)
        .policy(LoadPolicy::PageLoadable)
        .with_index(true)
        .build(&pool, &config(), &values)
        .unwrap()
        .column;
    let resident = ColumnBuilder::new(DataType::Varchar)
        .policy(LoadPolicy::FullyResident)
        .with_index(true)
        .build(&pool, &config(), &values)
        .unwrap()
        .column;
    // Warm both.
    for rpos in (0..200_000).step_by(37) {
        let _ = paged.get_values(&[rpos]).unwrap();
        let _ = resident.get_values(&[rpos]).unwrap();
    }
    let probe = ValuePredicate::Eq(Value::Varchar("v-012345".into()));
    let mut g = c.benchmark_group("ablation/warm_point_read");
    for (name, col) in [("resident", &resident), ("paged", &paged)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            let mut rpos = 1u64;
            b.iter(|| {
                rpos = (rpos * 48271) % 200_000;
                std::hint::black_box(col.get_values(&[rpos]).unwrap());
                std::hint::black_box(col.find_rows(&probe, 0, 200_000).unwrap());
            })
        });
    }
    g.finish();
}

/// Delta merge throughput: rows/s for rebuilding a whole main fragment
/// (sorted dictionary + data vector + inverted index + page chains).
fn bench_delta_merge(c: &mut Criterion) {
    use payg_table::{PartitionSpec, Schema, ColumnSpec as TCol};
    let mut g = c.benchmark_group("ablation/delta_merge");
    for rows in [10_000u64, 50_000] {
        g.throughput(Throughput::Elements(rows));
        g.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            b.iter(|| {
                let pool = pool();
                let schema = Schema::new(vec![
                    TCol::indexed("id", DataType::Integer),
                    TCol::new("name", DataType::Varchar),
                    TCol::new("amount", DataType::Decimal),
                ])
                .unwrap();
                let t = payg_table::Table::create(
                    pool,
                    config(),
                    schema,
                    vec![PartitionSpec::single(LoadPolicy::PageLoadable)],
                )
                .unwrap();
                for i in 0..rows as i64 {
                    t.insert(vec![
                        Value::Integer(i),
                        Value::Varchar(format!("n-{:05}", i % 9_000)),
                        Value::Decimal(i as i128),
                    ])
                    .unwrap();
                }
                t.delta_merge_all().unwrap();
                std::hint::black_box(&t);
            })
        });
    }
    g.finish();
}

/// §8 SCM placement: dictionary point lookups with the helper chains on a
/// fast (SCM-like, 1µs) tier vs everything on the slow (100µs) tier. The
/// paper proposes exactly this placement for the rebuildable sparse
/// structures.
fn bench_scm_helper_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/scm_helper_placement");
    g.sample_size(10);
    for fast_helpers in [false, true] {
        let store = Arc::new(TieredStore::new(
            MemStore::new(),
            Duration::from_micros(1),
            Duration::from_micros(100),
        ));
        let resman = ResourceManager::new();
        resman.set_paged_limits(Some(payg_resman::PoolLimits::new(0, usize::MAX)));
        let pool = BufferPool::new(store.clone() as Arc<dyn PageStore>, resman.clone());
        let keys: Vec<Vec<u8>> =
            (0..60_000u64).map(|i| format!("part-{i:08}").into_bytes()).collect();
        let (dict, _) = PagedDictionary::build(&pool, &config(), DataType::Varchar, &keys).unwrap();
        if fast_helpers {
            // Helper chains were created after overflow+dict chains; find
            // them by placing the two smallest non-dict chains... simplest:
            // place every chain on fast except the largest (the dictionary).
            let chains = store.chains();
            let largest = chains
                .iter()
                .copied()
                .max_by_key(|&c| store.chain_len(c).unwrap())
                .unwrap();
            for c in chains {
                if c != largest {
                    store.place_on_fast_tier(c);
                }
            }
        }
        let name = if fast_helpers { "helpers_on_scm" } else { "all_on_slow" };
        g.bench_with_input(BenchmarkId::from_parameter(name), &fast_helpers, |b, _| {
            let mut probe = 1u64;
            b.iter(|| {
                // Evict everything so each lookup pays the tier latency.
                let _ = resman.reactive_unload();
                let mut cache = HandleCache::new(pool.clone());
                probe = (probe * 48271) % 60_000;
                let found = dict.find(&keys[probe as usize], &mut cache).unwrap();
                let _ = std::hint::black_box(found);
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_dict_handle_cache, bench_summary_pruning, bench_index_chunk_cache,
              bench_swar_vs_decode, bench_warm_point_reads, bench_delta_merge,
              bench_scm_helper_placement
}
criterion_main!(benches);

//! Property-based tests: paged structures ≡ resident references on random
//! data, and both column modes ≡ direct evaluation.

use payg_core::column::ColumnRead;
use payg_core::datavec::PagedDataVector;
use payg_core::dict::{BlockDict, HandleCache, InMemoryDict, PagedDictionary, UnsortedDict};
use payg_core::invidx::{InMemoryInvertedIndex, PagedInvertedIndex};
use payg_core::{
    CodecKind, ColumnBuilder, CoreError, DataType, LoadPolicy, PageConfig, Sum, Value, ValuePredicate,
};
use payg_encoding::prefix::BLOCK_CAP;
use payg_encoding::{BitPackedVec, BitWidth, VidSet};
use payg_resman::{PoolLimits, ResourceManager};
use payg_storage::{BufferPool, MemStore, PageStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

fn pool() -> BufferPool {
    BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
}

/// A page-loadable column over `values` read through the one value path —
/// every `step`-th row alone (its identifier and its value), then every row
/// at once — against the packed vector of the values' identifiers, the
/// oracle of what the column's paged data vector holds. A page too small
/// for one chunk at the column's width is a clean build error.
fn assert_column_reads_equal_packed(config: &PageConfig, values: &[u64], step: usize) {
    let mut distinct = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let vids: Vec<u64> = values.iter().map(|v| distinct.binary_search(v).unwrap() as u64).collect();
    let packed = BitPackedVec::from_values(&vids);
    let typed: Vec<Value> = values.iter().map(|&v| Value::Integer(v as i64)).collect();
    let pool = pool();
    let built = ColumnBuilder::new(DataType::Integer)
        .policy(LoadPolicy::PageLoadable)
        .build(&pool, config, &typed);
    let col = match built {
        Ok(b) => b.column,
        Err(e) => {
            assert!(matches!(e, CoreError::Storage(payg_storage::StorageError::Corrupt(_))), "{e}");
            return;
        }
    };
    for i in (0..values.len()).step_by(step) {
        let rpos = i as u64;
        assert_eq!(col.vid_counts(&[rpos]).unwrap(), vec![(packed.get(rpos), 1)], "row {i}");
        assert_eq!(col.get_values(&[rpos]).unwrap(), &typed[i..=i], "row {i}");
    }
    let rows: Vec<u64> = (0..values.len() as u64).collect();
    assert_eq!(col.get_values(&rows).unwrap(), typed);
    pool.assert_no_live_pins("column reads quiesce");
}

/// The dictionary codec is selected by the data, so a property covers both
/// sides only if its cases' data does: each case records the codecs it
/// built, and the test that runs the cases ends on [`assert_both_codecs`].
/// (The case functions keep their names: the cases are seeded by them.)
fn note_codec(seen: &AtomicU8, kind: CodecKind) {
    seen.fetch_or(1 << kind as u8, Ordering::Relaxed);
}

fn assert_both_codecs(seen: &AtomicU8) {
    let both = 1 << CodecKind::Plain as u8 | 1 << CodecKind::Fsst as u8;
    assert_eq!(
        seen.load(Ordering::Relaxed) & both,
        both,
        "the cases must build an FSST and a plain dictionary chain"
    );
}

/// [`assert_both_codecs`] for properties over columns of every type: their
/// numeric columns must have built array dictionaries besides.
fn assert_every_dict_codec(seen: &AtomicU8) {
    assert_both_codecs(seen);
    assert_ne!(
        seen.load(Ordering::Relaxed) & 1 << CodecKind::Array as u8,
        0,
        "the cases must build an array dictionary chain"
    );
}

static DICT_CODECS: AtomicU8 = AtomicU8::new(0);

#[test]
fn paged_dict_equals_sorted_vec_under_both_codecs() {
    paged_dict_equals_sorted_vec();
    assert_both_codecs(&DICT_CODECS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paged dictionary answers exactly like a sorted vector, whichever
    /// codec its keys select: compressible `material-…` identifiers or
    /// random bytes.
    fn paged_dict_equals_sorted_vec(
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..120),
        probes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..20),
        compressible in any::<bool>(),
    ) {
        let mut keys = raw;
        if compressible {
            for k in &mut keys {
                let fnv = |h: u64, &b: &u8| h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
                let id = k.iter().fold(k.len() as u64, fnv);
                *k = format!("material-{:08}", id % 100_000_000).into_bytes();
            }
        }
        keys.sort();
        keys.dedup();
        let pool = pool();
        let (dict, _) = PagedDictionary::build(&pool, &PageConfig::tiny(), DataType::Varchar, &keys).unwrap();
        note_codec(&DICT_CODECS, dict.codec_kind());
        prop_assert!(dict.materialize_all_direct().unwrap().keys().eq(keys.iter().map(Vec::as_slice)));
        let mut cache = HandleCache::new(pool.clone());
        for p in probes.iter().chain(&keys) {
            let got = dict.find(p, &mut cache).unwrap();
            let expect = keys.binary_search(p).map(|i| i as u64).map_err(|i| i as u64);
            prop_assert_eq!(got, expect);
        }
    }

    /// The paged data vector is indistinguishable from the packed vector,
    /// scanned and read a row at a time through a column.
    #[test]
    fn paged_datavec_equals_packed(
        values in prop::collection::vec(0u64..200, 1..400),
        probe in 0u64..200,
    ) {
        let pool = pool();
        let packed = BitPackedVec::from_values(&values);
        let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
        assert_column_reads_equal_packed(&PageConfig::tiny(), &values, 1);
        let mut got = Vec::new();
        paged.iter().search(0, values.len() as u64, &VidSet::Single(probe), &mut got).unwrap();
        let expect: Vec<u64> = (0..values.len() as u64)
            .filter(|&i| values[i as usize] == probe)
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// A posting run `lo..=hi` ≡ the per-vid lists back to back ≡ a naive
    /// filter of the source, for the resident and the paged index, over vid
    /// vectors that are unique (directory elided), two-valued (long lists)
    /// and skewed — down to a single row and to none — at both page sizes;
    /// and `find_rows(BETWEEN)` through either index, clipped to a row
    /// window, ≡ the data-vector scan of a twin column built without an
    /// index.
    #[test]
    fn posting_run_equals_per_vid(
        n in 0usize..700,
        shape in 0u8..3,
        seed in any::<u64>(),
        default_pages in any::<bool>(),
    ) {
        let hash = |i: usize| (seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        let raw: Vec<u64> = match shape {
            // Unique: a shuffled permutation of 0..n.
            0 => {
                let mut perm: Vec<u64> = (0..n as u64).collect();
                for i in (1..n).rev() {
                    perm.swap(i, (hash(i) % (i as u64 + 1)) as usize);
                }
                perm
            }
            1 => (0..n).map(|i| hash(i) & 1).collect(),
            // Skewed: half the rows share one value, a quarter the next, …
            _ => (0..n).map(|i| u64::from(hash(i).trailing_zeros())).collect(),
        };
        // Re-map to a dense vid space (main-dictionary invariant).
        let mut distinct: Vec<u64> = raw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let values: Vec<u64> =
            raw.iter().map(|v| distinct.binary_search(v).unwrap() as u64).collect();
        let card = distinct.len() as u64;
        let config = if default_pages { PageConfig::default() } else { PageConfig::tiny() };
        let pool = pool();
        let paged = PagedInvertedIndex::build(&pool, &config, &values, card).unwrap();
        let resident = InMemoryInvertedIndex::build(&values, card);
        if n == 0 {
            // The empty fragment: no pages, and no vid to ask for.
            prop_assert_eq!(paged.pages(), 0);
            prop_assert!(paged.posting_run(0, 0, &mut Vec::new()).is_err());
            prop_assert!(resident.posting_run(0, 0, &mut Vec::new()).is_err());
            return Ok(());
        }
        prop_assert_eq!(resident.is_unique(), card == n as u64);
        prop_assert!(shape != 0 || (resident.is_unique() && paged.is_unique()));

        let lo = seed % card;
        let hi = lo + (seed >> 17) % (card - lo);
        let from = (seed >> 5) % (n as u64 + 1);
        let to = from + (seed >> 23) % (n as u64 - from + 1);
        let naive = |vid: u64| -> Vec<u64> {
            (0..n as u64).filter(|&r| values[r as usize] == vid).collect()
        };
        let (mut got, mut per_vid) = (Vec::new(), Vec::new());
        for vid in lo..=hi {
            resident.posting_run(vid, vid, &mut got).unwrap();
            prop_assert_eq!(&got, &naive(vid), "resident, vid {}", vid);
            paged.posting_run(vid, vid, &mut got).unwrap();
            prop_assert_eq!(&got, &naive(vid), "paged, vid {}", vid);
            per_vid.extend_from_slice(&got);
        }
        resident.posting_run(lo, hi, &mut got).unwrap();
        prop_assert_eq!(&got, &per_vid, "resident run {}..={}", lo, hi);
        paged.posting_run(lo, hi, &mut got).unwrap();
        prop_assert_eq!(&got, &per_vid, "paged run {}..={}", lo, hi);
        prop_assert!(resident.posting_run(lo, card, &mut got).is_err());
        prop_assert!(paged.posting_run(lo, card, &mut got).is_err());

        // The run clipped to the row window, through the columns.
        let mut clipped: Vec<u64> =
            per_vid.iter().copied().filter(|&r| r >= from && r < to).collect();
        clipped.sort_unstable();
        let column_values: Vec<Value> = values.iter().map(|&v| Value::Integer(v as i64)).collect();
        let pred = ValuePredicate::Between(Value::Integer(lo as i64), Value::Integer(hi as i64));
        for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
            let build = |index: bool| {
                ColumnBuilder::new(DataType::Integer)
                    .policy(policy)
                    .with_index(index)
                    .build(&pool, &config, &column_values)
                    .unwrap()
                    .column
            };
            let (indexed, scanned) = (build(true), build(false));
            prop_assert!(indexed.has_index() && !scanned.has_index());
            let by_scan = scanned.find_rows(&pred, from, to).unwrap();
            prop_assert_eq!(&by_scan, &clipped, "{:?} scan", policy);
            prop_assert_eq!(&indexed.find_rows(&pred, from, to).unwrap(), &by_scan, "{:?}", policy);
        }
    }

    /// Full column equivalence on random integer data: both load policies
    /// agree with direct evaluation for point reads and predicates.
    #[test]
    fn column_modes_agree(
        ints in prop::collection::vec(-50i64..50, 1..200),
        probe in -50i64..50,
        lo in -50i64..50,
        span in 0i64..40,
        use_index in any::<bool>(),
    ) {
        let values: Vec<Value> = ints.iter().map(|&i| Value::Integer(i)).collect();
        let pool = pool();
        let resident = ColumnBuilder::new(DataType::Integer)
            .policy(LoadPolicy::FullyResident)
            .with_index(use_index)
            .build(&pool, &PageConfig::tiny(), &values)
            .unwrap()
            .column;
        let paged = ColumnBuilder::new(DataType::Integer)
            .policy(LoadPolicy::PageLoadable)
            .with_index(use_index)
            .build(&pool, &PageConfig::tiny(), &values)
            .unwrap()
            .column;
        for i in 0..values.len() {
            let rpos = i as u64;
            prop_assert_eq!(resident.get_values(&[rpos]).unwrap(), &values[i..=i]);
            prop_assert_eq!(paged.get_values(&[rpos]).unwrap(), &values[i..=i]);
        }
        for pred in [
            ValuePredicate::Eq(Value::Integer(probe)),
            ValuePredicate::Between(Value::Integer(lo), Value::Integer(lo + span)),
        ] {
            let expect: Vec<u64> = (0..values.len() as u64)
                .filter(|&i| pred.matches(&values[i as usize]))
                .collect();
            prop_assert_eq!(resident.find_rows(&pred, 0, values.len() as u64).unwrap(), expect.clone());
            prop_assert_eq!(paged.find_rows(&pred, 0, values.len() as u64).unwrap(), expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paged dictionary stays correct across arbitrary page geometries:
    /// dictionary/overflow/helper page sizes all vary independently.
    #[test]
    fn paged_dict_correct_across_page_geometries(
        dict_page in 512usize..2048,
        overflow_page in 64usize..512,
        helper_page in 512usize..1024,
        inline_limit in 8usize..64,
        n_keys in 50usize..400,
    ) {
        let config = PageConfig {
            datavec_page: 256,
            dict_page,
            overflow_page,
            helper_page,
            index_page: 256,
            inline_limit,
        };
        prop_assume!(config.validate().is_ok());
        let keys: Vec<Vec<u8>> = (0..n_keys)
            .map(|i| {
                let mut k = format!("geom-{i:06}-").into_bytes();
                // Mix short keys and ones that must spill.
                if i % 9 == 0 {
                    k.extend(std::iter::repeat_n(b'x', 100 + i));
                }
                k
            })
            .collect();
        let pool = pool();
        // Some geometries are legitimately impossible (a 16-entry block of
        // heavily-spilled values cannot fit a small page with tiny overflow
        // pages); the builder rejects those with a clean, documented error.
        let (dict, _) = match PagedDictionary::build(&pool, &config, DataType::Varchar, &keys) {
            Ok(d) => d,
            Err(e) => {
                prop_assert!(matches!(
                    e,
                    payg_core::CoreError::Storage(payg_storage::StorageError::Corrupt(_))
                ));
                return Ok(());
            }
        };
        prop_assert!(dict.materialize_all_direct().unwrap().keys().eq(keys.iter().map(Vec::as_slice)));
        let mut cache = HandleCache::new(pool.clone());
        for (vid, k) in keys.iter().enumerate().step_by(7) {
            prop_assert_eq!(dict.find(k, &mut cache).unwrap(), Ok(vid as u64));
        }
        prop_assert_eq!(dict.find(b"zzzz", &mut cache).unwrap(), Err(n_keys as u64));
        prop_assert_eq!(dict.find(b"a", &mut cache).unwrap(), Err(0));
    }

    /// The paged data vector round-trips across page sizes — read a row at
    /// a time through a column — and summaries never change search results.
    #[test]
    fn paged_datavec_correct_across_page_sizes(
        datavec_page in 8usize..4096,
        values in prop::collection::vec(0u64..5000, 1..500),
        probe in 0u64..5000,
    ) {
        let config = PageConfig { datavec_page, ..PageConfig::tiny() };
        let packed = BitPackedVec::from_values(&values);
        let pool = pool();
        assert_column_reads_equal_packed(&config, &values, 11);
        let built = PagedDataVector::build(&pool, &config, &packed);
        // Pages too small for one chunk are a clean config error.
        let Ok(paged) = built else { return Ok(()); };
        let mut got = Vec::new();
        paged.iter().search(0, values.len() as u64, &VidSet::Single(probe), &mut got).unwrap();
        let expect: Vec<u64> = (0..values.len() as u64)
            .filter(|&i| values[i as usize] == probe)
            .collect();
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The segmented count `payg-perf` times is the sequential count and
    /// the naive one, across random bit widths, ranges, vid sets and
    /// partition counts.
    #[test]
    fn par_count_equals_sequential_datavec(
        bits in 1u32..16,
        n in 1usize..1500,
        seed in any::<u64>(),
        workers in 1usize..8,
        set_kind in 0u8..3,
    ) {
        let mask = (1u64 << bits) - 1;
        let values: Vec<u64> = (0..n as u64)
            .map(|i| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 0x1000_0001) & mask)
            .collect();
        let packed = BitPackedVec::from_values_with_width(
            &values,
            payg_encoding::BitWidth::new(bits).unwrap(),
        );
        let paged = PagedDataVector::build(&pool(), &PageConfig::tiny(), &packed).unwrap();
        let probe = values[seed as usize % n];
        let set = match set_kind {
            0 => VidSet::Single(probe),
            1 => VidSet::range(probe / 2, probe.max(1)),
            _ => VidSet::from_vids(vec![probe, probe ^ 1, mask / 2]),
        };
        let from = seed % (n as u64 + 1);
        let to = from + (seed >> 7) % (n as u64 - from + 1);
        let naive = (from..to).filter(|&i| set.contains(values[i as usize])).count() as u64;
        prop_assert_eq!(paged.iter().count(from, to, &set).unwrap(), naive);
        let par = paged.par_count(from, to, &set, payg_core::ScanOptions { workers }).unwrap();
        prop_assert_eq!(par, naive);
    }

    /// One row-range contract for both column kinds, with and without an
    /// index: `find_rows` / `count_rows` (and `payg-perf`'s `count_rows_par`)
    /// over `from..to` equal the naive filter when `from ≤ to ≤ len`, and
    /// are `RowOutOfBounds` when `to` runs past the end or `from > to` — on
    /// the index postings, the directory count, the scan and the arithmetic
    /// of a column whose rows are their identifiers alike.
    #[test]
    fn row_search_is_one_contract_across_kinds_and_bounds(
        mut ints in prop::collection::vec(-60i64..60, 1..400),
        probe in -60i64..60,
        lo in -60i64..60,
        span in 0i64..50,
        bounds in 0u8..4,
        at in any::<u64>(),
        k in 1u64..5,
        workers in 2usize..5,
        unique_ascending in any::<bool>(),
    ) {
        if unique_ascending {
            // Every row its own identifier: no data vector, no postings.
            ints.sort_unstable();
            ints.dedup();
        }
        let values: Vec<Value> = ints.iter().map(|&i| Value::Integer(i)).collect();
        let len = values.len() as u64;
        let (from, to) = match bounds {
            0 => (0, len),
            1 => {
                let from = at % (len + 1);
                (from, from + (at >> 20) % (len - from + 1))
            }
            2 => (at % (len + 1), len + k),
            _ => {
                let to = at % (len + 1);
                (to + k, to)
            }
        };
        let in_bounds = from <= to && to <= len;
        let pool = pool();
        let opts = payg_core::ScanOptions::with_workers(workers);
        for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
            for with_index in [false, true] {
                let col = ColumnBuilder::new(DataType::Integer)
                    .policy(policy)
                    .with_index(with_index)
                    .build(&pool, &PageConfig::tiny(), &values)
                    .unwrap()
                    .column;
                for pred in [
                    ValuePredicate::Eq(Value::Integer(probe)),
                    ValuePredicate::Between(Value::Integer(lo), Value::Integer(lo + span)),
                    ValuePredicate::In(vec![Value::Integer(probe), Value::Integer(lo)]),
                ] {
                    let what =
                        format!("{policy:?} index={with_index} {from}..{to} of {len} {pred:?}");
                    let rows = col.find_rows(&pred, from, to);
                    let count = col.count_rows(&pred, from, to);
                    let par = col.count_rows_par(&pred, from, to, opts);
                    if in_bounds {
                        let naive: Vec<u64> =
                            (from..to).filter(|&i| pred.matches(&values[i as usize])).collect();
                        prop_assert_eq!(count.unwrap(), naive.len() as u64, "{}", what);
                        prop_assert_eq!(par.unwrap(), naive.len() as u64, "{}", what);
                        prop_assert_eq!(rows.unwrap(), naive, "{}", what);
                    } else {
                        let oob = |r: &Result<_, CoreError>| {
                            matches!(r, Err(CoreError::RowOutOfBounds { .. }))
                        };
                        prop_assert!(oob(&rows.map(|_| ())), "find_rows {}", what);
                        prop_assert!(oob(&count.map(|_| ())), "count_rows {}", what);
                        prop_assert!(oob(&par.map(|_| ())), "count_rows_par {}", what);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint round-trip: a column reopened from its serialized
    /// metadata is observationally identical, for both policies, with and
    /// without an index.
    #[test]
    fn column_checkpoint_roundtrip(
        mut ints in prop::collection::vec(-40i64..40, 1..200),
        paged_policy in any::<bool>(),
        with_index in any::<bool>(),
        unique_ascending in any::<bool>(),
    ) {
        use payg_core::column::Column;
        if unique_ascending {
            ints.sort_unstable();
            ints.dedup();
        }
        let values: Vec<Value> = ints.iter().map(|&i| Value::Integer(i)).collect();
        let pool = pool();
        let policy = if paged_policy { LoadPolicy::PageLoadable } else { LoadPolicy::FullyResident };
        let col = ColumnBuilder::new(DataType::Integer)
            .policy(policy)
            .with_index(with_index)
            .build(&pool, &PageConfig::tiny(), &values)
            .unwrap()
            .column;
        let pred = ValuePredicate::Eq(Value::Integer(ints[0]));
        let bytes = col.meta_bytes();
        let reopened = Column::open(&pool, &bytes).unwrap();
        prop_assert_eq!(reopened.policy(), col.policy());
        prop_assert_eq!(reopened.len(), col.len());
        prop_assert_eq!(reopened.cardinality(), col.cardinality());
        prop_assert_eq!(reopened.has_index(), col.has_index());
        // Strictly ascending rows are their own identifiers: neither a data
        // vector nor postings is stored, before or after the reopen.
        let identity = ints.windows(2).all(|w| w[0] < w[1]);
        for c in [&col, &reopened] {
            let stores_rows = c.chains().iter().any(|(role, _)| matches!(*role, "data" | "index"));
            prop_assert_eq!(stores_rows, !identity);
        }
        for i in 0..values.len() {
            prop_assert_eq!(reopened.get_values(&[i as u64]).unwrap(), &values[i..=i]);
        }
        prop_assert_eq!(
            reopened.find_rows(&pred, 0, values.len() as u64).unwrap(),
            col.find_rows(&pred, 0, values.len() as u64).unwrap()
        );
        // Corrupting any byte must error or keep answers valid — never panic.
        let mut broken = bytes.clone();
        if !broken.is_empty() {
            broken[0] ^= 0xFF;
            let _ = Column::open(&pool, &broken);
        }
        // Index tags (and, for rows that are their identifiers, the asked-for
        // flag) are 0 and 1; any other is refused.
        if !with_index {
            prop_assert_eq!(bytes.last(), Some(&0));
            for tag in [2, 3, 4] {
                let mut tagged = bytes.clone();
                *tagged.last_mut().unwrap() = tag;
                prop_assert!(Column::open(&pool, &tagged).is_err(), "index tag {}", tag);
            }
        }
    }
}

/// The value a seed stands for in a column of `ty`: the type's extremes and
/// special values (selectors 0–3), a narrow range where neighbours collide
/// and sit one apart (4–7), or anything at all.
fn numeric_value(ty: DataType, selector: u8, raw: u64) -> Value {
    let near = (raw % 600) as i64 - 300;
    match ty {
        DataType::Integer => Value::Integer(match selector % 12 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            3 => -1,
            4..=7 => near,
            _ => raw as i64,
        }),
        DataType::Decimal => Value::Decimal(match selector % 12 {
            0 => i128::MIN,
            1 => i128::MAX,
            2 => 0,
            3 => -1,
            4..=7 => i128::from(near),
            _ => i128::from(raw as i64) * 1_000_000_007,
        }),
        _ => Value::Double(match selector % 12 {
            0 => f64::NEG_INFINITY,
            1 => f64::INFINITY,
            2 => 0.0,
            3 => -0.0,
            4..=7 => near as f64 / 4.0,
            _ => f64::from_bits(raw),
        }),
    }
}

/// The fixed-width key `delta` away from `key` in `memcmp` order (wrapping).
fn key_offset(key: &[u8], delta: i128) -> Vec<u8> {
    let mut wide = [0u8; 16];
    wide[16 - key.len()..].copy_from_slice(key);
    let moved = u128::from_be_bytes(wide).wrapping_add(delta as u128);
    moved.to_be_bytes()[16 - key.len()..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A numeric (array) dictionary answers exactly like the sorted vector
    /// of its keys — for each numeric type with its extremes and special
    /// values, on pages from one key wide to a few dozen (so the chain is
    /// empty, one page, two, or many with a short last page, and page sizes
    /// are not multiples of the key width): `find` hits, misses and
    /// insertion points (every key's two neighbours, so both sides of every
    /// page edge), the full load, and — through a column built over the
    /// values — every key by identifier, the out-of-range identifier and
    /// range translation (`vid_set_for(Between)`: empty, within a page,
    /// spanning pages, all), and the same again after a checkpoint round
    /// trip.
    #[test]
    fn array_dict_equals_sorted_vec(
        ty in prop::sample::select(vec![DataType::Integer, DataType::Decimal, DataType::Double]),
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 0..160),
        dict_page in 16usize..200,
        probes in prop::collection::vec((any::<u8>(), any::<u64>()), 1..24),
    ) {
        let values: Vec<Value> = seeds.iter().map(|&(sel, raw)| numeric_value(ty, sel, raw)).collect();
        let mut keys: Vec<Vec<u8>> = values.iter().map(Value::to_key).collect();
        keys.sort();
        keys.dedup();
        let n = keys.len() as u64;
        let pool = pool();
        let config = PageConfig { dict_page, ..PageConfig::tiny() };
        let (dict, stats) = PagedDictionary::build(&pool, &config, ty, &keys).unwrap();
        let width = ty.key_width().unwrap();
        prop_assert_eq!(stats.dict_pages, n.div_ceil((dict_page / width) as u64));
        prop_assert_eq!(
            (stats.overflow_pages, stats.vid_helper_pages, stats.value_helper_pages),
            (0, 0, 0)
        );
        prop_assert_eq!(dict.codec_kind(), CodecKind::Array);
        prop_assert_eq!(dict.chains().len(), 1);
        prop_assert!(dict.materialize_all_direct().unwrap().keys().eq(keys.iter().map(Vec::as_slice)));

        let reopened = PagedDictionary::open(&pool, ty, &dict.meta_bytes()).unwrap();
        let mut probe_keys: Vec<Vec<u8>> =
            probes.iter().map(|&(sel, raw)| numeric_value(ty, sel, raw).to_key()).collect();
        for k in &keys {
            probe_keys.extend([k.clone(), key_offset(k, -1), key_offset(k, 1)]);
        }
        for dict in [&dict, &reopened] {
            let mut cache = HandleCache::new(pool.clone());
            prop_assert_eq!(dict.cardinality(), n);
            prop_assert!(dict.materialize_all_direct().unwrap().keys().eq(keys.iter().map(Vec::as_slice)));
            for p in &probe_keys {
                let expect = keys.binary_search(p).map(|i| i as u64).map_err(|i| i as u64);
                prop_assert_eq!(dict.find(p, &mut cache).unwrap(), expect, "find {:?}", p);
            }
        }

        // Ranges between every pair of a spread of probes: empty ones
        // (reversed bounds, both bounds in one gap), one-page ones and ones
        // that span pages, up to the whole domain.
        let mut bounds: Vec<&Vec<u8>> = probe_keys.iter().step_by(probe_keys.len() / 12 + 1).collect();
        let (bottom, top) = (vec![0; width], vec![0xFF; width]);
        bounds.extend([&bottom, &top]);
        let bound_values: Vec<Value> = bounds
            .iter()
            .map(|k| Value::from_key(ty, k).unwrap())
            .collect();
        for (k, v) in bounds.iter().zip(&bound_values) {
            prop_assert_eq!(&v.to_key(), *k, "every fixed-width key is a value's key");
        }
        let col = ColumnBuilder::new(ty)
            .policy(LoadPolicy::PageLoadable)
            .build(&pool, &config, &values)
            .unwrap()
            .column;
        let reopened = payg_core::column::Column::open(&pool, &col.meta_bytes()).unwrap();
        for col in [&col, &reopened] {
            for (vid, k) in keys.iter().enumerate() {
                prop_assert_eq!(&col.key_by_vid(vid as u64).unwrap(), k);
            }
            for vid in [n, n + 1, u64::MAX] {
                prop_assert!(matches!(
                    col.key_by_vid(vid),
                    Err(payg_core::CoreError::VidOutOfBounds { .. })
                ));
            }
            for (lo, lo_v) in bounds.iter().zip(&bound_values) {
                for (hi, hi_v) in bounds.iter().zip(&bound_values) {
                    let first = keys.partition_point(|k| k < *lo) as u64;
                    let end = keys.partition_point(|k| k <= *hi) as u64;
                    let pred = ValuePredicate::Between(lo_v.clone(), hi_v.clone());
                    let got: Vec<u64> = col.vid_set_for(&pred).unwrap().iter().collect();
                    prop_assert_eq!(got, (first..end).collect::<Vec<u64>>());
                }
            }
        }
        pool.assert_no_live_pins("array dictionary quiesce");
    }
}

/// Keys a byte arena has to get right: empty, `0x00` / `0xFF` runs, and keys
/// that are prefixes of each other.
fn edgy_key() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(prop::sample::select(vec![0x00u8, 0x01, b'a', 0xFE, 0xFF]), 0..6), 0u8..4)
        .prop_map(|(mut key, cut)| {
            key.truncate(key.len().saturating_sub(cut as usize));
            key
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The arena dictionary answers exactly like the sorted `Vec<Vec<u8>>`
    /// it replaced — hits, insertion points, every key back by identifier,
    /// the empty dictionary — and accounts for exactly its two buffers.
    #[test]
    fn arena_dict_equals_sorted_vec(
        raw in prop::collection::vec(edgy_key(), 0..60),
        probes in prop::collection::vec(edgy_key(), 1..30),
    ) {
        let mut keys = raw;
        keys.sort();
        keys.dedup();
        let dict = InMemoryDict::from_sorted_keys(&keys).unwrap();
        prop_assert_eq!(dict.cardinality(), keys.len() as u64);
        prop_assert_eq!(dict.is_empty(), keys.is_empty());
        prop_assert!(dict.keys().eq(keys.iter().map(Vec::as_slice)));
        for (vid, k) in keys.iter().enumerate() {
            prop_assert_eq!(dict.key(vid as u64), k.as_slice());
        }
        for p in probes.iter().chain(&keys).chain([&Vec::new()]) {
            let expect = keys.binary_search(p).map(|i| i as u64).map_err(|i| i as u64);
            prop_assert_eq!(dict.find(p), expect);
        }
        // Built to size: the key bytes and four bytes a key, nothing else.
        let key_bytes: usize = keys.iter().map(Vec::len).sum();
        prop_assert_eq!(dict.heap_bytes(), key_bytes + 4 * keys.len());
        // Grown key by key, then trimmed: the same dictionary.
        let mut grown = InMemoryDict::default();
        for k in &keys {
            grown.push(k).unwrap();
        }
        prop_assert!(grown.heap_bytes() >= dict.heap_bytes());
        grown.shrink_to_fit();
        prop_assert_eq!(grown.heap_bytes(), dict.heap_bytes());
        prop_assert_eq!(grown, dict);
    }

    /// A default column's dictionary image — the chain's value blocks in
    /// memory — answers exactly like the sorted `Vec<Vec<u8>>` the arena
    /// stands in for: hits and insertion points like binary search, every
    /// key back by identifier in one ascending walk, one at a time and
    /// descending, the empty dictionary. Some keys run past 127 bytes, so
    /// some lengths take two-byte varints. It holds exactly its encoding,
    /// counted here from the keys: per block a count byte and a `u32` start;
    /// per key a varint of the prefix it shares with its predecessor (none
    /// at a block's start), a varint of twice its suffix length, and the
    /// suffix; beside them the bytes every key begins with and one `u64`
    /// fence every 64 blocks.
    #[test]
    fn resident_block_dict_equals_sorted_vec(
        raw in prop::collection::vec((edgy_key(), 0u8..4), 0..400),
        probes in prop::collection::vec(edgy_key(), 1..60),
    ) {
        let mut keys: Vec<Vec<u8>> = raw
            .into_iter()
            .map(|(k, long)| if long == 3 { [k.as_slice(), &[b'a'; 150]].concat() } else { k })
            .collect();
        keys.sort();
        keys.dedup();
        let dict = BlockDict::from_sorted_keys(&keys).unwrap();
        prop_assert_eq!(dict.cardinality(), keys.len() as u64);
        let (mut buf, mut one) = (Vec::new(), Vec::new());
        let mut in_order = dict.keys(&mut buf);
        for (vid, k) in keys.iter().enumerate() {
            prop_assert_eq!(in_order.key(vid as u64).unwrap(), k.as_slice());
            prop_assert_eq!(dict.keys(&mut one).key(vid as u64).unwrap(), k.as_slice());
        }
        for (vid, k) in keys.iter().enumerate().rev() {
            prop_assert_eq!(in_order.key(vid as u64).unwrap(), k.as_slice());
        }
        for p in probes.iter().chain(&keys).chain([&Vec::new()]) {
            let expect = keys.binary_search(p).map(|i| i as u64).map_err(|i| i as u64);
            prop_assert_eq!(dict.find(p).unwrap(), expect);
        }
        prop_assert_eq!(dict.to_in_memory().unwrap(), InMemoryDict::from_sorted_keys(&keys).unwrap());
        let varint = |v: usize| if v < 1 << 7 { 1 } else if v < 1 << 14 { 2 } else { 3 };
        let mut expect_bytes = 0;
        for (i, k) in keys.iter().enumerate() {
            let shared = if i % BLOCK_CAP == 0 {
                expect_bytes += 1 + 4;
                0
            } else {
                keys[i - 1].iter().zip(k).take_while(|(a, b)| a == b).count()
            };
            let suffix = k.len() - shared;
            expect_bytes += varint(shared) + varint(2 * suffix) + suffix;
        }
        if let (Some(first), Some(last)) = (keys.first(), keys.last()) {
            let prefix = first.iter().zip(last).take_while(|(a, b)| a == b).count();
            expect_bytes += prefix + 8 * keys.len().div_ceil(BLOCK_CAP).div_ceil(64);
        }
        prop_assert_eq!(dict.heap_bytes(), expect_bytes);
    }

    /// The unsorted dictionary assigns identifiers exactly like the
    /// `HashMap<Vec<u8>, u64>` plus key list it replaced — arrival order,
    /// one identifier per distinct key, every key back by identifier — and
    /// holds each distinct key once: its arena, four bytes a key and the
    /// table of at most 3/4-full `u64` slots.
    #[test]
    fn unsorted_dict_equals_hash_map(
        cells in prop::collection::vec(
            (prop::collection::vec(prop::sample::select(vec!["", "a", "\0", "ÿ", "ab"]), 0..4),
             -3i64..3, 0u8..3),
            0..200,
        ),
    ) {
        let values = cells.into_iter().map(|(parts, i, kind)| match kind {
            0 => Value::Varchar(parts.concat()),
            1 => Value::Integer(i),
            _ => Value::Decimal(i128::from(i)),
        });
        let mut dict = UnsortedDict::default();
        let mut lookup: std::collections::HashMap<Vec<u8>, u32> = Default::default();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for v in values {
            let expect = *lookup.entry(v.to_key()).or_insert_with_key(|key| {
                keys.push(key.clone());
                keys.len() as u32 - 1
            });
            prop_assert_eq!(dict.intern(&v).unwrap(), expect);
        }
        prop_assert_eq!(dict.cardinality(), keys.len() as u64);
        prop_assert!(dict.keys().eq(keys.iter().map(Vec::as_slice)));
        for (vid, k) in keys.iter().enumerate() {
            prop_assert_eq!(dict.key(vid as u32), k.as_slice());
        }
        let key_bytes: usize = keys.iter().map(Vec::len).sum();
        let table = if keys.is_empty() { 0 } else { 8 * (4 * keys.len()).div_ceil(3) };
        prop_assert!(dict.heap_bytes() >= key_bytes + 4 * keys.len() + table);
        prop_assert!(dict.heap_bytes() <= 2 * (key_bytes + 4 * keys.len()) + 2 * table + 256);
    }
}

static LOWER_BOUND_CODECS: [AtomicU8; 2] = [AtomicU8::new(0), AtomicU8::new(0)];

#[test]
fn block_lower_bound_equals_binary_search_under_both_codecs() {
    block_lower_bound_equals_binary_search();
    // Inline-only chains, then chains with spilled entries.
    LOWER_BOUND_CODECS.iter().for_each(assert_both_codecs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `findByValue` through the one block search ≡ binary search of the
    /// sorted keys, on chains of either codec, with every entry inline and
    /// with entries spilled off-page — on FSST chains some share their
    /// whole on-page part, so that only the fetched tail orders them
    /// against the probe.
    fn block_lower_bound_equals_binary_search(
        ids in prop::collection::vec((0u32..120, 0u8..6), 1..200),
        compressible in any::<bool>(),
        spill in any::<bool>(),
    ) {
        let key_of = |id: u32, tail: u8| {
            // Incompressible keys share nothing (a repeated stem would make
            // the builder choose FSST): the noise is seeded per key.
            let mut x = (u64::from(id * 8 + u32::from(tail)) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut noise = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_be_bytes()
            };
            let mut k = if compressible {
                format!("material-{id:08}").into_bytes()
            } else {
                noise().to_vec()
            };
            if spill && tail < 3 {
                // A stem longer than the inline limit in either form; the
                // compressible one is the same for every `tail` of an `id`.
                // Either is over 192 bytes: a symbol covers at most 8, so no
                // table the builder trains — not even one that memorizes a
                // lone key's noise — codes it under the 24-byte limit.
                for i in 0..if compressible { 40 } else { 24 } {
                    k.extend(if compressible { *b"/segment" } else { noise() });
                    k.push(b'a' + (id as u8 + i) % 23);
                }
                k.push(tail);
            }
            k
        };
        let mut keys: Vec<Vec<u8>> = ids.iter().map(|&(id, tail)| key_of(id, tail)).collect();
        keys.sort();
        keys.dedup();
        let pool = pool();
        // Sixteen spilled entries, one overflow pointer each, fit one block.
        let config = PageConfig { dict_page: 1024, overflow_page: 512, ..PageConfig::tiny() };
        let (dict, stats) = PagedDictionary::build(&pool, &config, DataType::Varchar, &keys).unwrap();
        note_codec(&LOWER_BOUND_CODECS[usize::from(stats.overflow_pages > 0)], dict.codec_kind());
        if spill && ids.iter().any(|&(_, tail)| tail < 3) {
            prop_assert!(stats.overflow_pages > 0, "long keys must spill off-page");
        } else {
            prop_assert_eq!(stats.overflow_pages, 0);
        }
        let mut probes = Vec::new();
        for k in &keys {
            probes.extend([
                k.clone(),
                k[..k.len() - 1].to_vec(),
                [k.as_slice(), &[0]].concat(),
                [&k[..k.len() - 1], &[k[k.len() - 1].wrapping_add(1)]].concat(),
            ]);
        }
        probes.extend([Vec::new(), vec![0xFF; 70]]);
        let mut cache = HandleCache::new(pool.clone());
        for p in &probes {
            let expect = keys.binary_search(p).map(|i| i as u64).map_err(|i| i as u64);
            prop_assert_eq!(dict.find(p, &mut cache).unwrap(), expect, "probe {:?}", p);
        }
    }
}

static PROJECTION_CODECS: AtomicU8 = AtomicU8::new(0);

#[test]
fn phased_projection_under_both_codecs() {
    phased_projection_equals_per_column_and_resident();
    assert_every_dict_codec(&PROJECTION_CODECS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Phased late materialization over several columns at once ≡ each
    /// paged column's own `get_values` ≡ the resident column ≡ the source
    /// values, for arbitrary row lists (unsorted, duplicates), a single row
    /// (each identifier is its own distinct list) and one row several times
    /// over, over columns that cover the special shapes — a width-0 data
    /// vector, array dictionaries of both key widths, values large enough
    /// to spill into overflow pages, FSST-compressed and plain dictionaries
    /// — with the paged pool limited to less than one wave, so the pages of
    /// a phase are evicted between (and during) waves.
    fn phased_projection_equals_per_column_and_resident(
        n_rows in 1usize..260,
        card in 1u64..200,
        salt in any::<u64>(),
        picks in prop::collection::vec(any::<u32>(), 0..150),
    ) {
        let sources = special_shape_columns(n_rows, card, salt);
        // Roomy enough for a 16-entry block of spilled entries; the wave is
        // WAVE_PAGES pages, the pool limit a handful.
        let config = PageConfig { dict_page: 2048, overflow_page: 256, ..PageConfig::tiny() };
        let resman = ResourceManager::with_paged_limits(PoolLimits::new(1024, 4096));
        prop_assert!(4096 < payg_core::column::WAVE_PAGES * config.datavec_page);
        let pool = BufferPool::new(Arc::new(MemStore::new()), resman);
        let build = |policy: LoadPolicy| -> Vec<payg_core::Column> {
            sources
                .iter()
                .map(|(ty, values)| {
                    ColumnBuilder::new(*ty).policy(policy).build(&pool, &config, values).unwrap().column
                })
                .collect()
        };
        let paged = build(LoadPolicy::PageLoadable);
        let resident = build(LoadPolicy::FullyResident);
        for col in &paged {
            note_codec(&PROJECTION_CODECS, col.dict_codec());
        }
        let rows: Vec<u64> = picks.iter().map(|&p| u64::from(p) % n_rows as u64).collect();
        let thrice = [rows.last().copied().unwrap_or(0); 3];

        let width = sources.len();
        let mixed: Vec<payg_core::Column> = paged.into_iter().chain(resident).collect();
        // Resident and paged columns interleaved in the projection.
        let which: Vec<usize> = (0..width).flat_map(|c| [c, width + c]).collect();
        for rows in [&rows[..], &rows[..rows.len().min(1)], &thrice[..]] {
            let mut phased = vec![Vec::new(); rows.len()];
            payg_core::column::materialize(&mixed, &which, rows, &mut phased).unwrap();
            for (i, &r) in rows.iter().enumerate() {
                let expect: Vec<Value> =
                    sources.iter().flat_map(|(_, v)| [v[r as usize].clone(), v[r as usize].clone()]).collect();
                prop_assert_eq!(&phased[i], &expect, "phased row {} (position {})", i, r);
            }
            for (c, (_, values)) in sources.iter().enumerate() {
                let expect: Vec<Value> = rows.iter().map(|&r| values[r as usize].clone()).collect();
                prop_assert_eq!(&mixed[c].get_values(rows).unwrap(), &expect, "get_values, column {}", c);
                prop_assert_eq!(&mixed[width + c].get_values(rows).unwrap(), &expect);
            }
        }
        // Out-of-range rows are an error, not a panic, wherever they sit.
        let mut bad = rows.clone();
        bad.insert(bad.len() / 2, n_rows as u64);
        let mut out = vec![Vec::new(); bad.len()];
        let paged_only: Vec<usize> = (0..width).collect();
        prop_assert!(payg_core::column::materialize(&mixed, &paged_only, &bad, &mut out).is_err());
        pool.assert_no_live_pins("phased projection quiesce");
    }
}

/// Source columns covering the special shapes of late materialization: a
/// width-0 data vector, a numeric column of each type (array dictionaries
/// of 8- and 16-byte keys, negative values included), strings large enough
/// to spill into overflow pages, a high-cardinality string column (whose
/// keys FSST compresses), one of long random strings (which, past some
/// 150 rows, it declines: the dictionary chain stays plain front-coded) and
/// a unique key ascending with the rows (stored as its dictionary alone:
/// every row is its own identifier).
fn special_shape_columns(n_rows: usize, card: u64, salt: u64) -> Vec<(DataType, Vec<Value>)> {
    let mix = |i: usize, k: u64| {
        (salt ^ k).wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
    };
    vec![
        // One distinct value: width 0, no data-vector pages at all.
        (DataType::Integer, vec![Value::Integer(salt as i64 >> 8); n_rows]),
        (DataType::Integer, (0..n_rows).map(|i| Value::Integer((mix(i, 1) % card) as i64)).collect()),
        (DataType::Decimal, (0..n_rows).map(|i| {
            Value::Decimal(i128::from(mix(i, 5) % card) * 1_000_003 - 50_000_000)
        }).collect()),
        (DataType::Double, (0..n_rows).map(|i| {
            Value::Double((mix(i, 6) % card) as f64 * 0.75 - 40.0)
        }).collect()),
        // Every fifth distinct value is far larger than a dictionary
        // page: its tail lives on the overflow chain.
        (DataType::Varchar, (0..n_rows).map(|i| {
            let v = mix(i, 2) % card;
            let tail = if v.is_multiple_of(5) { "/segment".repeat(30 + v as usize % 40) } else { String::new() };
            Value::Varchar(format!("order-{v:05}{tail}"))
        }).collect()),
        (DataType::Varchar, (0..n_rows).map(|i| Value::Varchar(format!("customer-{:06}", mix(i, 3) % 100_000))).collect()),
        (DataType::Varchar, (0..n_rows).map(|i| {
            let mut x = mix(i, 4) << 1 | 1; // xorshift, one stream per row
            let printable = |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                char::from(b' ' + ((x >> 33) % 95) as u8)
            };
            Value::Varchar((0..160).map(printable).collect())
        }).collect()),
        (DataType::Varchar, (0..n_rows).map(|i| Value::Varchar(format!("key-{salt:x}-{i:05}"))).collect()),
    ]
}

static ORACLE_CODECS: AtomicU8 = AtomicU8::new(0);
static ORACLE_SHAPES: AtomicU8 = AtomicU8::new(0);

/// Shapes a materialization oracle case records, one bit each: string
/// dictionaries of one page, of several (routed by helper), with spilled
/// entries; a key stored as its rows' identifiers; identifiers at the
/// sorted rows that ascend, that span at most 16 identifiers a row (the
/// counting pass), and that span more (the sorted fallback).
const ONE_PAGE: u8 = 1;
const MULTI_PAGE: u8 = 2;
const SPILLED: u8 = 4;
const IDENTITY: u8 = 8;
const ASCENDING: u8 = 16;
const DENSE: u8 = 32;
const SPARSE: u8 = 64;

#[test]
fn materialization_oracle_covers_every_shape() {
    materialize_equals_per_cell_values_by_vid();
    assert_every_dict_codec(&ORACLE_CODECS);
    let all = ONE_PAGE | MULTI_PAGE | SPILLED | IDENTITY | ASCENDING | DENSE | SPARSE;
    let seen = ORACLE_SHAPES.load(Ordering::Relaxed);
    assert_eq!(seen & all, all, "shapes seen {seen:#b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `materialize` over a random mix of resident and paged columns — the
    /// special shapes plus a one-page string dictionary, picked with
    /// repeats in any order — equals, cell by cell, the value of the
    /// cell's identifier read alone: `values_by_vid(&[vid])` of the one
    /// pair `vid_counts(&[rpos])` returns. Rows come ascending, shuffled,
    /// duplicated and as a short spread-out list, so identifiers are
    /// ranked ascending, by counting and by the sorted fallback; a value
    /// used by several rows must reach each of them.
    fn materialize_equals_per_cell_values_by_vid(
        n_rows in 1usize..300,
        card in 1u64..400,
        salt in any::<u64>(),
        picks in prop::collection::vec(any::<u32>(), 1..200),
        mix in prop::collection::vec(any::<u8>(), 1..12),
    ) {
        let mut sources = special_shape_columns(n_rows, card, salt);
        sources.push((DataType::Varchar, (0..n_rows).map(|i| {
            Value::Varchar(format!("ch{:02}", (i as u64 ^ salt) % 3))
        }).collect()));
        let config = PageConfig { dict_page: 2048, overflow_page: 256, ..PageConfig::tiny() };
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
        let mut columns = Vec::new();
        for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
            for (ty, values) in &sources {
                columns.push(ColumnBuilder::new(*ty).policy(policy).build(&pool, &config, values).unwrap().column);
            }
        }
        for col in &columns {
            note_codec(&ORACLE_CODECS, col.dict_codec());
            let chains = col.chains();
            let role = |r: &str| chains.iter().find(|c| c.0 == r).map(|c| c.1);
            let mut shape = 0;
            if role("data").is_none() {
                shape |= IDENTITY;
            }
            if let Some(overflow) = role("dict-overflow") {
                shape |= if role("dict-vid-helper").is_some() { MULTI_PAGE } else { ONE_PAGE };
                if store.chain_len(payg_storage::ChainId(overflow)).unwrap() > 0 {
                    shape |= SPILLED;
                }
            }
            ORACLE_SHAPES.fetch_or(shape, Ordering::Relaxed);
        }
        let which: Vec<usize> = mix.iter().map(|&p| usize::from(p) % columns.len()).collect();

        let mut ascending: Vec<u64> = picks.iter().map(|&p| u64::from(p) % n_rows as u64).collect();
        let duplicated = ascending.clone();
        ascending.sort_unstable();
        ascending.dedup();
        let mut shuffled = ascending.clone();
        let mut x = salt | 1;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let spread: Vec<u64> = ascending.iter().step_by(ascending.len().div_ceil(3)).copied().collect();

        // The oracle: every cell's identifier and its value, read alone.
        let cell = |c: usize, rpos: u64| -> (u64, Value) {
            let pairs = columns[c].vid_counts(&[rpos]).unwrap();
            assert_eq!(pairs.len(), 1);
            let vid = pairs[0].0;
            (vid, columns[c].values_by_vid(&[vid]).unwrap().remove(0))
        };
        for rows in [&ascending, &shuffled, &duplicated, &spread] {
            let mut got = vec![Vec::new(); rows.len()];
            payg_core::column::materialize(&columns, &which, rows, &mut got).unwrap();
            for (i, &rpos) in rows.iter().enumerate() {
                let expect: Vec<Value> = which.iter().map(|&c| cell(c, rpos).1).collect();
                prop_assert_eq!(&got[i], &expect, "row {} (position {})", i, rpos);
            }
            for &c in &which {
                let mut sorted = rows.to_vec();
                sorted.sort_unstable();
                let vids: Vec<u64> = sorted.iter().map(|&r| cell(c, r).0).collect();
                let (lo, hi) = (vids.iter().min().unwrap(), vids.iter().max().unwrap());
                let path = if vids.is_sorted() {
                    ASCENDING
                } else if hi - lo < 16 * vids.len() as u64 {
                    DENSE
                } else {
                    SPARSE
                };
                ORACLE_SHAPES.fetch_or(path, Ordering::Relaxed);
            }
        }
        pool.assert_no_live_pins("materialization oracle quiesce");
    }
}

static RUN_CODECS: AtomicU8 = AtomicU8::new(0);
static RUN_SHAPES: AtomicU8 = AtomicU8::new(0);

/// Shapes a row-run case records, one bit each: a width-0 data vector, a
/// key stored as its rows' identifiers, array dictionaries of one page and
/// of several, string dictionaries of one page and of several (routed by
/// helper), entries spilled to overflow pages, and a run that ends at the
/// column's last row.
const RUN_WIDTH0: u8 = 1;
const RUN_IDENTITY: u8 = 2;
const RUN_ARRAY_ONE: u8 = 4;
const RUN_ARRAY_MULTI: u8 = 8;
const RUN_BLOCK_ONE: u8 = 16;
const RUN_BLOCK_MULTI: u8 = 32;
const RUN_SPILLED: u8 = 64;
const RUN_LAST_ROW: u8 = 128;

#[test]
fn row_runs_cover_every_shape() {
    row_runs_equal_per_row_reads();
    assert_every_dict_codec(&RUN_CODECS);
    let seen = RUN_SHAPES.load(Ordering::Relaxed);
    assert_eq!(seen, u8::MAX, "shapes seen {seen:#b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Row runs — the rows of a range predicate — read through every value
    /// path equal each row read alone: `vid_counts`, the typed `sum`,
    /// `get_values`, `materialize` and `values_by_vid` of the rows'
    /// identifiers over contiguous runs that start and
    /// end at chunk and data-vector page edges ±1 (one of them at the
    /// column's last row), over the runs' rows shuffled, over them
    /// duplicated, over them with each chunk's first row twice and its
    /// second left out, and over each chunk's first 15, 16, 47 or 48 of
    /// them, on paged and resident columns of the special shapes plus
    /// a one-page string dictionary and two power-of-two cardinalities,
    /// their numeric dictionaries of one page or several. The oracle is each row's `values_by_vid(&[vid])` of its
    /// `vid_counts(&[rpos])`.
    fn row_runs_equal_per_row_reads(
        n_rows in 300usize..1600,
        card in 1u64..1100,
        salt in any::<u64>(),
        picks in prop::collection::vec(any::<u32>(), 2..7),
    ) {
        let mut sources = special_shape_columns(n_rows, card, salt);
        sources.push((DataType::Varchar, (0..n_rows).map(|i| {
            Value::Varchar(format!("ch{:02}", (i as u64 ^ salt) % 3))
        }).collect()));
        // Power-of-two cardinalities: the greatest identifier is every
        // identifier's bitwise or, the span the counting pass may take.
        let spread = |i: usize| (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        sources.push((DataType::Decimal, (0..n_rows).map(|i| Value::Decimal(i128::from(spread(i) % 4))).collect()));
        sources.push((DataType::Double, (0..n_rows).map(|i| Value::Double((spread(i) % 256) as f64)).collect()));
        let config = PageConfig { dict_page: 2048, overflow_page: 256, ..PageConfig::tiny() };
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
        let mut columns = Vec::new();
        for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
            for (ty, values) in &sources {
                columns.push(ColumnBuilder::new(*ty).policy(policy).build(&pool, &config, values).unwrap().column);
            }
        }
        // Chunk edges, and the page edges of every data-vector width.
        let mut edges = vec![0, n_rows as u64];
        for col in &columns[..sources.len()] {
            note_codec(&RUN_CODECS, col.dict_codec());
            let chains = col.chains();
            let role = |r: &str| chains.iter().find(|c| c.0 == r).map(|c| c.1);
            let pages = |chain: u64| store.chain_len(payg_storage::ChainId(chain)).unwrap();
            let mut shape = 0;
            match (role("data"), col.cardinality()) {
                (None, _) => shape |= RUN_IDENTITY,
                (Some(_), 1) => shape |= RUN_WIDTH0,
                (Some(_), card) => {
                    let bits = u64::from(BitWidth::for_cardinality(card).bits());
                    let rows_per_page = config.datavec_page as u64 / (bits * 8) * 64;
                    edges.extend((1..=n_rows as u64 / rows_per_page).map(|p| p * rows_per_page));
                }
            }
            match (col.dict_codec(), role("dict-vid-helper"), role("dict-overflow")) {
                (CodecKind::Array, ..) if pages(role("dict").unwrap()) > 1 => shape |= RUN_ARRAY_MULTI,
                (CodecKind::Array, ..) => shape |= RUN_ARRAY_ONE,
                (_, helper, overflow) => {
                    shape |= if helper.is_some() { RUN_BLOCK_MULTI } else { RUN_BLOCK_ONE };
                    if overflow.is_some_and(|chain| pages(chain) > 0) {
                        shape |= RUN_SPILLED;
                    }
                }
            }
            RUN_SHAPES.fetch_or(shape, Ordering::Relaxed);
        }
        edges.extend((64..n_rows as u64).step_by(64 * 7));
        let mut around: Vec<u64> = edges.iter().flat_map(|&e| [e.saturating_sub(1), e, e + 1]).collect();
        around.retain(|&e| e <= n_rows as u64);
        around.sort_unstable();
        around.dedup();
        // Runs between picked edges, and one through the last row.
        let mut bounds: Vec<u64> = picks.iter().map(|&p| around[p as usize % around.len()]).collect();
        bounds.sort_unstable();
        let mut runs: Vec<Vec<u64>> = bounds.chunks_exact(2).map(|b| (b[0]..b[1]).collect()).collect();
        runs.push((bounds[0]..n_rows as u64).collect());
        RUN_SHAPES.fetch_or(RUN_LAST_ROW, Ordering::Relaxed);
        let union: Vec<u64> = runs.concat();
        let mut shuffled = union.clone();
        let mut x = salt | 1;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let duplicated: Vec<u64> = union.iter().flat_map(|&r| [r, r]).collect();
        // Ascending, a chunk's first row twice and its second not at all: 64
        // rows from a chunk's first to its last that are not its rows.
        let mut skewed = union.clone();
        skewed.sort_unstable();
        skewed.dedup();
        let skewed: Vec<u64> = skewed
            .into_iter()
            .filter(|r| r % 64 != 1)
            .flat_map(|r| std::iter::repeat_n(r, if r % 64 == 0 { 2 } else { 1 }))
            .collect();

        // The oracle: every cell's identifier and value, read alone, once.
        let mut cells: Vec<Vec<Option<(u64, Value)>>> = vec![vec![None; n_rows]; columns.len()];
        let mut cell = |c: usize, rpos: u64| -> (u64, Value) {
            cells[c][rpos as usize].get_or_insert_with(|| {
                let pairs = columns[c].vid_counts(&[rpos]).unwrap();
                assert_eq!(pairs.len(), 1);
                (pairs[0].0, columns[c].values_by_vid(&[pairs[0].0]).unwrap().remove(0))
            }).clone()
        };
        let which: Vec<usize> = (0..columns.len()).collect();
        // Ascending, each chunk's first 15, 16, 47 or 48 rows in turn: one
        // row short of, and at, the most a chunk's rows are decoded slot by
        // slot, at power-of-two widths and at the others.
        let mut thinned = union.clone();
        thinned.sort_unstable();
        thinned.dedup();
        thinned.retain(|r| r % 64 < [15, 16, 47, 48][(r / 64 % 4) as usize]);
        let lists = runs.iter().map(|r| &r[..]).chain([&shuffled[..], &duplicated[..], &skewed[..], &thinned[..]]);
        for rows in lists.filter(|rows| !rows.is_empty()) {
            let mut got = vec![Vec::new(); rows.len()];
            payg_core::column::materialize(&columns, &which, rows, &mut got).unwrap();
            for (c, col) in columns.iter().enumerate() {
                let expect: Vec<(u64, Value)> = rows.iter().map(|&r| cell(c, r)).collect();
                let values: Vec<Value> = expect.iter().map(|e| e.1.clone()).collect();
                prop_assert_eq!(&col.get_values(rows).unwrap(), &values, "get_values, column {}", c);
                for (i, row) in got.iter().enumerate() {
                    prop_assert_eq!(&row[c], &values[i], "materialize, column {} row {}", c, rows[i]);
                }
                let mut counted: Vec<(u64, Value, u64)> = Vec::new();
                let mut sorted = expect.clone();
                sorted.sort_by_key(|e| e.0);
                for (vid, value) in sorted {
                    match counted.last_mut() {
                        Some(last) if last.0 == vid => last.2 += 1,
                        _ => counted.push((vid, value, 1)),
                    }
                }
                let vid_counts: Vec<(u64, u64)> = counted.iter().map(|e| (e.0, e.2)).collect();
                prop_assert_eq!(&col.vid_counts(rows).unwrap(), &vid_counts, "vid_counts, column {}", c);
                let value_counts: Vec<(Value, u64)> = counted.into_iter().map(|e| (e.1, e.2)).collect();
                prop_assert_eq!(sum_of(col, rows), sum_of_pairs(col.data_type(), &value_counts), "sum, column {}", c);
                // The rows' own identifiers: unsorted and repeated but for
                // the ascending runs.
                let vids: Vec<u64> = expect.iter().map(|e| e.0).collect();
                prop_assert_eq!(&col.values_by_vid(&vids).unwrap(), &values, "values_by_vid, column {}", c);
            }
        }
        pool.assert_no_live_pins("row runs quiesce");
    }
}

static COUNTS_CODECS: AtomicU8 = AtomicU8::new(0);

/// `col`'s typed sum at `rows` as its type and bits (so NaN equals itself
/// and -0.0 differs from 0.0); `None` for a VARCHAR column.
fn sum_of(col: &payg_core::column::Column, rows: &[u64]) -> Option<(DataType, u128)> {
    let mut sum = Sum::zero(col.data_type())?;
    col.sum(rows, &mut sum).unwrap();
    Some(sum_bits(sum))
}

/// The sum of `(value, count)` pairs ascending by identifier, folded pair
/// by pair: exact for INTEGER and DECIMAL, `x * count` added in that order
/// for DOUBLE — what a `SUM` over (value, count) pairs has always added.
fn sum_of_pairs(ty: DataType, pairs: &[(Value, u64)]) -> Option<(DataType, u128)> {
    let mut sum = Sum::zero(ty)?;
    for (value, n) in pairs {
        match (&mut sum, value) {
            (Sum::Integer(a), Value::Integer(x)) => *a += i128::from(*x) * i128::from(*n),
            (Sum::Decimal(a), Value::Decimal(x)) => *a += x * i128::from(*n),
            (Sum::Double(a), Value::Double(x)) => *a += x * *n as f64,
            other => panic!("a {ty:?} pair {other:?}"),
        }
    }
    Some(sum_bits(sum))
}

fn sum_bits(sum: Sum) -> (DataType, u128) {
    let bits = match sum {
        Sum::Integer(a) | Sum::Decimal(a) => a as u128,
        Sum::Double(a) => u128::from(a.to_bits()),
    };
    (sum.data_type(), bits)
}

#[test]
fn value_counts_under_both_codecs() {
    value_counts_equal_histogram_of_get_values();
    assert_every_dict_codec(&COUNTS_CODECS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The aggregate half of late materialization: `vid_counts` with
    /// `values_by_vid` of its identifiers ≡ the histogram of the source
    /// values at the rows ≡ the histogram of `get_values`, ascending by
    /// value, and the typed `sum` ≡ that histogram folded pair by pair, for
    /// arbitrary row lists (unsorted, duplicates, a single row, one row
    /// several times over, none) on paged and resident columns of every
    /// special shape.
    fn value_counts_equal_histogram_of_get_values(
        n_rows in 1usize..260,
        card in 1u64..200,
        salt in any::<u64>(),
        picks in prop::collection::vec(any::<u32>(), 0..150),
    ) {
        let sources = special_shape_columns(n_rows, card, salt);
        let config = PageConfig { dict_page: 2048, overflow_page: 256, ..PageConfig::tiny() };
        let pool = pool();
        let rows: Vec<u64> = picks.iter().map(|&p| u64::from(p) % n_rows as u64).collect();
        let histogram = |values: Vec<Value>| -> Vec<(Value, u64)> {
            let mut keyed: Vec<(Vec<u8>, Value)> = values.into_iter().map(|v| (v.to_key(), v)).collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out: Vec<(Value, u64)> = Vec::new();
            for (_, v) in keyed {
                match out.last_mut() {
                    Some((last, count)) if *last == v => *count += 1,
                    _ => out.push((v, 1)),
                }
            }
            out
        };
        for (ty, values) in &sources {
            for policy in [LoadPolicy::PageLoadable, LoadPolicy::FullyResident] {
                let col = ColumnBuilder::new(*ty).policy(policy).build(&pool, &config, values).unwrap().column;
                note_codec(&COUNTS_CODECS, col.dict_codec());
                let thrice = [rows.last().copied().unwrap_or(0); 3];
                for rows in [&rows[..], &rows[..rows.len().min(1)], &thrice[..], &[]] {
                    let expect = histogram(rows.iter().map(|&r| values[r as usize].clone()).collect());
                    prop_assert_eq!(sum_of(&col, rows), sum_of_pairs(*ty, &expect), "{:?} {:?}", ty, policy);
                    prop_assert_eq!(&histogram(col.get_values(rows).unwrap()), &expect);
                    let vid_counts = col.vid_counts(rows).unwrap();
                    prop_assert!(vid_counts.windows(2).all(|w| w[0].0 < w[1].0));
                    prop_assert_eq!(vid_counts.iter().map(|p| p.1).sum::<u64>(), rows.len() as u64);
                    let vids: Vec<u64> = vid_counts.iter().map(|p| p.0).collect();
                    let distinct: Vec<Value> = expect.iter().map(|p| p.0.clone()).collect();
                    prop_assert_eq!(&col.values_by_vid(&vids).unwrap(), &distinct);
                    // Descending, the first one again at the end.
                    let unsorted: Vec<u64> = vids.iter().rev().chain(vids.first()).copied().collect();
                    let values: Vec<Value> = distinct.iter().rev().chain(distinct.first()).cloned().collect();
                    prop_assert_eq!(&col.values_by_vid(&unsorted).unwrap(), &values, "unsorted identifiers");
                }
                // Out-of-range rows and identifiers are errors, not panics.
                prop_assert!(col.vid_counts(&[0, n_rows as u64]).is_err());
                prop_assert!(col.values_by_vid(&[col.cardinality()]).is_err());
            }
        }
        pool.assert_no_live_pins("value counts quiesce");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `next_row_pos_geq` plus the continuing drain agree with a naive
    /// filter at arbitrary row targets, one past the last row included.
    #[test]
    fn index_seek_and_drain_equal_naive(
        raw in prop::collection::vec(0u64..30, 1..300),
        targets in prop::collection::vec(0u64..320, 1..6),
    ) {
        let mut distinct: Vec<u64> = raw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let values: Vec<u64> = raw
            .iter()
            .map(|v| distinct.binary_search(v).unwrap() as u64)
            .collect();
        let card = distinct.len() as u64;
        let pool = pool();
        let index = PagedInvertedIndex::build(&pool, &PageConfig::tiny(), &values, card).unwrap();
        let mut it = index.iter();
        for &t in &targets {
            for vid in 0..card {
                let mut got = Vec::new();
                let mut cur = it.next_row_pos_geq(vid, t).unwrap();
                while let Some(rpos) = cur {
                    got.push(rpos);
                    cur = it.get_next_row_pos().unwrap();
                }
                let expect: Vec<u64> = values
                    .iter()
                    .enumerate()
                    .filter(|&(i, &v)| v == vid && i as u64 >= t)
                    .map(|(i, _)| i as u64)
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Paged `search` / `count` — pages scanned in place, a wave at a time,
    /// by one worker or several — ≡ the resident kernels ≡ naive evaluation,
    /// over random widths (all 32 kernels), lengths, page sizes and row
    /// ranges, with the paged pool limited to two pages — far below one wave
    /// — so a wave overshoots it and pages are evicted and re-pinned
    /// mid-suite.
    #[test]
    fn paged_search_and_count_equal_resident_and_naive(
        bits in 1u32..=32,
        n in 1usize..2500,
        seed in any::<u64>(),
        page_chunks in 1usize..6,
        set_kind in 0u8..5,
        small_pool in any::<bool>(),
        workers in 1usize..5,
    ) {
        let width = payg_encoding::BitWidth::new(bits).unwrap();
        let mask = width.mask();
        let values: Vec<u64> = (0..n as u64)
            .map(|i| {
                seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23)
                    & mask
                    // Low-cardinality tail so IN lists and ranges hit often.
                    & if i % 3 == 0 { 0x1F } else { u64::MAX }
            })
            .collect();
        let packed = BitPackedVec::from_values_with_width(&values, width);
        // Pages of 1..=5 chunks, plus odd slack no chunk fits into.
        let config = PageConfig {
            datavec_page: page_chunks * 8 * bits as usize + (seed % 8) as usize,
            ..PageConfig::tiny()
        };
        let resman = ResourceManager::new();
        let pool = BufferPool::new(Arc::new(MemStore::new()), resman.clone());
        let paged = PagedDataVector::build(&pool, &config, &packed).unwrap();
        if small_pool {
            let page = config.datavec_page;
            resman.set_paged_limits(Some(PoolLimits::new(page, 2 * page)));
        }
        let probe = values[seed as usize % n];
        let set = match set_kind {
            0 => VidSet::Single(probe),
            1 => VidSet::range(probe / 2, probe.max(1)),
            2 => VidSet::from_vids(vec![probe, probe ^ 1, mask / 2, 3]),
            3 => VidSet::from_vids((0..16).map(|k| (probe + 3 * k) & mask).collect()),
            _ => VidSet::from_vids((0..40).map(|k| (probe / 2 + 5 * k) & mask).collect()),
        };
        let from = (seed >> 3) % (n as u64 + 1);
        let to = from + (seed >> 11) % (n as u64 - from + 1);
        let naive: Vec<u64> =
            (from..to).filter(|&i| set.contains(values[i as usize])).collect();
        let mut it = paged.iter();
        let mut got = Vec::new();
        it.search(from, to, &set, &mut got).unwrap();
        prop_assert_eq!(&got, &naive, "paged search {}..{} {:?}", from, to, &set);
        prop_assert_eq!(it.count(from, to, &set).unwrap(), naive.len() as u64);
        drop(it);
        let opts = payg_core::ScanOptions { workers };
        prop_assert_eq!(paged.par_count(from, to, &set, opts).unwrap(), naive.len() as u64);
        let mut resident = Vec::new();
        payg_encoding::scan::search(&packed, from, to, &set, &mut resident);
        prop_assert_eq!(&resident, &naive);
        prop_assert_eq!(
            payg_encoding::kernels::count_matches(&packed, from, to, &set),
            naive.len() as u64
        );
        pool.assert_no_live_pins("after the scans");
    }
}

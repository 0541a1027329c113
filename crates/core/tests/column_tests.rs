//! Column-level tests: both load policies must be observationally identical.

use payg_core::column::{Column, ColumnRead, WAVE_PAGES};
use payg_core::{
    ColumnBuilder, DataType, LoadPolicy, PageConfig, ScanOptions, Value, ValuePredicate,
};
use payg_encoding::VidSet;
use payg_resman::{Disposition, PoolLimits, ResourceManager};
use payg_storage::{BufferPool, ChainId, MemStore, PageKey, PageStore, StorageResult};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn pool() -> BufferPool {
    BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new())
}

fn string_values(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| Value::Varchar(format!("material-{:03}", i % 57)))
        .collect()
}

/// Distinct random printable strings: nothing for FSST to learn, so the
/// builder keeps their dictionary chain plain front-coded.
fn random_string_values(n: usize) -> Vec<Value> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut printable = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        char::from(b' ' + ((x >> 33) % 95) as u8)
    };
    (0..n).map(|_| Value::Varchar((0..40).map(|_| printable()).collect())).collect()
}

fn int_values(n: usize) -> Vec<Value> {
    (0..n as i64).map(|i| Value::Integer((i * 37) % 101 - 50)).collect()
}

fn build(
    pool: &BufferPool,
    ty: DataType,
    values: &[Value],
    policy: LoadPolicy,
    index: bool,
) -> Column {
    ColumnBuilder::new(ty)
        .policy(policy)
        .with_index(index)
        .build(pool, &PageConfig::tiny(), values)
        .unwrap()
        .column
}

/// Every ColumnRead operation must agree across the two load policies and
/// with direct evaluation over the source values.
fn assert_equivalent(ty: DataType, values: &[Value], index: bool) {
    let pool = pool();
    let resident = build(&pool, ty, values, LoadPolicy::FullyResident, index);
    let paged = build(&pool, ty, values, LoadPolicy::PageLoadable, index);
    assert_eq!(resident.len(), values.len() as u64);
    assert_eq!(paged.len(), values.len() as u64);
    assert_eq!(resident.cardinality(), paged.cardinality());

    // Point reads: one-row late materializations.
    for rpos in (0..values.len() as u64).step_by(7) {
        let expect = &values[rpos as usize..][..1];
        assert_eq!(resident.get_values(&[rpos]).unwrap(), expect, "resident get {rpos}");
        assert_eq!(paged.get_values(&[rpos]).unwrap(), expect, "paged get {rpos}");
    }

    // Batch reads.
    let rows: Vec<u64> = (0..values.len() as u64).step_by(3).collect();
    let expect: Vec<Value> = rows.iter().map(|&r| values[r as usize].clone()).collect();
    assert_eq!(resident.get_values(&rows).unwrap(), expect);
    assert_eq!(paged.get_values(&rows).unwrap(), expect);

    // Predicates.
    let preds = vec![
        ValuePredicate::Eq(values[0].clone()),
        ValuePredicate::Eq(values[values.len() / 2].clone()),
        ValuePredicate::Between(values[1].clone(), values[values.len() / 3].clone()),
        ValuePredicate::In(vec![values[2].clone(), values[5].clone()]),
    ];
    for pred in preds {
        let expect: Vec<u64> = (0..values.len() as u64)
            .filter(|&i| pred.matches(&values[i as usize]))
            .collect();
        let got_r = resident.find_rows(&pred, 0, values.len() as u64).unwrap();
        let got_p = paged.find_rows(&pred, 0, values.len() as u64).unwrap();
        assert_eq!(got_r, expect, "resident {pred:?}");
        assert_eq!(got_p, expect, "paged {pred:?}");
        // Row-range restriction.
        let (from, to) = (values.len() as u64 / 4, values.len() as u64 / 2);
        let expect_range: Vec<u64> =
            expect.iter().copied().filter(|&r| r >= from && r < to).collect();
        assert_eq!(resident.find_rows(&pred, from, to).unwrap(), expect_range);
        assert_eq!(paged.find_rows(&pred, from, to).unwrap(), expect_range);
        assert_eq!(
            resident.count_rows(&pred, 0, values.len() as u64).unwrap(),
            expect.len() as u64
        );
        assert_eq!(
            paged.count_rows(&pred, 0, values.len() as u64).unwrap(),
            expect.len() as u64
        );
    }
}

#[test]
fn equivalence_strings_without_index() {
    assert_equivalent(DataType::Varchar, &string_values(900), false);
}

/// Point/set probes on an index seek in the compressed domain, ranges and
/// index-less columns decode-then-scan, resident columns (already decoded
/// in memory) always do; the codecs are the ones the data selected.
#[test]
fn index_point_probes_run_in_the_compressed_domain() {
    use payg_core::{CodecKind, KeyPredicate, ScanPath};
    let pool = pool();
    let values = string_values(900);
    let paged = build(&pool, DataType::Varchar, &values, LoadPolicy::PageLoadable, true);
    assert_eq!(paged.index_codec(), Some(CodecKind::Pef));
    assert_eq!(paged.dict_codec(), CodecKind::Fsst);
    let compile = |pred| KeyPredicate::compile(&pred, DataType::Varchar).unwrap();
    let point = compile(ValuePredicate::Eq(values[3].clone()));
    let range = compile(ValuePredicate::Between(values[0].clone(), values[8].clone()));
    assert_eq!(paged.scan_path(&point), ScanPath::CompressedDomain);
    assert_eq!(paged.scan_path(&range), ScanPath::DecodeThenScan);

    let resident = build(&pool, DataType::Varchar, &values, LoadPolicy::FullyResident, true);
    assert_eq!(resident.scan_path(&point), ScanPath::DecodeThenScan);

    let no_index = build(&pool, DataType::Varchar, &values, LoadPolicy::PageLoadable, false);
    assert_eq!(no_index.index_codec(), None);
    assert_eq!(no_index.scan_path(&point), ScanPath::DecodeThenScan);

    // Incompressible keys keep the dictionary chain plain; the index and
    // its traversal do not depend on that.
    let random = random_string_values(900);
    let plain_dict = build(&pool, DataType::Varchar, &random, LoadPolicy::PageLoadable, true);
    assert_eq!(plain_dict.dict_codec(), CodecKind::Plain);
    assert_eq!(plain_dict.index_codec(), Some(CodecKind::Pef));
    assert_eq!(plain_dict.scan_path(&point), ScanPath::CompressedDomain);
}

#[test]
fn equivalence_incompressible_strings_with_index() {
    assert_equivalent(DataType::Varchar, &random_string_values(900), true);
}

#[test]
fn equivalence_strings_with_index() {
    assert_equivalent(DataType::Varchar, &string_values(900), true);
}

#[test]
fn equivalence_integers_without_index() {
    assert_equivalent(DataType::Integer, &int_values(1200), false);
}

#[test]
fn equivalence_integers_with_index() {
    assert_equivalent(DataType::Integer, &int_values(1200), true);
}

#[test]
fn equivalence_doubles_and_decimals() {
    let doubles: Vec<Value> =
        (0..600).map(|i| Value::Double(((i * 13) % 89) as f64 / 4.0 - 10.0)).collect();
    assert_equivalent(DataType::Double, &doubles, true);
    let decimals: Vec<Value> =
        (0..600).map(|i| Value::Decimal(((i * 31) % 67) as i128 * 25 - 500)).collect();
    assert_equivalent(DataType::Decimal, &decimals, false);
}

/// A value range is one identifier range — the dictionary preserves order —
/// found with two `findByValue` probes: bounds that are keys map to their
/// identifiers, bounds between keys snap inward, and a range between two
/// neighbouring keys or outside them all is empty.
#[test]
fn between_translates_to_one_vid_range() {
    let pool = pool();
    let values: Vec<Value> =
        (0..100).map(|i| Value::Varchar(format!("customer-{i:06}"))).collect();
    let between = |lo: &str, hi: &str| {
        ValuePredicate::Between(Value::Varchar(lo.into()), Value::Varchar(hi.into()))
    };
    for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
        let col = build(&pool, DataType::Varchar, &values, policy, false);
        let set = |lo: &str, hi: &str| col.vid_set_for(&between(lo, hi)).unwrap();
        assert_eq!(set("customer-000010", "customer-000020"), VidSet::range(10, 20));
        assert_eq!(set("customer-000010a", "customer-000020a"), VidSet::range(11, 20));
        assert!(set("x", "y").is_empty());
        assert!(set("customer-000099x", "customer-1").is_empty());
        assert!(set("customer-000030", "customer-000020").is_empty());
        assert_eq!(set("a", "z"), VidSet::range(0, 99));
    }
}

#[test]
fn resident_column_loads_once_and_registers_one_resource() {
    let pool = pool();
    let resman = pool.resource_manager().clone();
    let values = string_values(500);
    let col = build(&pool, DataType::Varchar, &values, LoadPolicy::FullyResident, false);
    assert_eq!(resman.stats().resource_count, 0, "no load before first access");
    let _ = col.get_values(&[17]).unwrap();
    let stats = resman.stats();
    assert_eq!(stats.resource_count, 1, "the whole column is one resource");
    assert_eq!(stats.paged_bytes, 0, "resident columns are not paged resources");
    assert!(stats.total_bytes > 0);
    // Further reads don't reload.
    let _ = col.get_values(&[400]).unwrap();
    if let Column::Resident(r) = &col {
        assert_eq!(r.load_count(), 1);
    } else {
        panic!("expected resident");
    }
}

#[test]
fn paged_column_loads_only_touched_pages() {
    let pool = pool();
    let resman = pool.resource_manager().clone();
    let values = string_values(2000);
    let col = build(&pool, DataType::Varchar, &values, LoadPolicy::PageLoadable, false);
    let _ = col.get_values(&[17]).unwrap();
    let stats = resman.stats();
    assert!(stats.paged_count > 0, "pages are individual paged resources");
    // A single point read must not pull in most of the column.
    let resident_pages = pool.resident_pages();
    let total_chain_pages = {
        let store = pool.store();
        store.chains().iter().map(|&c| store.chain_len(c).unwrap()).sum::<u64>()
    };
    assert!(
        (resident_pages as u64) < total_chain_pages / 2,
        "one point read loaded {resident_pages} of {total_chain_pages} pages"
    );
}

#[test]
fn resident_eviction_and_reload() {
    let pool = pool();
    let resman = pool.resource_manager().clone();
    let values = int_values(800);
    let col = build(&pool, DataType::Integer, &values, LoadPolicy::FullyResident, false);
    let _ = col.get_values(&[0]).unwrap();
    // A global low-memory sweep evicts the whole column at once.
    let freed = resman.handle_low_memory(1);
    assert!(freed > 0);
    assert_eq!(resman.stats().resource_count, 0);
    if let Column::Resident(r) = &col {
        assert!(!r.is_loaded());
    }
    // Next access reloads (load_count == 2) and returns correct data.
    assert_eq!(col.get_values(&[5]).unwrap(), &values[5..6]);
    if let Column::Resident(r) = &col {
        assert_eq!(r.load_count(), 2);
    }
}

#[test]
fn paged_eviction_is_piecewise_and_transparent() {
    let pool = pool();
    let resman = pool.resource_manager().clone();
    resman.set_paged_limits(Some(PoolLimits::new(0, usize::MAX)));
    let values = string_values(2000);
    let col = build(&pool, DataType::Varchar, &values, LoadPolicy::PageLoadable, false);
    for rpos in (0..2000).step_by(100) {
        assert_eq!(col.get_values(&[rpos]).unwrap(), &values[rpos as usize..][..1]);
    }
    let before = resman.stats().paged_bytes;
    assert!(before > 0);
    // Evict everything; queries still work by reloading pages on demand.
    resman.reactive_unload();
    assert_eq!(resman.stats().paged_bytes, 0);
    for rpos in (0..2000).step_by(250) {
        assert_eq!(col.get_values(&[rpos]).unwrap(), &values[rpos as usize..][..1]);
    }
}

#[test]
fn resident_disposition_orders_eviction() {
    let pool = pool();
    let resman = pool.resource_manager().clone();
    let values = int_values(400);
    // A cold partition's column (temporary disposition) and a hot one.
    let cold = ColumnBuilder::new(DataType::Integer)
        .resident_disposition(Disposition::Temporary)
        .build(&pool, &PageConfig::tiny(), &values)
        .unwrap()
        .column;
    let hot = ColumnBuilder::new(DataType::Integer)
        .resident_disposition(Disposition::LongTerm)
        .build(&pool, &PageConfig::tiny(), &values)
        .unwrap()
        .column;
    cold.ensure_loaded().unwrap();
    hot.ensure_loaded().unwrap();
    // Demand a small amount of memory: with comparable idle times, the
    // temporary-disposition column scores far higher (t / 0.25 vs t / 16)
    // and must be the victim.
    let _ = resman.handle_low_memory(1);
    if let (Column::Resident(c), Column::Resident(h)) = (&cold, &hot) {
        assert!(!c.is_loaded(), "cold (temporary) column evicted first");
        assert!(h.is_loaded(), "hot (long-term) column survives");
    }
}

#[test]
fn type_mismatch_is_an_error() {
    let pool = pool();
    let values = int_values(100);
    let col = build(&pool, DataType::Integer, &values, LoadPolicy::PageLoadable, false);
    assert!(col
        .find_rows(&ValuePredicate::Eq(Value::Varchar("x".into())), 0, 100)
        .is_err());
    // Builder rejects mixed types.
    let mut mixed = int_values(10);
    mixed.push(Value::Varchar("oops".into()));
    assert!(ColumnBuilder::new(DataType::Integer)
        .build(&pool, &PageConfig::tiny(), &mixed)
        .is_err());
}

/// `key_by_vid` is the one-identifier batch of `values_by_vid`, re-keyed: on
/// every dictionary shape — a multi-page plain string chain, an FSST one,
/// one with entries spilled off-page, a one-page one (no helper routing)
/// and a numeric array — and under both load policies, it returns the built
/// key of every identifier and refuses the first identifier past the end.
#[test]
fn key_by_vid_is_the_one_vid_batch_for_every_dictionary_shape() {
    use payg_core::CodecKind;
    let tiny = PageConfig::tiny();
    // Whole 40-byte entries: inline on a roomier page than tiny()'s.
    let roomy = PageConfig { dict_page: 2048, helper_page: 2048, inline_limit: 48, ..tiny };
    let material: Vec<Value> =
        (0..400).map(|i| Value::Varchar(format!("material-{:05}", i * 7 % 331))).collect();
    let shapes: [(&str, DataType, Vec<Value>, PageConfig, CodecKind); 5] = [
        ("plain", DataType::Varchar, random_string_values(900), roomy, CodecKind::Plain),
        ("fsst", DataType::Varchar, material, tiny, CodecKind::Fsst),
        ("spilled", DataType::Varchar, random_string_values(200), tiny, CodecKind::Fsst),
        ("one-page", DataType::Varchar, string_values(12), tiny, CodecKind::Fsst),
        ("numeric", DataType::Integer, int_values(300), tiny, CodecKind::Array),
    ];
    for (shape, ty, values, config, codec) in shapes {
        let mut keys: Vec<Vec<u8>> = values.iter().map(Value::to_key).collect();
        keys.sort();
        keys.dedup();
        for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
            let pool = pool();
            let built =
                ColumnBuilder::new(ty).policy(policy).build(&pool, &config, &values).unwrap();
            let stats = built.dict_stats;
            match shape {
                "one-page" => assert_eq!(stats.dict_pages, 1, "{shape}"),
                _ => assert!(stats.dict_pages > 1, "{shape}: {stats:?}"),
            }
            assert_eq!(stats.overflow_pages > 0, shape == "spilled", "{shape}: {stats:?}");
            let col = built.column;
            assert_eq!(col.dict_codec(), codec, "{shape}");
            assert_eq!(col.cardinality(), keys.len() as u64);
            for (vid, key) in keys.iter().enumerate() {
                assert_eq!(&col.key_by_vid(vid as u64).unwrap(), key, "{shape} {policy:?} {vid}");
            }
            let past_end = col.key_by_vid(keys.len() as u64);
            assert!(
                matches!(past_end, Err(payg_core::CoreError::VidOutOfBounds { vid, cardinality })
                    if vid == keys.len() as u64 && cardinality == vid),
                "{shape} {policy:?}: {past_end:?}"
            );
            pool.assert_no_live_pins("key_by_vid");
        }
    }
}

#[test]
fn empty_and_single_row_columns() {
    let pool = pool();
    for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
        let empty = build(&pool, DataType::Integer, &[], policy, false);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert!(empty
            .find_rows(&ValuePredicate::Eq(Value::Integer(1)), 0, 0)
            .unwrap()
            .is_empty());
        let single = build(&pool, DataType::Integer, &[Value::Integer(42)], policy, true);
        assert_eq!(single.get_values(&[0]).unwrap(), vec![Value::Integer(42)]);
        assert_eq!(
            single.find_rows(&ValuePredicate::Eq(Value::Integer(42)), 0, 1).unwrap(),
            vec![0]
        );
    }
}

/// A [`MemStore`] that counts the read calls reaching it and samples, at
/// each, how many page guards the pool it serves has live (the pin-leak
/// detector's count: 0 unless built with `strict-invariants`).
#[derive(Default)]
struct CountingStore {
    inner: MemStore,
    read_calls: AtomicU64,
    pool: Mutex<Option<BufferPool>>,
    max_live_pins: AtomicUsize,
}

impl PageStore for CountingStore {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        self.inner.create_chain(page_size)
    }
    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        self.inner.append_page(chain, payload)
    }
    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        self.read_pages(key.chain, key.page_no, 1).remove(0)
    }
    fn read_pages(&self, chain: ChainId, first: u64, count: usize) -> Vec<StorageResult<Box<[u8]>>> {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(pool) = &*self.pool.lock().unwrap() {
            self.max_live_pins.fetch_max(pool.live_pins(), Ordering::Relaxed);
        }
        self.inner.read_pages(chain, first, count)
    }
    fn chain_len(&self, chain: ChainId) -> StorageResult<u64> {
        self.inner.chain_len(chain)
    }
    fn page_size(&self, chain: ChainId) -> StorageResult<usize> {
        self.inner.page_size(chain)
    }
    fn drop_chain(&self, chain: ChainId) -> StorageResult<()> {
        self.inner.drop_chain(chain)
    }
    fn chains(&self) -> Vec<ChainId> {
        self.inner.chains()
    }
    fn set_chain_descriptor(&self, chain: ChainId, desc: &[u8]) -> StorageResult<()> {
        self.inner.set_chain_descriptor(chain, desc)
    }
    fn chain_descriptor(&self, chain: ChainId) -> StorageResult<Vec<u8>> {
        self.inner.chain_descriptor(chain)
    }
}

/// The scan loop is the second client of the wave mechanism: a cold scan of
/// consecutive data pages — rows or count, and `payg-perf`'s four-worker
/// count — loads every page once, through a few coalesced ranged reads, with
/// never more than one wave of pages pinned.
#[test]
fn cold_scans_coalesce_their_reads_and_pin_at_most_one_wave() {
    let store = Arc::new(CountingStore::default());
    let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
    *store.pool.lock().unwrap() = Some(pool.clone());
    let values = int_values(24_000);
    let col = build(&pool, DataType::Integer, &values, LoadPolicy::PageLoadable, false);
    let rows = values.len() as u64;
    let data = ChainId(col.chains().iter().find(|(role, _)| *role == "data").unwrap().1);
    let pages = store.chain_len(data).unwrap();
    assert!(pages >= 64, "{pages} data pages");
    // Every page holds every value: nothing is pruned.
    let pred = ValuePredicate::Eq(Value::Integer(7));
    let expect: Vec<u64> = (0..rows).filter(|&i| pred.matches(&values[i as usize])).collect();

    // Runs `scan` against cold data pages (the dictionary probe is warmed by
    // an empty-range count first) and returns the pool and store traffic.
    let cold = |scan: &dyn Fn()| {
        pool.clear();
        assert_eq!(col.count_rows(&pred, 0, 0).unwrap(), 0);
        let (before, reads_before) = (pool.metrics(), store.read_calls.load(Ordering::Relaxed));
        scan();
        let m = pool.metrics().delta(&before);
        assert_eq!(m.loads, pages, "every data page loads once: {m:?}");
        assert!(m.io_physical_reads <= pages / 8, "the waves' reads coalesce: {m:?}");
        assert_eq!(
            store.read_calls.load(Ordering::Relaxed) - reads_before,
            m.io_physical_reads,
            "the store saw exactly the stage's ranged reads"
        );
        pool.assert_no_live_pins("after a cold scan");
    };
    let four = ScanOptions::with_workers(4);
    cold(&|| assert_eq!(col.count_rows(&pred, 0, rows).unwrap(), expect.len() as u64));
    cold(&|| assert_eq!(col.find_rows(&pred, 0, rows).unwrap(), expect));
    cold(&|| assert_eq!(col.count_rows_par(&pred, 0, rows, four).unwrap(), expect.len() as u64));

    // Pins bounded by one wave: with every other page resident, the hits of
    // a wave are held while its misses load — and nothing of the wave
    // before it.
    pool.clear();
    for page in (1..pages).step_by(2) {
        drop(pool.pin(PageKey::new(data, page)).unwrap());
    }
    store.max_live_pins.store(0, Ordering::Relaxed);
    assert_eq!(col.find_rows(&pred, 0, rows).unwrap(), expect);
    let held = store.max_live_pins.load(Ordering::Relaxed);
    assert!(held <= WAVE_PAGES, "{held} pages pinned while a wave loaded");
    if cfg!(feature = "strict-invariants") {
        assert!(held > 0, "the pin tracker saw the wave's hits");
    }
    *store.pool.lock().unwrap() = None;
}

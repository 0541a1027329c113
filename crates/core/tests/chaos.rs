//! Chaos scans: seeded fault storms through the full scan stack — paged
//! vector → its iterator (or `par_count`'s workers) → buffer pool → faulty
//! store.
//!
//! The trichotomy under test: a scan returns the *correct* rows, or one
//! clean [`CoreError::ScanAborted`] naming the failing page — never a
//! panic, a wrong partial result, a leaked pin, or a wedged pool. A
//! failing seed reproduces with
//! `PAYG_CHAOS_SEED=<seed> cargo test -p payg-core --test chaos`.

use payg_core::datavec::{PagedDataVector, ScanOptions};
use payg_core::{CoreError, CoreResult, PageConfig};
use payg_encoding::{BitPackedVec, VidSet};
use payg_resman::ResourceManager;
use payg_storage::{
    BufferPool, FaultPlan, FaultyStore, FileStore, MemStore, PageStore, PoolConfig,
};
use std::sync::Arc;

const ROWS: usize = 6000;
const CARD: u64 = 97;

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("PAYG_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("PAYG_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 2, 3, 4],
    }
}

fn sample(len: usize, card: u64, seed: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                % card
        })
        .collect()
}

/// The sequential row search a query runs, over `from..to`.
fn search(paged: &PagedDataVector, from: u64, to: u64, set: &VidSet) -> CoreResult<Vec<u64>> {
    let mut out = Vec::new();
    paged.iter().search(from, to, set, &mut out).map(|()| out)
}

type Scan = fn(&PagedDataVector, u64, &VidSet) -> CoreResult<u64>;

/// The scans a chaos test drives over `0..rows`, each yielding its match
/// count: rows and count on the calling thread — what a query runs — and
/// `par_count` at four workers, the `payg-perf` probe.
const SCANS: [(&str, Scan); 3] = [
    ("search", |paged, rows, set| search(paged, 0, rows, set).map(|r| r.len() as u64)),
    ("count", |paged, rows, set| paged.iter().count(0, rows, set)),
    ("par_count(4)", |paged, rows, set| {
        paged.par_count(0, rows, set, ScanOptions::with_workers(4))
    }),
];

/// Either the exact expected answer, or one typed abort naming a page of
/// the vector's chain — nothing else.
fn audit<T: PartialEq + std::fmt::Debug>(
    seed: u64,
    result: CoreResult<T>,
    expected: &T,
    chain: u64,
    pages: u64,
) {
    match result {
        Ok(got) => assert_eq!(&got, expected, "seed {seed}: an Ok scan must be exact"),
        Err(CoreError::ScanAborted { chain: c, page_no, source }) => {
            assert_eq!(c, chain, "seed {seed}: abort names the scanned chain");
            assert!(page_no < pages, "seed {seed}: abort names a real page ({page_no})");
            assert!(
                matches!(*source, CoreError::Storage(_)),
                "seed {seed}: abort wraps the storage fault, got {source}"
            );
        }
        Err(other) => panic!("seed {seed}: unexpected scan error shape: {other}"),
    }
}

#[test]
fn seeded_scan_storms_land_in_the_trichotomy() {
    let values = sample(ROWS, CARD, 7);
    let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
    let pool = BufferPool::with_config(
        Arc::clone(&store) as Arc<dyn PageStore>,
        ResourceManager::new(),
        PoolConfig { sleeper: Arc::new(|_| {}), quarantine_ttl: 3, ..PoolConfig::default() },
    );
    let packed = BitPackedVec::from_values(&values);
    let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
    let (chain, pages, rows) = (paged.page_key(0).chain.0, paged.pages(), ROWS as u64);
    let set = VidSet::range(10, 60);
    let expected: Vec<u64> = (0..rows).filter(|&i| set.contains(values[i as usize])).collect();
    let count = expected.len() as u64;

    for seed in chaos_seeds() {
        store.set_plan(FaultPlan::Seeded { seed, p_read: 0.1, p_corrupt: 0.05, p_write: 0.0 });
        pool.clear();
        pool.clear_quarantine();
        audit(seed, search(&paged, 0, rows, &set), &expected, chain, pages);
        audit(seed, paged.iter().count(0, rows, &set), &count, chain, pages);
        pool.clear();
        pool.clear_quarantine();
        let par = paged.par_count(0, rows, &set, ScanOptions::with_workers(4));
        audit(seed, par, &count, chain, pages);
        // Recovery: faults lifted, quarantine drained — the same scans must
        // come back exact. Chaos must never wedge the stack.
        store.set_plan(FaultPlan::None);
        pool.clear();
        pool.clear_quarantine();
        assert_eq!(search(&paged, 0, rows, &set).unwrap(), expected, "seed {seed}: recovery");
        for (what, scan) in SCANS {
            assert_eq!(scan(&paged, rows, &set).unwrap(), count, "seed {seed}: recovery {what}");
        }
        pool.assert_no_live_pins("chaos scan quiesce");
    }
}

#[test]
fn a_corrupt_page_mid_wave_aborts_naming_it_and_the_retry_succeeds() {
    // Eight waves' worth of pages, the corrupt one well inside a wave: each
    // scan — rows or count on one thread, or a four-worker count — stops on
    // exactly that page, no pin of its wave outlives the abort, and once
    // the medium is replaced the same scan completes.
    let values = sample(70_000, CARD, 11);
    let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
    let pool = BufferPool::with_config(
        Arc::clone(&store) as Arc<dyn PageStore>,
        ResourceManager::new(),
        PoolConfig { sleeper: Arc::new(|_| {}), ..PoolConfig::default() },
    );
    let packed = BitPackedVec::from_values(&values);
    let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
    let wave = payg_core::column::WAVE_PAGES as u64;
    assert!(paged.pages() >= 8 * wave, "{} pages", paged.pages());
    let bad = paged.page_key(2 * wave + wave / 2);
    let rows = values.len() as u64;
    let set = VidSet::range(10, 60);
    let expected: Vec<u64> = (0..rows).filter(|&i| set.contains(values[i as usize])).collect();
    for (what, scan) in SCANS {
        store.set_plan(FaultPlan::CorruptPages(vec![bad]));
        pool.clear();
        match scan(&paged, rows, &set).unwrap_err() {
            CoreError::ScanAborted { chain, page_no, source } => {
                assert_eq!((chain, page_no), (bad.chain.0, bad.page_no), "{what}");
                assert!(corrupt_class(&source), "{what}: {source}");
            }
            other => panic!("{what}: expected ScanAborted, got {other}"),
        }
        pool.assert_no_live_pins("after an aborted wave");
        store.set_plan(FaultPlan::None);
        pool.clear_quarantine();
        assert_eq!(scan(&paged, rows, &set).unwrap(), expected.len() as u64, "{what}");
    }
    assert_eq!(search(&paged, 0, rows, &set).unwrap(), expected);
}

#[test]
fn on_disk_bit_rot_surfaces_as_a_named_scan_abort() {
    let dir = std::env::temp_dir().join(format!("payg-scan-rot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let values = sample(4000, 50, 9);
    let store = Arc::new(FileStore::open(&dir).unwrap());
    let pool =
        BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
    let packed = BitPackedVec::from_values(&values);
    let paged = PagedDataVector::build(&pool, &PageConfig::tiny(), &packed).unwrap();
    let chain = paged.page_key(0).chain;
    let set = VidSet::range(0, 49); // matches every page: nothing pruned
    let expected: Vec<u64> =
        (0..4000u64).filter(|&i| set.contains(values[i as usize])).collect();
    assert_eq!(search(&paged, 0, 4000, &set).unwrap(), expected, "clean disk scans exactly");

    // Flip one payload bit in the middle page's slot on disk, then force
    // each scan to re-read it.
    let path = dir.join(format!("chain_{:016x}.pg", chain.0));
    let mut bytes = std::fs::read(&path).unwrap();
    let (data_start, slot_len) = store.chain_layout(chain).unwrap();
    let target = paged.pages() / 2;
    bytes[(data_start + slot_len * target) as usize + 3] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    for (what, scan) in SCANS {
        pool.clear();
        pool.clear_quarantine();
        match scan(&paged, 4000, &set).unwrap_err() {
            CoreError::ScanAborted { chain: c, page_no, source } => {
                assert_eq!((c, page_no), (chain.0, target), "{what}: names the rotten page");
                assert!(corrupt_class(&source), "{what}: bit rot is corrupt-class: {source}");
            }
            other => panic!("{what}: expected ScanAborted, got {other}"),
        }
    }
    pool.assert_no_live_pins("bit rot quiesce");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// True when the error bottoms out in a Corrupt-class storage fault,
/// unwrapping scan-abort wrappers along the way.
fn corrupt_class(err: &CoreError) -> bool {
    match err {
        CoreError::Storage(e) => e.fault_class() == payg_storage::FaultClass::Corrupt,
        CoreError::ScanAborted { source, .. } => corrupt_class(source),
        _ => false,
    }
}

/// Bit rot inside *compressed* pages — FSST dictionary blocks, PEF posting
/// partitions, helper and data pages alike — surfaces as a Corrupt-class
/// fault: the page checksum catches the flip before any compressed-domain
/// decoder can misdecode it into a silently wrong answer.
#[test]
fn compressed_page_rot_is_a_corrupt_class_fault() {
    use payg_core::column::ColumnRead;
    use payg_core::{ColumnBuilder, DataType, LoadPolicy, Value, ValuePredicate};

    let dir = std::env::temp_dir().join(format!("payg-cmprot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(FileStore::open(&dir).unwrap());
    let pool =
        BufferPool::new(Arc::clone(&store) as Arc<dyn PageStore>, ResourceManager::new());
    let values: Vec<Value> = (0..2000)
        .map(|i| Value::Varchar(format!("customer-{:04}-region-{}", i % 250, i % 7).into()))
        .collect();
    let col = ColumnBuilder::new(DataType::Varchar)
        .policy(LoadPolicy::PageLoadable)
        .with_index(true)
        .build(&pool, &PageConfig::tiny(), &values)
        .unwrap()
        .column;
    let pred = ValuePredicate::Eq(Value::Varchar("customer-0007-region-0".into()));
    let expect: Vec<u64> = (0..values.len() as u64)
        .filter(|&i| pred.matches(&values[i as usize]))
        .collect();
    assert!(!expect.is_empty(), "probe must hit rows");
    assert_eq!(col.find_rows(&pred, 0, values.len() as u64).unwrap(), expect);

    // Flip one payload byte in the first page of every chain backing the
    // column, so whichever chain a read path touches first is rotten.
    let mut chains: Vec<u64> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let hex = name.strip_prefix("chain_")?.strip_suffix(".pg")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect();
    chains.sort_unstable();
    assert!(chains.len() >= 3, "expected dict/index/data chains, got {chains:?}");
    for &c in &chains {
        let (data_start, _) = store.chain_layout(payg_storage::ChainId(c)).unwrap();
        let path = dir.join(format!("chain_{c:016x}.pg"));
        let mut bytes = std::fs::read(&path).unwrap();
        // Chains that never appended a page have nothing to rot.
        if let Some(byte) = bytes.get_mut(data_start as usize + 5) {
            *byte ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    pool.clear();

    let find_err = col.find_rows(&pred, 0, values.len() as u64).unwrap_err();
    assert!(corrupt_class(&find_err), "find over rotten pages: {find_err}");
    let get_err = col.get_values(&[3]).unwrap_err();
    assert!(corrupt_class(&get_err), "point read over rotten pages: {get_err}");
    pool.assert_no_live_pins("compressed rot quiesce");
    std::fs::remove_dir_all(&dir).unwrap();
}

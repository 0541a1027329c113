//! Page stores: durable (file-backed) and in-memory, plus fault injection.

use crate::checksum::page_checksum;
use crate::sync::{Condvar, Mutex};
use crate::{ChainId, PageKey, StorageError, StorageResult};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the latency-simulating store ([`LatencyStore`]) spends its
/// configured delay. The default performs a real `thread::sleep`;
/// tests inject a recording sleeper so latency behavior is asserted on the
/// *requested durations* instead of wall-clock time.
pub type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;

/// The real-time sleeper used when none is injected. This is the one
/// sanctioned blocking sink for simulated I/O latency.
pub fn real_sleeper() -> Sleeper {
    // lint: allow(sleep) sole sanctioned real-time sink for simulated I/O latency
    Arc::new(std::thread::sleep)
}

/// A store of page chains. Pages are fixed-size raw byte arrays; all layout
/// (headers, counts, offsets) is the responsibility of the structures
/// persisted on top.
pub trait PageStore: Send + Sync {
    /// Creates a new, empty chain whose pages are `page_size` bytes.
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId>;
    /// Appends a page. `payload` may be shorter than the page size (it is
    /// zero-padded) but never longer. Returns the new logical page number.
    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64>;
    /// Reads one full page.
    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>>;
    /// Reads `count` consecutive pages starting at `first_page`, returning
    /// one result **per page** — a batch never collapses to a single error.
    ///
    /// The default loops [`read_page`](Self::read_page), so decorators that
    /// meter or gate individual reads (fault injection, gating) keep their
    /// per-page semantics. Stores with a physical notion of adjacency
    /// override this with one ranged read, but must preserve per-page error
    /// granularity: a corrupt page in the middle of a batch fails only its
    /// own slot.
    fn read_pages(
        &self,
        chain: ChainId,
        first_page: u64,
        count: usize,
    ) -> Vec<StorageResult<Box<[u8]>>> {
        (0..count as u64)
            .map(|i| self.read_page(PageKey::new(chain, first_page + i)))
            .collect()
    }
    /// Number of pages in the chain.
    fn chain_len(&self, chain: ChainId) -> StorageResult<u64>;
    /// The chain's page size in bytes.
    fn page_size(&self, chain: ChainId) -> StorageResult<usize>;
    /// Deletes a chain and its pages.
    fn drop_chain(&self, chain: ChainId) -> StorageResult<()>;
    /// All existing chains (used when reopening a durable store).
    fn chains(&self) -> Vec<ChainId>;
    /// Attaches an opaque descriptor blob (codec metadata) to a chain,
    /// replacing any previous one. Durable stores persist it in a header
    /// region in front of the page slots: set on a chain without pages, the
    /// region is sized to it; once pages exist, a replacement must fit the
    /// region, since no slot ever moves. Builders set it before their first
    /// append.
    fn set_chain_descriptor(&self, chain: ChainId, desc: &[u8]) -> StorageResult<()>;
    /// The chain's descriptor: empty for chains that never had one set.
    fn chain_descriptor(&self, chain: ChainId) -> StorageResult<Vec<u8>>;
}

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

struct MemChain {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
    desc: Vec<u8>,
}

/// An in-memory page store for tests and latency-controlled experiments.
#[derive(Default)]
pub struct MemStore {
    chains: Mutex<HashMap<u64, MemChain>>,
    // lint: allow(raw-counter) chain id allocator, not a metric
    next_id: AtomicU64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemStore {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        assert!(page_size > 0, "page size must be positive");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.chains
            .lock()
            .insert(id, MemChain { page_size, pages: Vec::new(), desc: Vec::new() });
        Ok(ChainId(id))
    }

    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        let mut chains = self.chains.lock();
        let c = chains.get_mut(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        if payload.len() > c.page_size {
            return Err(StorageError::PageTooLarge { got: payload.len(), page_size: c.page_size });
        }
        let mut page = vec![0u8; c.page_size];
        page[..payload.len()].copy_from_slice(payload);
        c.pages.push(page.into_boxed_slice());
        Ok(c.pages.len() as u64 - 1)
    }

    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        let chains = self.chains.lock();
        let c = chains
            .get(&key.chain.0)
            .ok_or(StorageError::UnknownChain(key.chain.0))?;
        c.pages
            .get(key.page_no as usize)
            .cloned()
            .ok_or(StorageError::PageOutOfBounds { key, chain_len: c.pages.len() as u64 })
    }

    fn chain_len(&self, chain: ChainId) -> StorageResult<u64> {
        let chains = self.chains.lock();
        let c = chains.get(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        Ok(c.pages.len() as u64)
    }

    fn page_size(&self, chain: ChainId) -> StorageResult<usize> {
        let chains = self.chains.lock();
        let c = chains.get(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        Ok(c.page_size)
    }

    fn drop_chain(&self, chain: ChainId) -> StorageResult<()> {
        self.chains
            .lock()
            .remove(&chain.0)
            .map(|_| ())
            .ok_or(StorageError::UnknownChain(chain.0))
    }

    fn chains(&self) -> Vec<ChainId> {
        let mut v: Vec<ChainId> = self.chains.lock().keys().map(|&k| ChainId(k)).collect();
        v.sort_unstable();
        v
    }

    fn set_chain_descriptor(&self, chain: ChainId, desc: &[u8]) -> StorageResult<()> {
        let mut chains = self.chains.lock();
        let c = chains.get_mut(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        c.desc = desc.to_vec();
        Ok(())
    }

    fn chain_descriptor(&self, chain: ChainId) -> StorageResult<Vec<u8>> {
        let chains = self.chains.lock();
        let c = chains.get(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        Ok(c.desc.clone())
    }
}

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

const FILE_MAGIC: &[u8; 8] = b"PAYGPG01";
const HEADER_LEN: u64 = 24; // magic(8) + page_size(4) + format(4) + desc_cap(4) + desc_len(4)
/// End of the format field: the prefix that identifies any chain file of
/// this magic, read first so a foreign format is named rather than guessed.
const FORMAT_END: u64 = 16;

/// The one chain-file layout this build reads and writes: checksummed page
/// slots behind a chain descriptor region (opaque codec metadata) that sits
/// between the header and slot 0. The header records the region's capacity:
/// a new chain's region is empty and is sized to the descriptor set before
/// its first page, while files that reserved a fixed region read the same
/// way.
const FORMAT: u32 = 2;

/// Per-page trailer: CRC-32 of the little-endian page number + padded
/// payload (4 bytes, LE), then 4 reserved zero bytes.
const PAGE_TRAILER_LEN: usize = 8;

struct ChainFile {
    file: File,
    page_size: usize,
    len: u64,
    /// Descriptor region capacity.
    desc_cap: u32,
    /// Bytes of the descriptor region currently in use.
    desc_len: u32,
}

impl ChainFile {
    /// On-disk bytes per page: payload plus checksum trailer.
    fn slot_len(&self) -> u64 {
        (self.page_size + PAGE_TRAILER_LEN) as u64
    }

    /// File offset of page slot 0: past the header and the descriptor
    /// region.
    fn data_start(&self) -> u64 {
        HEADER_LEN + self.desc_cap as u64
    }
}

/// A durable page store: one file per chain under a directory. Reopening the
/// directory recovers all chains — this is what cold-restart experiments use.
pub struct FileStore {
    dir: PathBuf,
    chains: Mutex<HashMap<u64, ChainFile>>,
    // lint: allow(raw-counter) chain id allocator, not a metric
    next_id: AtomicU64,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`, recovering any
    /// existing chains.
    pub fn open(dir: impl Into<PathBuf>) -> StorageResult<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut chains = HashMap::new();
        let mut max_id = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_prefix("chain_").and_then(|s| s.strip_suffix(".pg")) else {
                continue;
            };
            let Ok(id) = u64::from_str_radix(hex, 16) else { continue };
            let path = entry.path();
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            let file_len = file.metadata()?.len();
            // Every validation failure below names the offending file and the
            // byte offset of the bad field, in one format (StorageError::
            // CorruptFile), so operators can go straight from the message to
            // a hex dump.
            if file_len < FORMAT_END {
                return Err(StorageError::corrupt_file(
                    &path,
                    0,
                    format!("file of {file_len} bytes is shorter than the {HEADER_LEN}-byte header"),
                ));
            }
            let mut header = [0u8; HEADER_LEN as usize];
            let field = |header: &[u8], at: usize| {
                u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
            };
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header[..FORMAT_END as usize])?;
            if &header[..8] != FILE_MAGIC {
                return Err(StorageError::corrupt_file(
                    &path,
                    0,
                    format!("bad magic {:02x?}, expected {FILE_MAGIC:02x?}", &header[..8]),
                ));
            }
            let page_size = field(&header, 8) as usize;
            if page_size == 0 {
                return Err(StorageError::corrupt_file(&path, 8, "zero page size"));
            }
            // The format gates everything behind it: a file whose pages this
            // build could not verify is refused whole, never read.
            let format = field(&header, 12);
            if format != FORMAT {
                return Err(StorageError::corrupt_file(
                    &path,
                    12,
                    format!(
                        "chain file is format {format}, this build reads only format {FORMAT} \
                         (checksummed page slots behind a descriptor region): rewrite the \
                         chain with a build that reads format {format}"
                    ),
                ));
            }
            if file_len < HEADER_LEN {
                return Err(StorageError::corrupt_file(
                    &path,
                    FORMAT_END,
                    format!("file of {file_len} bytes is shorter than the {HEADER_LEN}-byte header"),
                ));
            }
            file.read_exact(&mut header[FORMAT_END as usize..])?;
            let (desc_cap, desc_len) = (field(&header, 16), field(&header, 20));
            if desc_len > desc_cap {
                return Err(StorageError::corrupt_file(
                    &path,
                    20,
                    format!("descriptor length {desc_len} exceeds the {desc_cap}-byte capacity"),
                ));
            }
            let c = ChainFile { file, page_size, len: 0, desc_cap, desc_len };
            let data_start = c.data_start();
            if file_len < data_start {
                return Err(StorageError::corrupt_file(
                    &path,
                    16,
                    format!(
                        "descriptor capacity {desc_cap} overruns the {file_len}-byte file \
                         (slots would start at {data_start})"
                    ),
                ));
            }
            let slot = c.slot_len();
            let body = file_len - data_start;
            if !body.is_multiple_of(slot) {
                return Err(StorageError::corrupt_file(
                    &path,
                    data_start,
                    format!("body of {body} bytes is not a multiple of the {slot}-byte page slot"),
                ));
            }
            max_id = max_id.max(id);
            chains.insert(id, ChainFile { len: body / slot, ..c });
        }
        Ok(FileStore {
            dir,
            chains: Mutex::new(chains),
            next_id: AtomicU64::new(max_id + 1),
        })
    }

    fn chain_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("chain_{id:016x}.pg"))
    }

    /// Verifies and trims one raw slot (payload + trailer) as read from
    /// disk into a page payload.
    fn verify_slot(c: &ChainFile, key: PageKey, mut slot: Vec<u8>) -> StorageResult<Box<[u8]>> {
        let stored = u32::from_le_bytes([
            slot[c.page_size],
            slot[c.page_size + 1],
            slot[c.page_size + 2],
            slot[c.page_size + 3],
        ]);
        let computed = page_checksum(key.page_no, &slot[..c.page_size]);
        if stored != computed {
            return Err(StorageError::ChecksumMismatch { key, stored, computed });
        }
        slot.truncate(c.page_size);
        Ok(slot.into_boxed_slice())
    }

    /// File offset of a chain's page slot 0 (past header and descriptor
    /// region), and the on-disk slot length in bytes. For tools and chaos
    /// tests that corrupt or inspect chain files behind the store's back.
    pub fn chain_layout(&self, chain: ChainId) -> StorageResult<(u64, u64)> {
        let chains = self.chains.lock();
        let c = chains.get(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        Ok((c.data_start(), c.slot_len()))
    }

    /// Reads one in-bounds page's slot (seek + read + verify).
    fn read_slot(c: &mut ChainFile, key: PageKey) -> StorageResult<Box<[u8]>> {
        let mut buf = vec![0u8; c.slot_len() as usize];
        let offset = c.data_start() + key.page_no * c.slot_len();
        c.file.seek(SeekFrom::Start(offset))?;
        c.file.read_exact(&mut buf)?;
        Self::verify_slot(c, key, buf)
    }
}

impl PageStore for FileStore {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        assert!(page_size > 0, "page size must be positive");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.chain_path(id))?;
        // The header alone: the descriptor region is empty until a
        // descriptor sizes it (see `set_chain_descriptor`).
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(FILE_MAGIC);
        header[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
        header[12..16].copy_from_slice(&FORMAT.to_le_bytes());
        file.write_all(&header)?;
        self.chains
            .lock()
            .insert(id, ChainFile { file, page_size, len: 0, desc_cap: 0, desc_len: 0 });
        Ok(ChainId(id))
    }

    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        let mut chains = self.chains.lock();
        let c = chains.get_mut(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        if payload.len() > c.page_size {
            return Err(StorageError::PageTooLarge { got: payload.len(), page_size: c.page_size });
        }
        // The whole slot (padded payload + trailer) is written in one call so
        // a crash tears at most the final page — which the checksum catches
        // on the next read.
        let mut slot = vec![0u8; c.slot_len() as usize];
        slot[..payload.len()].copy_from_slice(payload);
        let crc = page_checksum(c.len, &slot[..c.page_size]);
        slot[c.page_size..c.page_size + 4].copy_from_slice(&crc.to_le_bytes());
        let offset = c.data_start() + c.len * c.slot_len();
        c.file.seek(SeekFrom::Start(offset))?;
        c.file.write_all(&slot)?;
        c.len += 1;
        Ok(c.len - 1)
    }

    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        let mut chains = self.chains.lock();
        let c = chains
            .get_mut(&key.chain.0)
            .ok_or(StorageError::UnknownChain(key.chain.0))?;
        if key.page_no >= c.len {
            return Err(StorageError::PageOutOfBounds { key, chain_len: c.len });
        }
        Self::read_slot(c, key)
    }

    fn read_pages(
        &self,
        chain: ChainId,
        first_page: u64,
        count: usize,
    ) -> Vec<StorageResult<Box<[u8]>>> {
        let mut chains = self.chains.lock();
        let Some(c) = chains.get_mut(&chain.0) else {
            return (0..count).map(|_| Err(StorageError::UnknownChain(chain.0))).collect();
        };
        let in_bounds = c.len.saturating_sub(first_page).min(count as u64) as usize;
        let mut out: Vec<StorageResult<Box<[u8]>>> = Vec::with_capacity(count);
        if in_bounds > 0 {
            // One positioned read covers the whole adjacent run; verification
            // stays per page so a rotted page fails only its own slot.
            let slot = c.slot_len() as usize;
            let mut buf = vec![0u8; slot * in_bounds];
            let ranged = c
                .file
                .seek(SeekFrom::Start(c.data_start() + first_page * c.slot_len()))
                .and_then(|_| c.file.read_exact(&mut buf));
            match ranged {
                Ok(()) => {
                    for i in 0..in_bounds {
                        let key = PageKey::new(chain, first_page + i as u64);
                        out.push(Self::verify_slot(c, key, buf[i * slot..(i + 1) * slot].to_vec()));
                    }
                }
                // The ranged read itself failed: retry page by page so every
                // slot gets its own typed error (or succeeds individually).
                Err(_) => {
                    for i in 0..in_bounds {
                        out.push(Self::read_slot(c, PageKey::new(chain, first_page + i as u64)));
                    }
                }
            }
        }
        for i in in_bounds..count {
            let key = PageKey::new(chain, first_page + i as u64);
            out.push(Err(StorageError::PageOutOfBounds { key, chain_len: c.len }));
        }
        out
    }

    fn chain_len(&self, chain: ChainId) -> StorageResult<u64> {
        let chains = self.chains.lock();
        let c = chains.get(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        Ok(c.len)
    }

    fn page_size(&self, chain: ChainId) -> StorageResult<usize> {
        let chains = self.chains.lock();
        let c = chains.get(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        Ok(c.page_size)
    }

    fn drop_chain(&self, chain: ChainId) -> StorageResult<()> {
        let removed = self.chains.lock().remove(&chain.0);
        if removed.is_none() {
            return Err(StorageError::UnknownChain(chain.0));
        }
        std::fs::remove_file(self.chain_path(chain.0))?;
        Ok(())
    }

    fn chains(&self) -> Vec<ChainId> {
        let mut v: Vec<ChainId> = self.chains.lock().keys().map(|&k| ChainId(k)).collect();
        v.sort_unstable();
        v
    }

    fn set_chain_descriptor(&self, chain: ChainId, desc: &[u8]) -> StorageResult<()> {
        let mut chains = self.chains.lock();
        let c = chains.get_mut(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        let len = u32::try_from(desc.len()).ok().filter(|&len| c.len == 0 || len <= c.desc_cap);
        let Some(len) = len else {
            return Err(StorageError::corrupt(format!(
                "chain descriptor of {} bytes exceeds the {}-byte capacity of a chain with pages",
                desc.len(),
                c.desc_cap
            )));
        };
        // Without pages the region is the descriptor: nothing lies behind it.
        let cap = if c.len == 0 {
            c.file.set_len(HEADER_LEN + u64::from(len))?;
            len
        } else {
            c.desc_cap
        };
        c.file.seek(SeekFrom::Start(HEADER_LEN))?;
        c.file.write_all(desc)?;
        c.file.seek(SeekFrom::Start(16))?;
        c.file.write_all(&cap.to_le_bytes())?;
        c.file.write_all(&len.to_le_bytes())?;
        (c.desc_cap, c.desc_len) = (cap, len);
        Ok(())
    }

    fn chain_descriptor(&self, chain: ChainId) -> StorageResult<Vec<u8>> {
        let mut chains = self.chains.lock();
        let c = chains.get_mut(&chain.0).ok_or(StorageError::UnknownChain(chain.0))?;
        if c.desc_len == 0 {
            return Ok(Vec::new());
        }
        let mut buf = vec![0u8; c.desc_len as usize];
        c.file.seek(SeekFrom::Start(HEADER_LEN))?;
        c.file.read_exact(&mut buf)?;
        Ok(buf)
    }
}

// ---------------------------------------------------------------------------
// Latency injection (cold storage)
// ---------------------------------------------------------------------------

/// A [`PageStore`] decorator that adds one latency to every physical read:
/// the experiments' model of cold storage — this machine's files sit in
/// the OS page cache, which would erase the paper's load-cost ≫
/// memory-access gap; both piecewise page loads *and* full-column loads
/// pay it, keeping the comparison fair.
pub struct LatencyStore<S> {
    inner: S,
    latency: Duration,
    sleeper: Sleeper,
}

impl<S: PageStore> LatencyStore<S> {
    /// Wraps `inner`, charging `latency` per physical read.
    pub fn new(inner: S, latency: Duration) -> Self {
        Self::with_sleeper(inner, latency, real_sleeper())
    }

    /// Like [`new`](Self::new) but spending delays through `sleeper` —
    /// tests inject a recording sleeper for deterministic latency checks.
    pub fn with_sleeper(inner: S, latency: Duration, sleeper: Sleeper) -> Self {
        LatencyStore { inner, latency, sleeper }
    }

    /// Spends the read latency once.
    fn delay(&self) {
        if !self.latency.is_zero() {
            (self.sleeper)(self.latency);
        }
    }
}

impl<S: PageStore> PageStore for LatencyStore<S> {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        self.inner.create_chain(page_size)
    }
    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        self.inner.append_page(chain, payload)
    }
    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        self.delay();
        self.inner.read_page(key)
    }
    fn read_pages(
        &self,
        chain: ChainId,
        first_page: u64,
        count: usize,
    ) -> Vec<StorageResult<Box<[u8]>>> {
        // One latency charge per physical read: adjacent pages ride the
        // same seek, which is exactly the economy coalescing is meant to
        // buy.
        if count > 0 {
            self.delay();
        }
        self.inner.read_pages(chain, first_page, count)
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

// ---------------------------------------------------------------------------
// Gated reads (deterministic concurrency testing)
// ---------------------------------------------------------------------------

struct GateState {
    open: bool,
    waiting: usize,
}

/// A [`PageStore`] decorator whose reads block at an explicit gate while it
/// is closed. This replaces "make the store slow and hope the race window
/// stays open" tests: close the gate, start the readers, *observe* that the
/// expected number of reads is parked via [`wait_for_waiters`], then open.
///
/// [`wait_for_waiters`]: GateStore::wait_for_waiters
pub struct GateStore<S> {
    inner: S,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl<S: PageStore> GateStore<S> {
    /// Wraps `inner` with an initially **open** gate.
    pub fn new(inner: S) -> Self {
        GateStore {
            inner,
            state: Mutex::new(GateState { open: true, waiting: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Closes the gate: subsequent reads park until [`open`](Self::open).
    pub fn close(&self) {
        self.state.lock().open = false;
    }

    /// Opens the gate, releasing every parked read.
    pub fn open(&self) {
        self.state.lock().open = true;
        self.cv.notify_all();
    }

    /// Number of reads currently parked at the gate.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// The wrapped store — lets tests compose decorators (e.g. a gate over
    /// a faulty store) and still reach the inner controls.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Blocks until at least `n` reads are parked at the gate.
    pub fn wait_for_waiters(&self, n: usize) {
        let mut st = self.state.lock();
        while st.waiting < n {
            self.cv.wait(&mut st);
        }
    }
}

impl<S: PageStore> PageStore for GateStore<S> {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        self.inner.create_chain(page_size)
    }
    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        self.inner.append_page(chain, payload)
    }
    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        {
            let mut st = self.state.lock();
            while !st.open {
                st.waiting += 1;
                self.cv.notify_all(); // wake wait_for_waiters observers
                self.cv.wait(&mut st);
                st.waiting -= 1;
            }
        }
        self.inner.read_page(key)
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

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// SplitMix64: the deterministic mixer behind [`FaultPlan::Seeded`].
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a mixed 64-bit value to a uniform float in `[0, 1)`.
fn unit_uniform(r: u64) -> f64 {
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// When the wrapped store should fail reads (and, for the write-capable
/// plans, appends).
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Never fail (pass-through).
    None,
    /// Fail every `n`-th read (1-based: `n == 1` fails every read).
    EveryNthRead(u64),
    /// Fail reads of specific pages.
    Pages(Vec<PageKey>),
    /// Fail all reads after the first `n` succeed.
    AfterReads(u64),
    /// A transient outage: reads `after+1 ..= after+count` fail, everything
    /// before and after succeeds — the shape a bounded retry must absorb.
    Transient {
        /// Reads that succeed before the outage starts.
        after: u64,
        /// Number of consecutive failing reads.
        count: u64,
    },
    /// Fail every `n`-th append (1-based), modeling write-path I/O errors.
    EveryNthWrite(u64),
    /// Reads of these pages return detectably corrupt payloads: one bit is
    /// flipped and the store reports the resulting
    /// [`ChecksumMismatch`](StorageError::ChecksumMismatch), the same way
    /// [`FileStore`] reports real bit rot. Permanent: every read of a listed
    /// page fails, so the pool's quarantine path is exercised.
    CorruptPages(Vec<PageKey>),
    /// The chaos harness's plan: every read/append decides independently and
    /// *deterministically* from `(seed, key, per-key attempt number)` whether
    /// to fail transiently, corrupt, or pass. Two stores driven with the
    /// same seed make identical decisions regardless of thread interleaving.
    Seeded {
        /// Deterministic RNG seed.
        seed: u64,
        /// Probability a read fails with a transient injected fault.
        p_read: f64,
        /// Probability a read reports a (permanent-looking) checksum
        /// mismatch. Note: seeded corruption is per *attempt*, so a retry may
        /// see clean bytes — use [`FaultPlan::CorruptPages`] for the
        /// sticky-corruption/quarantine path.
        p_corrupt: f64,
        /// Probability an append fails with an injected write fault.
        p_write: f64,
    },
}

enum ReadFault {
    Pass,
    Fail,
    /// Flip the bit chosen by the carried entropy, report the mismatch.
    Corrupt(u64),
}

/// A [`PageStore`] decorator that injects faults per a [`FaultPlan`].
pub struct FaultyStore<S> {
    inner: S,
    plan: Mutex<FaultPlan>,
    // lint: allow(raw-counter) fault-injection read clock, not a metric
    reads: AtomicU64,
    // lint: allow(raw-counter) fault-injection write clock, not a metric
    writes: AtomicU64,
    /// Per-key read-attempt numbers for [`FaultPlan::Seeded`], so fault
    /// decisions depend only on (seed, key, attempt) — never on cross-thread
    /// interleaving.
    seeded_attempts: Mutex<HashMap<PageKey, u64>>,
}

impl<S: PageStore> FaultyStore<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyStore {
            inner,
            plan: Mutex::new(plan),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            seeded_attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Replaces the fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Number of read attempts observed (including failed ones).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of append attempts observed (including failed ones).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    fn decide_read(&self, key: PageKey, n: u64) -> ReadFault {
        let plan = self.plan.lock().clone();
        match plan {
            FaultPlan::None | FaultPlan::EveryNthWrite(_) => ReadFault::Pass,
            FaultPlan::EveryNthRead(k) => {
                if k > 0 && n.is_multiple_of(k) {
                    ReadFault::Fail
                } else {
                    ReadFault::Pass
                }
            }
            FaultPlan::Pages(keys) => {
                if keys.contains(&key) {
                    ReadFault::Fail
                } else {
                    ReadFault::Pass
                }
            }
            FaultPlan::AfterReads(k) => {
                if n > k {
                    ReadFault::Fail
                } else {
                    ReadFault::Pass
                }
            }
            FaultPlan::Transient { after, count } => {
                if n > after && n <= after + count {
                    ReadFault::Fail
                } else {
                    ReadFault::Pass
                }
            }
            FaultPlan::CorruptPages(keys) => {
                if keys.contains(&key) {
                    // Deterministic per key so repeated reads observe the
                    // same corruption.
                    ReadFault::Corrupt(splitmix64(key.chain.0 ^ splitmix64(key.page_no)))
                } else {
                    ReadFault::Pass
                }
            }
            FaultPlan::Seeded { seed, p_read, p_corrupt, .. } => {
                let attempt = {
                    let mut attempts = self.seeded_attempts.lock();
                    let a = attempts.entry(key).or_insert(0);
                    *a += 1;
                    *a
                };
                let r = splitmix64(seed ^ splitmix64(key.chain.0 ^ splitmix64(key.page_no ^ splitmix64(attempt))));
                let u = unit_uniform(r);
                if u < p_read {
                    ReadFault::Fail
                } else if u < p_read + p_corrupt {
                    ReadFault::Corrupt(splitmix64(r))
                } else {
                    ReadFault::Pass
                }
            }
        }
    }
}

impl<S: PageStore> PageStore for FaultyStore<S> {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        self.inner.create_chain(page_size)
    }
    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        let w = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let fail = match &*self.plan.lock() {
            FaultPlan::EveryNthWrite(k) => *k > 0 && w.is_multiple_of(*k),
            FaultPlan::Seeded { seed, p_write, .. } => {
                *p_write > 0.0
                    && unit_uniform(splitmix64(seed ^ splitmix64(chain.0 ^ splitmix64(!w)))) < *p_write
            }
            _ => false,
        };
        if fail {
            return Err(StorageError::InjectedWriteFault(chain.0));
        }
        self.inner.append_page(chain, payload)
    }
    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        match self.decide_read(key, n) {
            ReadFault::Pass => self.inner.read_page(key),
            ReadFault::Fail => Err(StorageError::InjectedFault(key)),
            ReadFault::Corrupt(entropy) => {
                // Model detected bit rot: flip one bit of the real payload
                // and report it exactly as a checksummed store would — the
                // stored digest covers the clean bytes, the recomputed one
                // covers what "came off the platter".
                let page = self.inner.read_page(key)?;
                let stored = page_checksum(key.page_no, &page);
                let mut rotted = page.into_vec();
                let bits = (rotted.len() * 8).max(1);
                let bit = (entropy as usize) % bits;
                if !rotted.is_empty() {
                    rotted[bit / 8] ^= 1 << (bit % 8);
                }
                let computed = page_checksum(key.page_no, &rotted);
                Err(StorageError::ChecksumMismatch { key, stored, computed })
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_store(store: &dyn PageStore) {
        let c = store.create_chain(64).unwrap();
        assert_eq!(store.page_size(c).unwrap(), 64);
        assert_eq!(store.chain_len(c).unwrap(), 0);
        // Chain descriptors: empty until set, set before the first page.
        assert!(store.chain_descriptor(c).unwrap().is_empty());
        store.set_chain_descriptor(c, b"codec v1").unwrap();
        assert_eq!(store.chain_descriptor(c).unwrap(), b"codec v1");
        let p0 = store.append_page(c, b"hello").unwrap();
        let p1 = store.append_page(c, &[0xAB; 64]).unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(store.chain_len(c).unwrap(), 2);
        let page = store.read_page(PageKey::new(c, 0)).unwrap();
        assert_eq!(&page[..5], b"hello");
        assert!(page[5..].iter().all(|&b| b == 0), "padded with zeros");
        let page = store.read_page(PageKey::new(c, 1)).unwrap();
        assert!(page.iter().all(|&b| b == 0xAB));
        // Replaceable with pages appended, by one that fits.
        store.set_chain_descriptor(c, b"v2").unwrap();
        assert_eq!(store.chain_descriptor(c).unwrap(), b"v2");
        assert_eq!(&store.read_page(PageKey::new(c, 0)).unwrap()[..5], b"hello");
        // Bounds and size violations.
        assert!(matches!(
            store.read_page(PageKey::new(c, 2)),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert!(matches!(
            store.append_page(c, &[0; 65]),
            Err(StorageError::PageTooLarge { .. })
        ));
        store.drop_chain(c).unwrap();
        assert!(matches!(store.chain_len(c), Err(StorageError::UnknownChain(_))));
        assert!(matches!(store.chain_descriptor(c), Err(StorageError::UnknownChain(_))));
    }

    #[test]
    fn mem_store_basics() {
        exercise_store(&MemStore::new());
    }

    #[test]
    fn file_store_basics() {
        let dir = std::env::temp_dir().join(format!("payg-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise_store(&FileStore::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_reopens_chains() {
        let dir = std::env::temp_dir().join(format!("payg-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (c1, c2);
        {
            let store = FileStore::open(&dir).unwrap();
            c1 = store.create_chain(32).unwrap();
            c2 = store.create_chain(128).unwrap();
            store.append_page(c1, b"one").unwrap();
            store.append_page(c1, b"two").unwrap();
            store.append_page(c2, b"big page").unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.chains(), vec![c1, c2]);
        assert_eq!(store.chain_len(c1).unwrap(), 2);
        assert_eq!(store.page_size(c2).unwrap(), 128);
        assert_eq!(&store.read_page(PageKey::new(c1, 1)).unwrap()[..3], b"two");
        // New chains after reopen don't collide with recovered ids.
        let c3 = store.create_chain(32).unwrap();
        assert!(c3.0 > c2.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Descriptors persist in the chain file's header region: a chain
    /// without pages sizes the region to its descriptor (and a chain that
    /// never gets one reserves none), a replacement after pages exist must
    /// fit, and no write disturbs the page slots behind the region.
    #[test]
    fn file_store_chain_descriptors_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("payg-desc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let slot = 32 + PAGE_TRAILER_LEN as u64;
        let (c, bare);
        {
            let store = FileStore::open(&dir).unwrap();
            c = store.create_chain(32).unwrap();
            // Sized, resized while the chain is empty, then a page behind it.
            store.set_chain_descriptor(c, b"a longer first draft").unwrap();
            store.set_chain_descriptor(c, b"fsst table bytes").unwrap();
            store.append_page(c, b"page zero").unwrap();
            assert_eq!(store.chain_layout(c).unwrap(), (HEADER_LEN + 16, slot));
            // Shrunk in place; a descriptor past the region is refused,
            // leaving the old one intact.
            store.set_chain_descriptor(c, b"pef").unwrap();
            assert!(matches!(
                store.set_chain_descriptor(c, &[0u8; 17]),
                Err(StorageError::Corrupt(d)) if d.contains("exceeds the 16-byte capacity")
            ));
            store.append_page(c, b"page one").unwrap();
            bare = store.create_chain(32).unwrap();
            store.append_page(bare, b"no descriptor").unwrap();
        }
        let len =
            |chain: ChainId| std::fs::metadata(dir.join(format!("chain_{:016x}.pg", chain.0)));
        assert_eq!(len(c).unwrap().len(), HEADER_LEN + 16 + 2 * slot);
        assert_eq!(len(bare).unwrap().len(), HEADER_LEN + slot);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.chain_descriptor(c).unwrap(), b"pef");
        assert_eq!(&store.read_page(PageKey::new(c, 0)).unwrap()[..9], b"page zero");
        assert_eq!(&store.read_page(PageKey::new(c, 1)).unwrap()[..8], b"page one");
        assert!(store.chain_descriptor(bare).unwrap().is_empty());
        assert_eq!(&store.read_page(PageKey::new(bare, 0)).unwrap()[..13], b"no descriptor");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A chain file that reserved a fixed 4 096-byte descriptor region —
    /// what every chain file carried before regions were sized to their
    /// descriptor — opens, reads and takes a replacement descriptor that
    /// fits its region, all behind the same format number.
    #[test]
    fn file_store_reads_chain_files_with_a_reserved_descriptor_region() {
        let dir = std::env::temp_dir().join(format!("payg-desc-reserved-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        const RESERVED: u32 = 4096;
        let page = b"a page behind a reserved region";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(FILE_MAGIC);
        bytes.extend_from_slice(&32u32.to_le_bytes());
        bytes.extend_from_slice(&FORMAT.to_le_bytes());
        bytes.extend_from_slice(&RESERVED.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        let mut region = vec![0u8; RESERVED as usize];
        region[..3].copy_from_slice(b"pef");
        bytes.extend_from_slice(&region);
        let mut slot = vec![0u8; 32 + PAGE_TRAILER_LEN];
        slot[..page.len()].copy_from_slice(page);
        let crc = page_checksum(0, &slot[..32]);
        slot[32..36].copy_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&slot);
        std::fs::write(dir.join("chain_0000000000000007.pg"), &bytes).unwrap();

        let store = FileStore::open(&dir).unwrap();
        let c = ChainId(7);
        assert_eq!(store.chain_layout(c).unwrap().0, HEADER_LEN + u64::from(RESERVED));
        assert_eq!(store.chain_descriptor(c).unwrap(), b"pef");
        assert_eq!(&store.read_page(PageKey::new(c, 0)).unwrap()[..page.len()], page);
        store.set_chain_descriptor(c, &[7u8; 2_000]).unwrap();
        store.append_page(c, b"second").unwrap();
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.chain_descriptor(c).unwrap(), vec![7u8; 2_000]);
        assert_eq!(&store.read_page(PageKey::new(c, 0)).unwrap()[..page.len()], page);
        assert_eq!(&store.read_page(PageKey::new(c, 1)).unwrap()[..6], b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_store_injects_per_plan() {
        let store = FaultyStore::new(MemStore::new(), FaultPlan::None);
        let c = store.create_chain(16).unwrap();
        store.append_page(c, b"x").unwrap();
        let key = PageKey::new(c, 0);
        assert!(store.read_page(key).is_ok());
        store.set_plan(FaultPlan::EveryNthRead(2));
        assert!(store.read_page(key).is_err()); // read #2
        assert!(store.read_page(key).is_ok()); // read #3
        store.set_plan(FaultPlan::Pages(vec![key]));
        assert!(matches!(store.read_page(key), Err(StorageError::InjectedFault(k)) if k == key));
        store.set_plan(FaultPlan::AfterReads(5));
        assert!(store.read_page(key).is_ok()); // read #5
        assert!(store.read_page(key).is_err()); // read #6
        assert_eq!(store.reads(), 6);
    }

    #[test]
    fn file_store_rejects_corrupt_header() {
        let dir = std::env::temp_dir().join(format!("payg-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chain_0000000000000001.pg"), b"NOTMAGIC00000000").unwrap();
        assert!(matches!(FileStore::open(&dir), Err(StorageError::CorruptFile { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every `FileStore::open` validation failure uses the same error shape:
    /// the full file path plus the byte offset of the offending field.
    #[test]
    fn file_store_open_errors_name_path_and_offset() {
        let dir = std::env::temp_dir().join(format!("payg-open-errs-{}", std::process::id()));
        let name = "chain_0000000000000001.pg";
        let expect = |bytes: &[u8], offset: u64, needle: &str| {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(name), bytes).unwrap();
            match FileStore::open(&dir).map(|_| ()) {
                Err(StorageError::CorruptFile { path, offset: got, detail }) => {
                    assert!(path.ends_with(name), "path {path:?} should name the file");
                    assert!(
                        path.starts_with(&dir),
                        "path {path:?} should be the full path, not just the name"
                    );
                    assert_eq!(got, offset, "wrong offset for detail {detail:?}");
                    assert!(detail.contains(needle), "detail {detail:?} missing {needle:?}");
                }
                other => panic!("expected CorruptFile, got {other:?}"),
            }
        };

        let mut good = Vec::new();
        good.extend_from_slice(FILE_MAGIC);
        good.extend_from_slice(&32u32.to_le_bytes());
        good.extend_from_slice(&FORMAT.to_le_bytes());

        expect(b"PAYG", 0, "shorter than"); // truncated header
        expect(b"NOTMAGIC00000000", 0, "bad magic");
        let mut zero_ps = good.clone();
        zero_ps[8..12].copy_from_slice(&0u32.to_le_bytes());
        expect(&zero_ps, 8, "zero page size");
        let mut bad_fmt = good.clone();
        bad_fmt[12..16].copy_from_slice(&9u32.to_le_bytes());
        expect(&bad_fmt, 12, "is format 9, this build reads only format 2");

        expect(&good, 16, "shorter than"); // missing desc_cap/desc_len
        let mut bad_desc_len = good.clone();
        bad_desc_len.extend_from_slice(&8u32.to_le_bytes()); // desc_cap = 8
        bad_desc_len.extend_from_slice(&9u32.to_le_bytes()); // desc_len = 9 > cap
        expect(&bad_desc_len, 20, "exceeds");
        let mut overrun = good.clone();
        overrun.extend_from_slice(&64u32.to_le_bytes()); // desc_cap = 64...
        overrun.extend_from_slice(&0u32.to_le_bytes()); // ...but the file ends at 24
        expect(&overrun, 16, "overruns");
        let mut torn2 = good.clone();
        torn2.extend_from_slice(&8u32.to_le_bytes());
        torn2.extend_from_slice(&0u32.to_le_bytes());
        torn2.extend_from_slice(&[0u8; 8 + 17]); // desc region + a torn slot
        expect(&torn2, HEADER_LEN + 8, "not a multiple");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any payload bit on disk surfaces as a typed
    /// `ChecksumMismatch` naming the page, not as silent bad data.
    #[test]
    fn file_store_detects_bit_rot() {
        let dir = std::env::temp_dir().join(format!("payg-bitrot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        let c = store.create_chain(32).unwrap();
        store.append_page(c, b"healthy page zero").unwrap();
        store.append_page(c, b"healthy page one").unwrap();
        let key = PageKey::new(c, 1);
        assert!(store.read_page(key).is_ok());

        // Rot one byte of page 1's payload behind the store's back.
        let path = store.chain_path(c.0);
        let mut bytes = std::fs::read(&path).unwrap();
        let slot = 32 + PAGE_TRAILER_LEN;
        let data_start = store.chain_layout(c).unwrap().0 as usize;
        bytes[data_start + slot + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        match store.read_page(key) {
            Err(StorageError::ChecksumMismatch { key: k, stored, computed }) => {
                assert_eq!(k, key);
                assert_ne!(stored, computed);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // The sibling page is untouched and still verifies.
        assert!(store.read_page(PageKey::new(c, 0)).is_ok());
        // Reopening also still verifies (checksums live per page, on disk).
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        assert!(matches!(
            store.read_page(key),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Chain files of the retired formats — 0 (raw slots) and 1 (checksummed,
    /// no descriptor region) — are refused at open with the format found and
    /// the one this build reads: no header field can switch CRC verification
    /// off, so their bytes are never served.
    #[test]
    fn file_store_refuses_foreign_format_files() {
        let dir = std::env::temp_dir().join(format!("payg-foreign-{}", std::process::id()));
        for format in [0u32, 1] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(FILE_MAGIC);
            bytes.extend_from_slice(&16u32.to_le_bytes());
            bytes.extend_from_slice(&format.to_le_bytes());
            bytes.extend_from_slice(&[0x5a; 24]); // one well-formed slot of either format
            let path = dir.join("chain_0000000000000005.pg");
            std::fs::write(&path, &bytes).unwrap();
            match FileStore::open(&dir).map(|_| ()) {
                Err(StorageError::CorruptFile { path: got, offset: 12, detail }) => {
                    assert_eq!(got, path);
                    assert!(detail.contains(&format!("is format {format}")), "{detail}");
                    assert!(detail.contains("reads only format 2"), "{detail}");
                }
                other => panic!("format {format}: expected CorruptFile at offset 12, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_pages_default_loops_and_keeps_per_page_metering() {
        // The trait default must behave exactly like N read_page calls —
        // including the fault-injection read clock advancing once per page.
        let store = FaultyStore::new(MemStore::new(), FaultPlan::None);
        let c = store.create_chain(16).unwrap();
        for i in 0..4u8 {
            store.append_page(c, &[i; 16]).unwrap();
        }
        let results = store.read_pages(c, 0, 4);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap()[0], i as u8);
        }
        assert_eq!(store.reads(), 4, "one metered read per page");
        // Per-page faults land on their own slot only.
        store.set_plan(FaultPlan::Pages(vec![PageKey::new(c, 2)]));
        let results = store.read_pages(c, 0, 4);
        assert!(results[0].is_ok() && results[1].is_ok() && results[3].is_ok());
        assert!(matches!(
            results[2],
            Err(StorageError::InjectedFault(k)) if k == PageKey::new(c, 2)
        ));
    }

    #[test]
    fn file_store_read_pages_verifies_each_page_of_one_ranged_read() {
        let dir = std::env::temp_dir().join(format!("payg-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        let c = store.create_chain(32).unwrap();
        for i in 0..5u8 {
            store.append_page(c, &[i; 32]).unwrap();
        }
        // Rot one byte of page 2 behind the store's back: the batch must
        // fail exactly that slot and still return its neighbors.
        let path = store.chain_path(c.0);
        let mut bytes = std::fs::read(&path).unwrap();
        let slot = 32 + PAGE_TRAILER_LEN;
        let data_start = store.chain_layout(c).unwrap().0 as usize;
        bytes[data_start + 2 * slot + 7] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let results = store.read_pages(c, 0, 7);
        assert_eq!(results.len(), 7);
        for (i, r) in results.iter().enumerate().take(5) {
            if i == 2 {
                assert!(matches!(
                    r,
                    Err(StorageError::ChecksumMismatch { key, .. }) if *key == PageKey::new(c, 2)
                ));
            } else {
                assert_eq!(r.as_ref().unwrap()[0], i as u8, "page {i} rides the batch intact");
            }
        }
        // The out-of-bounds tail gets per-page typed errors, each naming its
        // own page.
        for (i, r) in results.iter().enumerate().skip(5) {
            assert!(matches!(
                r,
                Err(StorageError::PageOutOfBounds { key, chain_len: 5 })
                    if *key == PageKey::new(c, i as u64)
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_store_charges_one_delay_per_batch() {
        let slept: Arc<std::sync::Mutex<Vec<Duration>>> = Arc::default();
        let recorder: Sleeper = {
            let slept = Arc::clone(&slept);
            Arc::new(move |d| slept.lock().unwrap().push(d))
        };
        let d = Duration::from_micros(150);
        let store = LatencyStore::with_sleeper(MemStore::new(), d, recorder);
        let c = store.create_chain(16).unwrap();
        for i in 0..6u8 {
            store.append_page(c, &[i; 16]).unwrap();
        }
        let results = store.read_pages(c, 1, 4);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(
            *slept.lock().unwrap(),
            vec![Duration::from_micros(150)],
            "the whole batch rides one seek"
        );
    }

    #[test]
    fn faulty_store_transient_window_heals() {
        let store = FaultyStore::new(MemStore::new(), FaultPlan::Transient { after: 2, count: 3 });
        let c = store.create_chain(16).unwrap();
        store.append_page(c, b"x").unwrap();
        let key = PageKey::new(c, 0);
        assert!(store.read_page(key).is_ok()); // read #1
        assert!(store.read_page(key).is_ok()); // read #2
        for i in 0..3 {
            let e = store.read_page(key).expect_err("outage read should fail");
            assert!(e.is_transient(), "outage read #{i} should classify transient");
        }
        assert!(store.read_page(key).is_ok(), "outage over, reads heal");
    }

    #[test]
    fn faulty_store_injects_write_faults() {
        let store = FaultyStore::new(MemStore::new(), FaultPlan::EveryNthWrite(2));
        let c = store.create_chain(16).unwrap();
        assert!(store.append_page(c, b"a").is_ok()); // write #1
        assert!(matches!(
            store.append_page(c, b"b"),
            Err(StorageError::InjectedWriteFault(id)) if id == c.0
        ));
        assert!(store.append_page(c, b"c").is_ok()); // write #3
        assert_eq!(store.writes(), 3);
        assert_eq!(store.chain_len(c).unwrap(), 2, "failed append left no page behind");
    }

    #[test]
    fn faulty_store_corrupt_pages_report_sticky_checksum_mismatch() {
        let store = FaultyStore::new(MemStore::new(), FaultPlan::None);
        let c = store.create_chain(16).unwrap();
        store.append_page(c, b"doomed").unwrap();
        store.append_page(c, b"fine").unwrap();
        let bad = PageKey::new(c, 0);
        store.set_plan(FaultPlan::CorruptPages(vec![bad]));
        let (s1, c1) = match store.read_page(bad) {
            Err(StorageError::ChecksumMismatch { stored, computed, .. }) => (stored, computed),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        };
        assert_ne!(s1, c1);
        // Sticky and deterministic: the same corruption on every read.
        let (s2, c2) = match store.read_page(bad) {
            Err(StorageError::ChecksumMismatch { stored, computed, .. }) => (stored, computed),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        };
        assert_eq!((s1, c1), (s2, c2));
        assert!(store.read_page(PageKey::new(c, 1)).is_ok(), "unlisted pages pass");
    }

    #[test]
    fn faulty_store_seeded_is_deterministic_and_plausible() {
        let build = |seed| {
            let store = FaultyStore::new(
                MemStore::new(),
                FaultPlan::Seeded { seed, p_read: 0.3, p_corrupt: 0.1, p_write: 0.0 },
            );
            let c = store.create_chain(16).unwrap();
            for i in 0..4u8 {
                store.append_page(c, &[i; 4]).unwrap();
            }
            (store, c)
        };
        let (a, ca) = build(42);
        let (b, cb) = build(42);
        let mut outcomes = Vec::new();
        for round in 0..8 {
            for p in 0..4 {
                let ra = a.read_page(PageKey::new(ca, p));
                let rb = b.read_page(PageKey::new(cb, p));
                // Same seed, same key, same attempt → same decision.
                match (&ra, &rb) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y),
                    (Err(StorageError::InjectedFault(_)), Err(StorageError::InjectedFault(_)))
                    | (
                        Err(StorageError::ChecksumMismatch { .. }),
                        Err(StorageError::ChecksumMismatch { .. }),
                    ) => {}
                    other => panic!("seed-divergent outcomes at round {round}: {other:?}"),
                }
                outcomes.push(match ra {
                    Ok(_) => 0u8,
                    Err(StorageError::InjectedFault(_)) => 1,
                    Err(e) => {
                        assert!(matches!(e, StorageError::ChecksumMismatch { .. }));
                        2
                    }
                });
            }
        }
        // With p_read=0.3 over 32 attempts all three outcomes should appear.
        assert!(outcomes.contains(&0), "no successful reads at all");
        assert!(outcomes.contains(&1), "no transient faults drawn");
        // A different seed draws a different schedule.
        let (d, cd) = build(43);
        let diverged = (0..8).any(|round| {
            (0..4).any(|p| {
                let rd = d.read_page(PageKey::new(cd, p)).is_ok();
                rd != (outcomes[round * 4 + p as usize] == 0)
            })
        });
        assert!(diverged, "seed 43 replayed seed 42's schedule exactly");
    }
}

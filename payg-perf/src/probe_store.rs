//! `ProbeStore`: the store layer measured in situ.
//!
//! A delegating [`PageStore`] over the real `FileStore` that counts, sizes
//! and times every call, charges a fixed latency per *physical read call*
//! (the sandbox serves file reads from the OS cache, so without it the cold
//! path would cost nothing; the latency models the device, the numbers are
//! the sandbox's), and tracks re-reads — pages fetched again after having
//! been read once, i.e. work an ideal cache would not repeat.

use crate::api::{ChainId, FileStore, PageKey, PageStore, StorageResult};
use crate::trace::{thread_no, Clock, Span};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cumulative call counters; subtract two snapshots to meter a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `read_page` / `read_pages` calls (one physical read each).
    pub read_calls: u64,
    /// Pages returned by those calls.
    pub pages_read: u64,
    /// Payload bytes returned.
    pub bytes_read: u64,
    /// Time spent inside read calls, injected latency included.
    pub read_ns: u64,
    /// Pages read that had been read before since the store was opened.
    pub rereads: u64,
    /// `append_page` calls.
    pub append_calls: u64,
    /// Page-size bytes written by appends.
    pub bytes_written: u64,
    /// Time spent inside append calls.
    pub append_ns: u64,
}

impl StoreCounters {
    /// Field-wise `self - earlier`.
    pub fn delta(&self, e: &StoreCounters) -> StoreCounters {
        StoreCounters {
            read_calls: self.read_calls - e.read_calls,
            pages_read: self.pages_read - e.pages_read,
            bytes_read: self.bytes_read - e.bytes_read,
            read_ns: self.read_ns - e.read_ns,
            rereads: self.rereads - e.rereads,
            append_calls: self.append_calls - e.append_calls,
            bytes_written: self.bytes_written - e.bytes_written,
            append_ns: self.append_ns - e.append_ns,
        }
    }
}

#[derive(Default)]
struct State {
    counters: StoreCounters,
    seen: HashSet<(u64, u64)>,
    read_samples_ns: Vec<u64>,
    append_samples_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// The metering decorator. Thread-safe: the pool's I/O-stage workers call it
/// concurrently with the client thread.
pub struct ProbeStore {
    inner: FileStore,
    read_latency: Duration,
    clock: Clock,
    spans_on: AtomicBool,
    state: Mutex<State>,
}

impl ProbeStore {
    /// Wraps `inner`, charging `read_latency` per physical read call. Span
    /// timestamps are taken on `clock`, shared with the client-side spans.
    pub fn new(inner: FileStore, read_latency: Duration, clock: Clock) -> Self {
        ProbeStore {
            inner,
            read_latency,
            clock,
            spans_on: AtomicBool::new(false),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // Counters stay valid at every step, so a poisoned lock is usable.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cumulative counters.
    pub fn counters(&self) -> StoreCounters {
        self.state().counters
    }

    /// Turns `store.read` / `store.append` span recording on or off.
    pub fn set_spans(&self, on: bool) {
        self.spans_on.store(on, Ordering::Relaxed);
    }

    /// Drains the recorded spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.state().spans)
    }

    /// Drains the per-call read and append durations (ns).
    pub fn take_samples(&self) -> (Vec<u64>, Vec<u64>) {
        let mut st = self.state();
        (
            std::mem::take(&mut st.read_samples_ns),
            std::mem::take(&mut st.append_samples_ns),
        )
    }

    fn span(&self, st: &mut State, name: &'static str, started: Instant, ended: Instant) {
        if self.spans_on.load(Ordering::Relaxed) {
            st.spans.push(Span {
                id: 0,
                parent: 0,
                op: 0,
                name,
                thread: thread_no(),
                start_ns: self.clock.ns(started),
                end_ns: self.clock.ns(ended),
            });
        }
    }

    fn note_read<'a>(
        &self,
        chain: ChainId,
        first_page: u64,
        pages: impl Iterator<Item = &'a StorageResult<Box<[u8]>>>,
        started: Instant,
    ) {
        let ended = Instant::now();
        let ns = (ended - started).as_nanos() as u64;
        let mut st = self.state();
        st.counters.read_calls += 1;
        st.counters.read_ns += ns;
        st.read_samples_ns.push(ns);
        for (i, page) in pages.enumerate() {
            if let Ok(bytes) = page {
                st.counters.pages_read += 1;
                st.counters.bytes_read += bytes.len() as u64;
                if !st.seen.insert((chain.0, first_page + i as u64)) {
                    st.counters.rereads += 1;
                }
            }
        }
        self.span(&mut st, "store.read", started, ended);
    }

    /// Waits until `read_latency` after `started`. A bare sleep overshoots
    /// by the sandbox's timer slack (tens of µs, and load-dependent), which
    /// would be measured as store time: sleep for a third, spin to the mark.
    /// (Spinning all the way measured worse — interleaved runs read
    /// `op_p50_us` 5.2–5.7 ms spun against 4.6–4.75 ms this way — presumably
    /// because the host preempts a vCPU that never sleeps for its neighbours.)
    fn charge_latency(&self, started: Instant) {
        if self.read_latency.is_zero() {
            return;
        }
        std::thread::sleep(self.read_latency / 3);
        while started.elapsed() < self.read_latency {
            std::hint::spin_loop();
        }
    }
}

impl PageStore for ProbeStore {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        self.inner.create_chain(page_size)
    }

    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        let started = Instant::now();
        let res = self.inner.append_page(chain, payload);
        let ended = Instant::now();
        let ns = (ended - started).as_nanos() as u64;
        let page_size = self.inner.page_size(chain).unwrap_or(payload.len());
        let mut st = self.state();
        st.counters.append_calls += 1;
        st.counters.bytes_written += page_size as u64;
        st.counters.append_ns += ns;
        st.append_samples_ns.push(ns);
        self.span(&mut st, "store.append", started, ended);
        res
    }

    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        let started = Instant::now();
        self.charge_latency(started);
        let res = self.inner.read_page(key);
        self.note_read(key.chain, key.page_no, std::iter::once(&res), started);
        res
    }

    fn read_pages(
        &self,
        chain: ChainId,
        first_page: u64,
        count: usize,
    ) -> Vec<StorageResult<Box<[u8]>>> {
        let started = Instant::now();
        self.charge_latency(started);
        let res = self.inner.read_pages(chain, first_page, count);
        self.note_read(chain, first_page, res.iter(), started);
        res
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

//! Page-lifecycle event tracing into per-thread bounded ring buffers.
//!
//! A [`Tracer`] is off by default: [`Tracer::emit`] is then a single
//! relaxed `AtomicBool` load and an immediate return, cheap enough to
//! leave in every pool hot path. When enabled, each event takes a global
//! sequence number (one relaxed `fetch_add`) and is appended to the
//! calling thread's private ring buffer — no cross-thread contention on
//! the emit path beyond the two atomics. Rings are bounded
//! ([`TRACE_RING_CAPACITY`] events): when full, the oldest event is
//! overwritten and a drop counter advances, so tracing can stay on
//! indefinitely without growing memory.
//!
//! [`Tracer::drain`] collects every thread's events, sorts them by
//! sequence number, and empties the rings — giving the *exact* global
//! order in which loads, pins, and evictions happened (the sequence is
//! taken while the event happens, not when it is flushed).
//!
//! Two parties turn a tracer on, and it collects while either does: the
//! user flag ([`Tracer::enable`] / [`Tracer::disable`]), whose owner drains
//! everything, and any number of [`Recording`]s ([`Tracer::record`]), each
//! of which takes out only its own span tree ([`Tracer::take_tree`]) and
//! leaves the rest where it is. When the last recording ends with the user
//! flag off, what was collected meanwhile is discarded: nobody asked for it.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::span::{self, SpanRecord, SPAN_STORE_CAPACITY};

/// Events a ring buffer holds before overwriting the oldest.
pub const TRACE_RING_CAPACITY: usize = 65_536;

/// What happened to a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A page's bytes were read from the store into a pool frame.
    PageLoaded,
    /// A pool `pin()` handed out a guard for the page.
    PagePinned,
    /// The resource manager evicted the page's frame from the pool.
    PageEvicted,
    /// A `pin()` blocked behind another thread's in-flight load.
    SingleFlightWait,
    /// The proactive sweeper completed a pass (`page_no` carries the
    /// victim count, `bytes` the bytes reclaimed; `chain` is 0).
    ProactiveSweep,
    /// A fetch request entered the cold-path I/O stage's submission queue.
    IoSubmitted,
    /// An I/O-stage worker issued one physical read (`page_no` is the first
    /// page of the coalesced run, `bytes` the number of pages it covers).
    IoBatchIssued,
    /// The I/O stage completed one fetch request (`bytes` is the page size
    /// on success, 0 on failure).
    IoCompleted,
    /// A load attempt was re-issued after a transient store fault: one
    /// solo re-read of the page by the I/O stage follows (`aux` is the id
    /// of the batch whose slot failed).
    LoadRetried,
    /// A page entered per-shard quarantine after a permanent load failure.
    PageQuarantined,
    /// A paged data-vector `search` or `count` evaluated its predicate over
    /// the chain (`page_no` carries the pages pruned by their summaries,
    /// `bytes` the 64-value chunks scanned, `aux` the matches).
    DataScan,
}

/// One traced page-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEvent {
    /// What happened.
    pub kind: EventKind,
    /// Chain (column) the page belongs to.
    pub chain: u64,
    /// Logical page number within the chain.
    pub page_no: u64,
    /// Byte size involved (page bytes for load/evict, 0 where unknown).
    pub bytes: u64,
    /// Global sequence number: a total order across all threads.
    pub seq: u64,
    /// Nanoseconds since the tracer was created (monotonic clock).
    pub ts_ns: u64,
    /// Id of the span this event happened under (0 = none): the calling
    /// thread's current span for plain emits, the originating request's
    /// span for tagged emits from I/O worker threads.
    pub span: u64,
    /// Kind-specific extra id (0 = none): the I/O batch id on
    /// `IoBatchIssued`/`IoCompleted`, linking every beneficiary request
    /// of a coalesced read back to the one physical read that served it.
    pub aux: u64,
}

struct Ring {
    buf: VecDeque<PageEvent>,
    dropped: u64,
}

struct ThreadRing {
    data: Mutex<Ring>,
}

struct SpanStore {
    recs: Vec<SpanRecord>,
}

/// Who has the tracer on (see the module docs).
struct Wants {
    /// The user flag.
    user: bool,
    /// Live [`Recording`]s.
    recordings: usize,
    /// The first sequence number collected for recordings alone (the user
    /// flag off): what the last recording discards when it ends.
    since: u64,
}

struct TracerInner {
    /// Unique across all tracers in the process: keys the thread-local
    /// ring lookup so a thread emitting into two tracers (or a recreated
    /// tracer at a reused address) never mixes rings.
    id: u64,
    /// `user || recordings > 0` of [`Wants`], kept in step under its lock:
    /// the one relaxed load of the emit check.
    enabled: AtomicBool,
    wants: Mutex<Wants>,
    seq: AtomicU64,
    origin: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    /// Closed spans, kept apart from the event rings so parent links
    /// survive ring overflow (see [`crate::span`]).
    spans: Mutex<SpanStore>,
}

thread_local! {
    /// This thread's rings, keyed by tracer id. Tiny (one entry per live
    /// tracer this thread has emitted into while enabled).
    static LOCAL_RINGS: RefCell<Vec<(u64, Arc<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

fn next_tracer_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    NEXT.get_or_init(|| AtomicU64::new(0)).fetch_add(1, Ordering::Relaxed)
}

/// A page-lifecycle event tracer. Cloning is cheap; clones share state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A new, disabled tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(TRACE_RING_CAPACITY)
    }

    /// A new, disabled tracer whose per-thread rings hold `capacity`
    /// events (older events are overwritten beyond that).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                id: next_tracer_id(),
                enabled: AtomicBool::new(false),
                wants: Mutex::new(Wants { user: false, recordings: 0, since: 0 }),
                seq: AtomicU64::new(0),
                origin: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(Vec::new()),
                spans: Mutex::new(SpanStore { recs: Vec::new() }),
            }),
        }
    }

    /// Sets the user flag: events are collected until [`Tracer::disable`].
    pub fn enable(&self) {
        let mut wants = self.wants();
        wants.user = true;
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Clears the user flag (already-buffered events stay drainable). Live
    /// recordings keep the tracer collecting; what it collects from here on
    /// is theirs alone.
    pub fn disable(&self) {
        let mut wants = self.wants();
        wants.user = false;
        if wants.recordings > 0 {
            wants.since = self.inner.seq.load(Ordering::Relaxed);
        }
        self.inner.enabled.store(wants.recordings > 0, Ordering::Release);
    }

    /// Starts a recording: the tracer collects until the returned guard
    /// drops, whatever the user flag does meanwhile. The recorder takes out
    /// what it wants with [`Tracer::take_tree`]; [`Recording`] says what
    /// happens to the rest.
    pub fn record(&self) -> Recording {
        let mut wants = self.wants();
        if !wants.user && wants.recordings == 0 {
            wants.since = self.inner.seq.load(Ordering::Relaxed);
        }
        wants.recordings += 1;
        self.inner.enabled.store(true, Ordering::Release);
        Recording { tracer: self.clone() }
    }

    fn wants(&self) -> MutexGuard<'_, Wants> {
        self.inner.wants.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether events are being collected (the user flag is set or a
    /// recording is live).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Records an event tagged with the calling thread's current span.
    /// When the tracer is disabled — the default — this is one relaxed
    /// load and a branch.
    #[inline]
    pub fn emit(&self, kind: EventKind, chain: u64, page_no: u64, bytes: u64) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(kind, chain, page_no, bytes, span::current_for(self.inner.id), 0);
    }

    /// Records an event with an explicit span id and aux id — for threads
    /// doing work *on behalf of* a span opened elsewhere (I/O workers
    /// completing a scan worker's fetch), where the thread-local current
    /// span would be wrong. Same disabled cost as [`Tracer::emit`].
    #[inline]
    pub fn emit_tagged(
        &self,
        kind: EventKind,
        chain: u64,
        page_no: u64,
        bytes: u64,
        span: u64,
        aux: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(kind, chain, page_no, bytes, span, aux);
    }

    #[cold]
    fn emit_slow(&self, kind: EventKind, chain: u64, page_no: u64, bytes: u64, span: u64, aux: u64) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts_ns = self.inner.origin.elapsed().as_nanos() as u64;
        let ev = PageEvent { kind, chain, page_no, bytes, seq, ts_ns, span, aux };
        let ring = self.thread_ring();
        let mut data = ring.data.lock().unwrap_or_else(|e| e.into_inner());
        if data.buf.len() >= self.inner.capacity {
            data.buf.pop_front();
            data.dropped += 1;
        }
        data.buf.push_back(ev);
    }

    /// This thread's ring for this tracer, registering one on first use.
    fn thread_ring(&self) -> Arc<ThreadRing> {
        LOCAL_RINGS.with(|local| {
            let mut local = local.borrow_mut();
            if let Some((_, ring)) = local.iter().find(|(id, _)| *id == self.inner.id) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(ThreadRing {
                data: Mutex::new(Ring { buf: VecDeque::new(), dropped: 0 }),
            });
            self.inner
                .rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            local.push((self.inner.id, Arc::clone(&ring)));
            ring
        })
    }

    /// Empties every thread's ring and returns the events sorted by
    /// sequence number (the exact global order of occurrence).
    pub fn drain(&self) -> Vec<PageEvent> {
        let rings = self.inner.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for ring in rings.iter() {
            let mut data = ring.data.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(data.buf.drain(..));
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Total events overwritten because a ring was full.
    pub fn dropped(&self) -> u64 {
        let rings = self.inner.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings
            .iter()
            .map(|r| r.data.lock().unwrap_or_else(|e| e.into_inner()).dropped)
            .sum()
    }

    /// Empties the span side store and returns the closed spans sorted by
    /// id (allocation order). Independent of [`Tracer::drain`]: spans stay
    /// resolvable however many events the rings have overwritten.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        let mut store = self.inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = std::mem::take(&mut store.recs);
        drop(store);
        out.sort_by_key(|s| s.id);
        out
    }

    /// Takes out the closed spans of the tree rooted at `root` — the root
    /// and every span under it — and the events tagged with any of them,
    /// leaving every other span and event buffered. Spans come back sorted
    /// by id, events by sequence number. Call it once the root has closed:
    /// a span still open is not in the store, and neither is its subtree.
    pub fn take_tree(&self, root: u64) -> (Vec<PageEvent>, Vec<SpanRecord>) {
        if root == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut store = self.inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        store.recs.sort_by_key(|s| s.id);
        // A parent's id is allocated before its children's, so one forward
        // pass over the id-sorted store resolves the whole tree.
        let mut tree = HashSet::from([root]);
        let (spans, rest): (Vec<SpanRecord>, Vec<SpanRecord>) =
            std::mem::take(&mut store.recs).into_iter().partition(|s| {
                let mine = s.id == root || tree.contains(&s.parent);
                if mine {
                    tree.insert(s.id);
                }
                mine
            });
        store.recs = rest;
        drop(store);
        let mut events = Vec::new();
        for ring in self.inner.rings.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let mut data = ring.data.lock().unwrap_or_else(|e| e.into_inner());
            data.buf.retain(|e| {
                let mine = tree.contains(&e.span);
                if mine {
                    events.push(*e);
                }
                !mine
            });
        }
        events.sort_by_key(|e| e.seq);
        (events, spans)
    }

    /// Discards the buffered events and spans numbered `since` or later.
    fn discard_since(&self, since: u64) {
        for ring in self.inner.rings.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            ring.data.lock().unwrap_or_else(|e| e.into_inner()).buf.retain(|e| e.seq < since);
        }
        self.inner.spans.lock().unwrap_or_else(|e| e.into_inner()).recs.retain(|s| s.id < since);
    }

    /// This tracer's process-unique id (keys the span thread-local).
    pub(crate) fn tracer_id(&self) -> u64 {
        self.inner.id
    }

    /// Takes the next value of the shared event/span/batch sequence.
    pub(crate) fn alloc_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer was created (the event clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.origin.elapsed().as_nanos() as u64
    }

    /// Appends a closed span to the side store (bounded: beyond
    /// [`SPAN_STORE_CAPACITY`] new spans are dropped).
    pub(crate) fn push_span(&self, rec: SpanRecord) {
        let mut store = self.inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        if store.recs.len() < SPAN_STORE_CAPACITY {
            store.recs.push(rec);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A live recording of a [`Tracer`] ([`Tracer::record`]). The tracer
/// collects while any recording lives or the user flag is set. When the
/// last recording drops with the user flag off, the tracer turns off and
/// discards what it collected meanwhile: each recorder took out its own
/// tree, and nobody asked for the rest.
#[must_use = "the recording ends when the guard drops"]
#[derive(Debug)]
pub struct Recording {
    tracer: Tracer,
}

impl Drop for Recording {
    fn drop(&mut self) {
        let mut wants = self.tracer.wants();
        wants.recordings -= 1;
        if wants.recordings == 0 && !wants.user {
            self.tracer.inner.enabled.store(false, Ordering::Release);
            self.tracer.discard_since(wants.since);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_collect_nothing() {
        let t = Tracer::new();
        t.emit(EventKind::PageLoaded, 1, 2, 3);
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn events_carry_fields_and_drain_in_seq_order() {
        let t = Tracer::new();
        t.enable();
        t.emit(EventKind::PageLoaded, 7, 3, 4096);
        t.emit(EventKind::PagePinned, 7, 3, 4096);
        t.emit(EventKind::PageEvicted, 7, 3, 4096);
        let evs = t.drain();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::PageLoaded);
        assert_eq!(evs[2].kind, EventKind::PageEvicted);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(evs[0].chain, 7);
        assert_eq!(evs[0].page_no, 3);
        assert_eq!(evs[0].bytes, 4096);
        assert!(t.drain().is_empty(), "drain empties the rings");
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let t = Tracer::with_capacity(4);
        t.enable();
        for i in 0..10 {
            t.emit(EventKind::PagePinned, 0, i, 0);
        }
        let evs = t.drain();
        assert_eq!(evs.len(), 4, "only the newest `capacity` events survive");
        assert_eq!(evs[0].page_no, 6);
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn multi_thread_drain_merges_by_seq() {
        let t = Tracer::new();
        t.enable();
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        t.emit(EventKind::PagePinned, tid, i, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = t.drain();
        assert_eq!(evs.len(), 400);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-thread order is preserved within the global order.
        for tid in 0..4u64 {
            let pages: Vec<u64> =
                evs.iter().filter(|e| e.chain == tid).map(|e| e.page_no).collect();
            assert_eq!(pages, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn recordings_count_next_to_the_user_flag_and_discard_what_nobody_asked_for() {
        let t = Tracer::new();
        t.enable();
        t.emit(EventKind::PageLoaded, 1, 0, 0);
        t.disable();
        let (a, b) = (t.record(), t.record());
        assert!(t.enabled(), "a recording turns the tracer on");
        t.emit(EventKind::PagePinned, 2, 0, 0);
        drop(t.span(crate::SpanKind::PageWait, 0));
        drop(a);
        assert!(t.enabled(), "the tracer stays on while another recording lives");
        drop(b);
        assert!(!t.enabled(), "the last recording turns it off");
        let evs = t.drain();
        assert_eq!(evs.len(), 1, "only the user's event is left: {evs:?}");
        assert_eq!(evs[0].chain, 1);
        assert!(t.drain_spans().is_empty(), "the recording-only span is discarded");
        // Under the user flag a recording discards nothing, and the flag
        // outlives it.
        t.enable();
        let r = t.record();
        t.emit(EventKind::PagePinned, 3, 0, 0);
        drop(r);
        assert!(t.enabled());
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn take_tree_takes_one_query_and_leaves_the_rest() {
        let t = Tracer::new();
        t.enable();
        let other = t.span(crate::SpanKind::Query, 0);
        t.emit(EventKind::PagePinned, 9, 0, 0);
        let q = t.span_with_parent(crate::SpanKind::Query, 0, 0);
        let qid = q.id();
        t.emit(EventKind::PagePinned, 1, 0, 0);
        drop(t.span(crate::SpanKind::PageWait, 1));
        drop(q);
        // Work done elsewhere on the query's behalf.
        t.emit_tagged(EventKind::IoCompleted, 1, 2, 0, qid, 0);
        drop(other);
        let (events, spans) = t.take_tree(qid);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.id == qid || s.parent == qid));
        assert_eq!(events.iter().map(|e| e.chain).collect::<Vec<_>>(), [1, 1]);
        assert_eq!(t.drain().iter().map(|e| e.chain).collect::<Vec<_>>(), [9]);
        assert_eq!(t.drain_spans().len(), 1, "the other query's span stays");
        let (events, spans) = t.take_tree(0);
        assert!(events.is_empty() && spans.is_empty());
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_mix() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.enable();
        b.enable();
        a.emit(EventKind::PageLoaded, 1, 0, 0);
        b.emit(EventKind::PageEvicted, 2, 0, 0);
        let ea = a.drain();
        let eb = b.drain();
        assert_eq!(ea.len(), 1);
        assert_eq!(eb.len(), 1);
        assert_eq!(ea[0].kind, EventKind::PageLoaded);
        assert_eq!(eb[0].kind, EventKind::PageEvicted);
    }
}

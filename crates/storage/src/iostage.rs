//! The cold-path I/O stage: request-coalescing asynchronous fetch between
//! the buffer pool and the [`PageStore`](crate::PageStore).
//!
//! A pool miss never reads the store itself. The pinning thread installs
//! its single-flight `Loading` slot, then submits a
//! [`FetchRequest`] to the submission queue and parks on a completion
//! *ticket*. A worker pool drains the queue **one coalescible run at a
//! time**: a worker pops the oldest request together with every queued
//! request for an adjacent page of the same chain and issues **one ranged
//! [`read_pages`](crate::PageStore::read_pages) call** for the run — so a
//! cold sweep whose misses arrive from many scan workers pays one
//! positioned read per run of consecutive pages instead of one per page,
//! and a burst of unrelated misses (a batched pin's wave) spreads over as
//! many workers as it has runs instead of serialising behind one.
//!
//! Every request still completes *individually*: per-page CRC verification
//! happens inside the store's ranged read, a transient fault on one page of
//! a batch re-enters the pool's [`RetryPolicy`](crate::RetryPolicy) for
//! that page alone, and a corrupt page quarantines only itself. Completion
//! is the pool's one publish sequence (insert `Resident`, publish the load
//! state, then resolve the ticket), so single-flight waiters are completion
//! subscribers.
//!
//! Every request has a thread parked on its ticket, so the queue is one
//! FIFO and nothing in it is ever dropped: its depth is bounded by the pins
//! in flight, each of which bounds its own wave.
//!
//! A batched pin ([`BufferPool::pin_many`](crate::BufferPool::pin_many))
//! submits all of a call's misses under one queue-lock acquisition and
//! parks once on a multi-slot ticket; the submit wakes one worker per run.
//!
//! Lock ranks: the queue mutex is rank `IoQueue` (3), below every pool
//! lock, and is never held across a store call; tickets are rank `IoTicket`
//! (6) and are waited on with no other lock held.
//!
//! With `workers: 0` — which every `payg_check` model-check build forces,
//! so no unmanaged thread races the explored schedule — the stage is
//! **caller-drained**: a submit queues its requests and then runs the same
//! pop-a-run / ranged-read / per-request completion sequence on the
//! submitting thread until the queue is empty. It is the one miss path with
//! nobody to hand off to, not a second one.

use crate::pool::{Frame, LoadState, PoolInner, Slot};
use crate::sync::{Condvar, LockRank, Mutex};
use crate::{FaultClass, PageKey, StorageError, StorageResult};
use payg_obs::{EventKind, SpanKind};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Default I/O depth ([`PoolConfig::io_workers`](crate::PoolConfig)):
/// worker threads, hence physical reads in flight.
/// I/O workers block on the device, so they are sized by how many reads the
/// store can overlap, not by CPU count. Chosen from the sweep recorded in
/// DESIGN.md §11 ({2, 4, 8, 16} workers on `cold_pressure`: throughput
/// rises up to 8 and is flat beyond).
pub(crate) const DEFAULT_IO_WORKERS: usize = 8;

/// Longest ranged read one worker issues. Bounds the bytes charged in
/// flight per read and splits a long consecutive backlog (a scan's wave)
/// over several workers.
const MAX_RUN_PAGES: u64 = 16;

/// One queued cold-path fetch.
pub(crate) struct FetchRequest {
    pub key: PageKey,
    /// The single-flight slot this request owns; completion publishes or
    /// fails it (with the usual pointer-identity ABA guard).
    pub ls: Arc<LoadState>,
    /// The submitting pin's completion latch and this request's slot of it:
    /// resolved with the pinned frame or the raw load error.
    pub ticket: Arc<Ticket>,
    pub slot: usize,
    /// Originating span id (0 = none), captured at submit time on the
    /// pinning thread. Completions tag their events with it so a coalesced
    /// batch records *every* beneficiary query, not just the one whose miss
    /// triggered the physical read.
    pub span: u64,
}

struct TicketState {
    /// One slot per request of the submit, filled as workers complete them.
    slots: Vec<Option<StorageResult<Arc<Frame>>>>,
    pending: usize,
}

/// Completion latch between a submitting pin and the workers resolving its
/// requests: one slot per request, one wake-up when the last one lands — a
/// batched pin parks once per wave, not once per page. A resolved `Ok`
/// carries the frame *with its registration pin still held*: the submitter
/// turns it into a `PageGuard` without a pin/evict race.
pub(crate) struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl Ticket {
    /// A ticket awaiting `n` completions.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(Ticket {
            state: Mutex::with_rank(
                TicketState { slots: (0..n).map(|_| None).collect(), pending: n },
                LockRank::IoTicket,
            ),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, slot: usize, result: StorageResult<Arc<Frame>>) {
        let mut state = self.state.lock();
        debug_assert!(state.slots[slot].is_none(), "ticket slot resolved twice");
        state.slots[slot] = Some(result);
        state.pending -= 1;
        if state.pending == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until every slot is resolved; returns the results in slot
    /// order. A failed member never holds the others back: each request
    /// completes on its own.
    pub fn wait(&self) -> Vec<StorageResult<Arc<Frame>>> {
        let mut state = self.state.lock();
        while state.pending > 0 {
            self.cv.wait(&mut state);
        }
        std::mem::take(&mut state.slots)
            .into_iter()
            // lint: allow(unwrap) invariant: pending == 0 means every slot was resolved
            .map(|slot| slot.expect("resolved slot"))
            .collect()
    }
}

struct QueueState {
    pending: VecDeque<FetchRequest>,
    closed: bool,
}

/// The submission queue.
struct IoQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Worker threads draining this queue (how many a burst can wake).
    workers: usize,
}

impl IoQueue {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(IoQueue {
            state: Mutex::with_rank(
                QueueState { pending: VecDeque::new(), closed: false },
                LockRank::IoQueue,
            ),
            cv: Condvar::new(),
            workers,
        })
    }

    /// Enqueues the requests of one pin call under one lock acquisition and
    /// wakes one worker per coalescible run queued — consecutive pages of
    /// one chain, in submission order, ride one read. Returns the queue
    /// depth after the push.
    fn push(&self, reqs: Vec<FetchRequest>) -> usize {
        let mut st = self.state.lock();
        let mut runs = 0usize;
        let mut prev: Option<PageKey> = None;
        for req in reqs {
            let adjacent = prev.is_some_and(|p| {
                p.chain == req.key.chain && p.page_no.wrapping_add(1) == req.key.page_no
            });
            runs += usize::from(!adjacent);
            prev = Some(req.key);
            st.pending.push_back(req);
        }
        let depth = st.pending.len();
        if runs >= self.workers {
            self.cv.notify_all();
        } else {
            for _ in 0..runs {
                self.cv.notify_one();
            }
        }
        depth
    }

    /// Pops one coalescible run: the oldest request plus every queued
    /// request whose page extends it into a run of consecutive pages of the
    /// same chain, at most [`MAX_RUN_PAGES`] long, sorted by page number. Everything else stays
    /// queued for the sibling workers. On an empty queue a worker (`park`)
    /// blocks until a push or the close, a draining caller gets `None` at
    /// once; `None` also means closed *and* drained.
    fn pop_run(&self, park: bool) -> Option<Vec<FetchRequest>> {
        let mut st = self.state.lock();
        let head = loop {
            if let Some(r) = st.pending.pop_front() {
                break r;
            }
            if st.closed || !park {
                return None;
            }
            self.cv.wait(&mut st);
        };
        let chain = head.key.chain;
        let (mut lo, mut hi) = (head.key.page_no, head.key.page_no);
        let mut run = vec![head];
        // Grow the run one neighbour at a time, upwards first. Taking the
        // first queued request per page keeps the run one request per page
        // even if a page were queued twice (the second stays behind).
        while hi - lo + 1 < MAX_RUN_PAGES {
            let mut take = |page: u64| {
                let at = st.pending.iter().position(|r| r.key == PageKey::new(chain, page))?;
                st.pending.remove(at)
            };
            if let Some(r) = hi.checked_add(1).and_then(&mut take) {
                hi += 1;
                run.push(r);
            } else if let Some(r) = lo.checked_sub(1).and_then(&mut take) {
                lo -= 1;
                run.push(r);
            } else {
                break;
            }
        }
        run.sort_unstable_by_key(|r| r.key.page_no);
        Some(run)
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// A running I/O stage: the queue plus its worker threads (none when
/// caller-drained). Owned by `PoolInner`; dropping it closes the queue and
/// joins the workers.
pub(crate) struct IoStage {
    queue: Arc<IoQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl IoStage {
    /// Starts the stage with `workers` threads — none in a `payg_check`
    /// model build, whose deterministic scheduler must not race unmanaged
    /// threads.
    pub fn start(pool: &Weak<PoolInner>, workers: usize) -> IoStage {
        let workers = if cfg!(payg_check) { 0 } else { workers };
        let queue = IoQueue::new(workers);
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let pool = Weak::clone(pool);
                std::thread::Builder::new()
                    .name(format!("payg-io-{i}"))
                    .spawn(move || worker_loop(&pool, &queue))
                    // lint: allow(unwrap) invariant: thread spawn fails only on OS resource exhaustion
                    .expect("spawn io-stage worker")
            })
            .collect();
        IoStage { queue, workers: handles }
    }

    /// Submits the requests of one pin call — one queue-lock acquisition,
    /// one worker woken per coalescible run. Returns the queue depth after
    /// the push. With no workers (caller-drained) the submitter, holding no
    /// lock and no guard, then runs the queue dry itself — its own requests
    /// and any a concurrent submitter queued meanwhile (whose ticket wait
    /// then returns as soon as this thread has completed them).
    pub fn submit(&self, pool: &Arc<PoolInner>, reqs: Vec<FetchRequest>) -> usize {
        let depth = self.queue.push(reqs);
        if self.workers.is_empty() {
            while let Some(run) = self.queue.pop_run(false) {
                process_run(pool, run);
            }
        }
        depth
    }
}

impl Drop for IoStage {
    fn drop(&mut self) {
        self.queue.close();
        let me = std::thread::current().id();
        for handle in self.workers.drain(..) {
            // A worker can run the pool's final drop (it held the last
            // upgraded Arc): it must not join itself — the queue is closed,
            // so its own loop exits right after this drop returns.
            if handle.thread().id() == me {
                continue;
            }
            let _ = handle.join();
        }
    }
}

fn worker_loop(pool: &Weak<PoolInner>, queue: &Arc<IoQueue>) {
    while let Some(run) = queue.pop_run(true) {
        // Every queued request has a submitter parked on its ticket, and a
        // submitter holds the pool.
        let Some(pool) = pool.upgrade() else {
            unreachable!("a request outlived the pool its submitter holds")
        };
        process_run(&pool, run);
    }
}

/// One physical read covering `run` (consecutive pages of one chain), then
/// per-request completion. A transient fault on one page re-enters the
/// retry policy for that page alone; other pages of the batch are
/// unaffected.
fn process_run(pool: &Arc<PoolInner>, run: Vec<FetchRequest>) {
    let first = run[0].key;
    let n = run.len();
    pool.metrics.io_physical_reads.inc();
    pool.metrics.io_batch_pages.record(n as u64);
    if n > 1 {
        pool.metrics.io_coalesced.add(n as u64);
    }
    // The batch span covers just the physical read; its id doubles as the
    // batch id carried in `aux` by IoBatchIssued and every IoCompleted of
    // the run, so a drained log can tell batches *joined* (my page rode a
    // read initiated by another query's span) from batches *initiated*.
    // Parentage goes to the run's first request by page order.
    let batch_span = pool.tracer.span_with_parent(SpanKind::IoBatch, run[0].span, n as u64);
    let batch_id = batch_span.id();
    pool.tracer.emit_tagged(
        EventKind::IoBatchIssued,
        first.chain.0,
        first.page_no,
        n as u64,
        run[0].span,
        batch_id,
    );
    // Charge the read against the memory footprint while it is in flight;
    // on success the bytes transfer to the registered frame resources.
    let expected = pool.store.page_size(first.chain).unwrap_or(0) * n;
    pool.resman.begin_inflight(expected);
    let results = pool.store.read_pages(first.chain, first.page_no, n);
    pool.resman.end_inflight(expected);
    // Close the read span before per-request completion: it times the
    // physical read, and each completion's events carry its own request's
    // originating span.
    drop(batch_span);
    debug_assert_eq!(results.len(), n, "read_pages must return one result per page");
    for (req, result) in run.into_iter().zip(results) {
        let outcome = result.or_else(|e| fetch_with_retry(pool, &req, e, batch_id));
        complete(pool, req, outcome, batch_id);
    }
}

/// The per-page retry loop after `err` failed the page's attempt 1 (its
/// slot of the ranged read) — the single place in the pool stack that calls
/// [`read_page`](crate::PageStore::read_page). Counts every fault; a
/// transient one re-reads the page alone, after the policy's backoff, while
/// attempts are left.
fn fetch_with_retry(
    pool: &PoolInner,
    req: &FetchRequest,
    mut err: StorageError,
    batch: u64,
) -> StorageResult<Box<[u8]>> {
    let key = req.key;
    let mut attempt = 1;
    loop {
        pool.metrics.fault_counter(err.fault_class()).inc();
        if !err.is_transient() || attempt >= pool.retry.max_attempts {
            return Err(err);
        }
        pool.metrics.load_retries.inc();
        pool.tracer
            .emit_tagged(EventKind::LoadRetried, key.chain.0, key.page_no, 0, req.span, batch);
        let backoff = pool.retry.backoff_for(attempt);
        if !backoff.is_zero() {
            (pool.sleeper)(backoff);
        }
        attempt += 1;
        pool.metrics.io_physical_reads.inc();
        match pool.store.read_page(key) {
            Ok(data) => return Ok(data),
            Err(e) => err = e,
        }
    }
}

/// Completes one request — the pool's one publish/fail sequence (insert
/// `Resident`, or withdraw the `Loading` slot and quarantine, then publish
/// or fail the load state), then ticket resolution.
/// `batch` is the coalesced read's batch id, tagged onto the completion
/// event so every beneficiary request records which physical read served it.
fn complete(pool: &Arc<PoolInner>, req: FetchRequest, outcome: StorageResult<Box<[u8]>>, batch: u64) {
    match outcome {
        Ok(data) => {
            let bytes = data.len() as u64;
            let frame = pool.admit_frame(req.key, req.span, data);
            pool.shard(req.key)
                .lock()
                .slots
                .insert(req.key, Slot::Resident(Arc::clone(&frame)));
            // Count the completion before publishing: the publish wakes the
            // submitter, which may read the metrics immediately.
            pool.metrics.io_completions.inc();
            pool.tracer.emit_tagged(
                EventKind::IoCompleted,
                req.key.chain.0,
                req.key.page_no,
                bytes,
                req.span,
                batch,
            );
            req.ls.publish();
            // The registration pin rides the ticket to the submitter.
            req.ticket.resolve(req.slot, Ok(frame));
        }
        Err(err) => {
            let shared = err.to_shared();
            {
                let mut state = pool.shard(req.key).lock();
                // Remove our load state so later pins retry; the pointer
                // check guards against ABA with a newer load.
                if matches!(
                    state.slots.get(&req.key),
                    Some(Slot::Loading(cur)) if Arc::ptr_eq(cur, &req.ls)
                ) {
                    state.slots.remove(&req.key);
                }
                if err.fault_class() == FaultClass::Corrupt {
                    pool.quarantine(&mut state, req.key, req.span, Arc::clone(&shared));
                }
            }
            // Count the completion, then wake waiters with the actual error
            // after the slot update so none of them can observe a stale
            // Loading entry (or a completion count behind their own wakeup).
            pool.metrics.io_completions.inc();
            pool.tracer.emit_tagged(
                EventKind::IoCompleted,
                req.key.chain.0,
                req.key.page_no,
                0,
                req.span,
                batch,
            );
            req.ls.fail(shared);
            req.ticket.resolve(req.slot, Err(err));
        }
    }
}

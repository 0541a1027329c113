//! Model checks of the cold-path I/O stage's submit/complete protocol.
//!
//! `MiniStage` ports `payg-storage::iostage`'s request protocol onto the
//! modeled primitives: pool misses install a single-flight `Loading`
//! placeholder and submit a fetch request to the queue, a worker drains the
//! queue in batches (one physical read per batch — the coalescing step),
//! and completes each request individually — publish on success, fail +
//! quarantine on corruption. The checker explores interleavings and proves:
//!
//! * one corrupt page inside a coalesced batch fails only its own
//!   request: neighbours publish, the bad key quarantines, and the two
//!   states are never simultaneous,
//! * a batched pin (`pin_many`: one classification pass, one multi-request
//!   submit, one multi-slot ticket) is never stranded by a failed member —
//!   the other members land, every schedule terminates — and leaks no pin.

use payg_check::sync::{Condvar, Mutex};
use payg_check::{thread, Checker};
use std::collections::BTreeMap;
use std::sync::Arc;

const BOUND: usize = 2000;
/// Fail-fast pins a quarantine entry absorbs before the store is retried.
const QUARANTINE_TTL: usize = 2;

fn page_byte(key: u32) -> u8 {
    key as u8 ^ 0xA5
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PinOutcome {
    Resident(u8),
    /// Served from quarantine without a store read.
    FailFast,
    /// This pin waited on a staged load that failed.
    WaitFailed,
    /// This pin's own staged load (a member of its wave) failed.
    LoadFailed,
}

/// `iostage::Ticket`: one slot per request of a submit, one wake-up when
/// the last one resolves.
struct Ticket {
    /// Per slot: `None` = in flight, `Some(loaded)` once resolved.
    slots: Mutex<Vec<Option<bool>>>,
    cv: Condvar,
}

impl Ticket {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Ticket { slots: Mutex::new(vec![None; n]), cv: Condvar::new() })
    }

    fn resolve(&self, slot: usize, loaded: bool) {
        let mut slots = self.slots.lock();
        assert!(slots[slot].is_none(), "ticket slot resolved twice");
        slots[slot] = Some(loaded);
        if slots.iter().all(Option::is_some) {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Vec<bool> {
        let mut slots = self.slots.lock();
        while slots.iter().any(Option::is_none) {
            self.cv.wait(&mut slots);
        }
        slots.iter().map(|s| s.expect("resolved")).collect()
    }
}

struct LoadState {
    /// `None` = in flight, `Some(true)` = published, `Some(false)` = failed.
    outcome: Mutex<Option<bool>>,
    cv: Condvar,
}

impl LoadState {
    fn new() -> Arc<Self> {
        Arc::new(LoadState { outcome: Mutex::new(None), cv: Condvar::new() })
    }

    fn settle(&self, published: bool) {
        *self.outcome.lock() = Some(published);
        self.cv.notify_all();
    }

    /// Returns `true` when the load failed; `false` means published (the
    /// caller re-inspects the map).
    fn wait(&self) -> bool {
        let mut o = self.outcome.lock();
        while o.is_none() {
            self.cv.wait(&mut o);
        }
        *o == Some(false)
    }
}

enum Slot {
    Loading(Arc<LoadState>),
    Resident(u8),
}

struct MapState {
    map: BTreeMap<u32, Slot>,
    quarantine: BTreeMap<u32, usize>,
    /// Live pins per resident key (the resman pin count of its frame).
    pins: BTreeMap<u32, usize>,
}

/// One queued fetch: the key, the single-flight slot it owns, and — for a
/// batched pin's loads — the ticket slot its completion resolves.
type Request = (u32, Arc<LoadState>, Option<(Arc<Ticket>, usize)>);

struct QueueState {
    pending: Vec<Request>,
    closed: bool,
}

/// The stage's submission queue plus the pool map it completes into.
struct MiniStage {
    state: Mutex<MapState>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Physical reads issued (one per popped batch — the coalescing step).
    reads: Mutex<usize>,
    /// Keys whose read returns corrupt instead of the page byte.
    corrupt: Vec<u32>,
    ttl: usize,
}

impl MiniStage {
    fn new(corrupt: Vec<u32>) -> Self {
        MiniStage {
            state: Mutex::new(MapState {
                map: BTreeMap::new(),
                quarantine: BTreeMap::new(),
                pins: BTreeMap::new(),
            }),
            queue: Mutex::new(QueueState { pending: Vec::new(), closed: false }),
            queue_cv: Condvar::new(),
            reads: Mutex::new(0),
            corrupt,
            ttl: QUARANTINE_TTL,
        }
    }

    fn reads(&self) -> usize {
        *self.reads.lock()
    }

    fn resident(&self, key: u32) -> Option<u8> {
        match self.state.lock().map.get(&key) {
            Some(Slot::Resident(b)) => Some(*b),
            _ => None,
        }
    }

    fn quarantined(&self, key: u32) -> bool {
        self.state.lock().quarantine.contains_key(&key)
    }

    /// Enqueue a request the worker must complete.
    fn enqueue(&self, key: u32, ls: &Arc<LoadState>) {
        let mut q = self.queue.lock();
        assert!(!q.closed, "submit after close");
        q.pending.push((key, Arc::clone(ls), None));
        self.queue_cv.notify_all();
    }

    /// Live pins over all keys.
    fn live_pins(&self) -> usize {
        self.state.lock().pins.values().sum()
    }

    /// Drops one pin of `key` (a `PageGuard` going out of scope).
    fn unpin(&self, key: u32) {
        let mut st = self.state.lock();
        let pins = st.pins.get_mut(&key).expect("unpin of an unpinned key");
        assert!(*pins > 0, "pin count underflow");
        *pins -= 1;
    }

    /// `BufferPool::pin_many`: one pass classifies every key — hits are
    /// pinned on the spot, absent keys get this call's `Loading`
    /// placeholder, keys already in flight are deferred — then ALL the
    /// call's loads are enqueued under one queue-lock acquisition and the
    /// caller parks once on a multi-slot ticket. A loaded member's pin
    /// rides the ticket (the worker registers the frame pinned). Deferred
    /// keys join through the single-key path once the wave is in.
    fn pin_many(&self, keys: &[u32]) -> Vec<PinOutcome> {
        let mut out: Vec<Option<PinOutcome>> = Vec::new();
        let mut wave: Vec<(usize, u32, Arc<LoadState>)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let mut st = self.state.lock();
            if st.quarantine.contains_key(&key) {
                let left = st.quarantine.get_mut(&key).unwrap();
                *left -= 1;
                if *left == 0 {
                    st.quarantine.remove(&key);
                }
                out.push(Some(PinOutcome::FailFast));
                continue;
            }
            let hit = match st.map.get(&key) {
                Some(Slot::Resident(byte)) => Some(*byte),
                Some(Slot::Loading(_)) => {
                    out.push(None);
                    continue;
                }
                None => None,
            };
            match hit {
                Some(byte) => {
                    *st.pins.entry(key).or_insert(0) += 1;
                    out.push(Some(PinOutcome::Resident(byte)));
                }
                None => {
                    let ls = LoadState::new();
                    st.map.insert(key, Slot::Loading(Arc::clone(&ls)));
                    wave.push((i, key, ls));
                    out.push(None);
                }
            }
        }
        if !wave.is_empty() {
            let ticket = Ticket::new(wave.len());
            {
                let mut q = self.queue.lock();
                assert!(!q.closed, "submit after close");
                for (slot, (_, key, ls)) in wave.iter().enumerate() {
                    q.pending.push((*key, Arc::clone(ls), Some((Arc::clone(&ticket), slot))));
                }
                self.queue_cv.notify_all();
            }
            for ((i, key, _), loaded) in wave.iter().zip(ticket.wait()) {
                out[*i] = Some(if loaded {
                    PinOutcome::Resident(page_byte(*key))
                } else {
                    PinOutcome::LoadFailed
                });
            }
        }
        keys.iter()
            .zip(out)
            .map(|(&key, planned)| planned.unwrap_or_else(|| self.pin(key)))
            .collect()
    }

    /// `BufferPool::pin` over the staged path: quarantine gate, then
    /// single-flight — loaders submit and wait like any other completion
    /// subscriber.
    fn pin(&self, key: u32) -> PinOutcome {
        loop {
            let ls = {
                let mut st = self.state.lock();
                if st.quarantine.contains_key(&key) {
                    assert!(
                        !matches!(st.map.get(&key), Some(Slot::Resident(_))),
                        "quarantined key is resident"
                    );
                    let left = st.quarantine.get_mut(&key).unwrap();
                    *left -= 1;
                    if *left == 0 {
                        st.quarantine.remove(&key);
                    }
                    return PinOutcome::FailFast;
                }
                match st.map.get(&key) {
                    Some(Slot::Resident(byte)) => {
                        let byte = *byte;
                        *st.pins.entry(key).or_insert(0) += 1;
                        return PinOutcome::Resident(byte);
                    }
                    Some(Slot::Loading(ls)) => Arc::clone(ls),
                    None => {
                        let ls = LoadState::new();
                        st.map.insert(key, Slot::Loading(Arc::clone(&ls)));
                        self.enqueue(key, &ls);
                        ls
                    }
                }
            };
            if ls.wait() {
                return PinOutcome::WaitFailed;
            }
            // Published: the loop re-inspects the map.
        }
    }

    /// The I/O worker: pop everything pending as one batch, charge one
    /// physical read for it, then complete each request individually.
    fn worker(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock();
                loop {
                    if !q.pending.is_empty() {
                        break std::mem::take(&mut q.pending);
                    }
                    if q.closed {
                        return;
                    }
                    self.queue_cv.wait(&mut q);
                }
            };
            *self.reads.lock() += 1;
            for (key, ls, ticket) in batch {
                let ok = !self.corrupt.contains(&key);
                {
                    let mut st = self.state.lock();
                    if ok {
                        assert!(
                            !st.quarantine.contains_key(&key),
                            "published a frame for a quarantined key"
                        );
                        match st.map.get(&key) {
                            Some(Slot::Loading(cur)) if Arc::ptr_eq(cur, &ls) => {
                                st.map.insert(key, Slot::Resident(page_byte(key)));
                                // A ticketed load registers its frame
                                // pinned: the pin rides the ticket.
                                if ticket.is_some() {
                                    *st.pins.entry(key).or_insert(0) += 1;
                                }
                            }
                            _ => panic!("completing request's placeholder was stolen"),
                        }
                    } else {
                        match st.map.get(&key) {
                            Some(Slot::Loading(cur)) if Arc::ptr_eq(cur, &ls) => {
                                st.map.remove(&key);
                            }
                            _ => panic!("failing request's placeholder was stolen"),
                        }
                        let prev = st.quarantine.insert(key, self.ttl);
                        assert!(prev.is_none(), "double quarantine insert for one failure");
                    }
                }
                ls.settle(ok);
                if let Some((ticket, slot)) = ticket {
                    ticket.resolve(slot, ok);
                }
            }
        }
    }

    fn close(&self) {
        self.queue.lock().closed = true;
        self.queue_cv.notify_all();
    }
}

/// Runs `body` with a live worker thread, closing the queue and joining
/// the worker before returning.
fn with_worker(stage: &Arc<MiniStage>, body: impl FnOnce()) {
    let w = {
        let s = Arc::clone(stage);
        thread::spawn(move || s.worker())
    };
    body();
    stage.close();
    w.join().expect("worker thread");
}

#[test]
fn corrupt_page_in_a_coalesced_batch_fails_only_itself() {
    // Pins on two keys race; KEY_BAD's read is corrupt. Under every
    // interleaving (including both requests riding
    // one coalesced batch) the good key publishes, the bad key
    // quarantines without ever being resident, and the pin on the bad key
    // gets a typed failure — never a frame, never a hang.
    const KEY_OK: u32 = 10;
    const KEY_BAD: u32 = 11;
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let stage = Arc::new(MiniStage::new(vec![KEY_BAD]));
        with_worker(&stage, || {
            let good = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin(KEY_OK))
            };
            let bad = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin(KEY_BAD))
            };
            assert_eq!(good.join().expect("model thread"), PinOutcome::Resident(page_byte(KEY_OK)));
            let outcome = bad.join().expect("model thread");
            assert!(
                matches!(outcome, PinOutcome::WaitFailed | PinOutcome::FailFast),
                "bad key produced {outcome:?}"
            );
        });
        assert_eq!(stage.resident(KEY_OK), Some(page_byte(KEY_OK)), "good neighbour publishes");
        assert_eq!(stage.resident(KEY_BAD), None, "corrupt key must not be resident");
        assert!(stage.quarantined(KEY_BAD), "corrupt key quarantines");
        assert!(stage.reads() <= 2, "at most one read per popped batch");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 500,
        "expected >= 500 distinct interleavings, got {}",
        report.iterations
    );
}

#[test]
fn batched_pin_is_never_stranded_by_a_failed_member_and_leaks_no_pin() {
    // One batched pin over [good, corrupt, good] races a single pin of the
    // second good key. Whichever of them installs that key's placeholder,
    // and however the worker batches the requests, under every
    // interleaving: the batched pin returns (the corrupt member resolves
    // its ticket slot with a failure instead of leaving the latch short),
    // both good keys are resident with the right bytes, the corrupt key
    // quarantines without ever being resident, and once every returned
    // guard is dropped no pin is left on any frame.
    const KEY_A: u32 = 20;
    const KEY_BAD: u32 = 21;
    const KEY_B: u32 = 23;
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let stage = Arc::new(MiniStage::new(vec![KEY_BAD]));
        with_worker(&stage, || {
            let batch = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin_many(&[KEY_A, KEY_BAD, KEY_B]))
            };
            let single = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin(KEY_B))
            };
            let outcomes = batch.join().expect("model thread");
            assert_eq!(outcomes[0], PinOutcome::Resident(page_byte(KEY_A)));
            assert_eq!(outcomes[1], PinOutcome::LoadFailed, "the corrupt member fails alone");
            assert_eq!(outcomes[2], PinOutcome::Resident(page_byte(KEY_B)));
            assert_eq!(single.join().expect("model thread"), PinOutcome::Resident(page_byte(KEY_B)));
            assert_eq!(stage.live_pins(), 3, "one pin per returned guard");
            stage.unpin(KEY_A);
            stage.unpin(KEY_B);
            stage.unpin(KEY_B);
        });
        assert_eq!(stage.live_pins(), 0, "no pin outlives its guard");
        assert_eq!(stage.resident(KEY_A), Some(page_byte(KEY_A)));
        assert_eq!(stage.resident(KEY_B), Some(page_byte(KEY_B)));
        assert_eq!(stage.resident(KEY_BAD), None, "corrupt key must not be resident");
        assert!(stage.quarantined(KEY_BAD), "corrupt key quarantines");
        assert!(stage.reads() <= 2, "the wave is one burst: at most one more batch for the racer");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 500,
        "expected >= 500 distinct interleavings, got {}",
        report.iterations
    );
}

//! Model checks of the buffer-pool hot paths.
//!
//! `MiniPool` is a faithful port of `payg-storage::pool`'s concurrency
//! skeleton onto the modeled primitives: the same single-flight publish
//! protocol (a `Loading` placeholder with a done-flag condvar) and the same
//! **pin protocol** — a frame's pin word is `n` pins, `0`, or `EVICTED`; a
//! hit is a CAS-increment under the map lock that fails on `EVICTED`, an
//! unpin and a guard clone touch the word with no lock at all, and an
//! unload pass (under its own lock, *not* the map's) claims a victim with
//! `0 → EVICTED` and skips it when the CAS fails. The checker explores
//! interleavings of these paths and proves the invariants the real pool
//! relies on:
//!
//! * a page is read from the store **at most once per residency**,
//! * a pinned frame is **never** evicted,
//! * guard bytes are stable under concurrent loads and evictions,
//! * pool limits hold once all threads have quiesced.
//!
//! Two deliberately broken variants — no `Loading` placeholder, and an
//! evictor that checks `load() == 0` instead of claiming — show the checker
//! actually catches the double-load and the evicted-while-pinned bugs, and
//! that the failing schedules it reports can be replayed verbatim.
//!
//! `BTreeMap` (not `HashMap`) keeps victim selection deterministic per
//! schedule, which exhaustive exploration and replay both require.

use payg_check::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use payg_check::sync::{Condvar, Mutex};
use payg_check::{replay, thread, Checker};
use std::collections::BTreeMap;
use std::sync::Arc;

const SC: Ordering = Ordering::SeqCst;

struct LoadState {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Pin-word value of a frame an unload pass has claimed.
const EVICTED: u32 = u32::MAX;

struct Frame {
    byte: u8,
    /// `n` pins, `0` (evictable), or `EVICTED` (terminal).
    word: AtomicU32,
}

impl Frame {
    /// A pin never resurrects a claimed word: CAS loop, `false` on `EVICTED`.
    fn pin(&self) -> bool {
        let mut seen = self.word.load(SC);
        loop {
            if seen == EVICTED {
                return false;
            }
            match self.word.compare_exchange(seen, seen + 1, SC, SC) {
                Ok(_) => return true,
                Err(now) => seen = now,
            }
        }
    }

    /// The evictor's claim: one CAS decides pin-vs-evict.
    fn claim(&self) -> bool {
        self.word.compare_exchange(0, EVICTED, SC, SC).is_ok()
    }

    /// The broken claim: a check that a concurrent pin can invalidate
    /// before the evictor acts on it.
    fn looks_unpinned(&self) -> bool {
        self.word.load(SC) == 0
    }
}

enum Slot {
    Loading(Arc<LoadState>),
    Resident(Arc<Frame>),
}

fn page_byte(key: u32) -> u8 {
    key as u8 ^ 0x5A
}

struct MiniPool {
    map: Mutex<BTreeMap<u32, Slot>>,
    /// Store reads per key (the store itself would count these).
    reads: Mutex<BTreeMap<u32, usize>>,
    /// Serialises unload passes (the resource manager's state lock). Pins
    /// never take it.
    resman: Mutex<()>,
    used: AtomicUsize,
    evictions: AtomicUsize,
    limit: usize,
}

struct Guard {
    frame: Arc<Frame>,
}

impl Guard {
    fn byte(&self) -> u8 {
        self.frame.byte
    }
}

impl Clone for Guard {
    /// Another pin, taken through the frame alone — no pool lock.
    fn clone(&self) -> Self {
        assert!(self.frame.pin(), "pinned frame cannot vanish");
        Guard { frame: Arc::clone(&self.frame) }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.frame.word.fetch_sub(1, SC);
    }
}

impl MiniPool {
    fn new(limit: usize) -> Self {
        MiniPool {
            map: Mutex::new(BTreeMap::new()),
            reads: Mutex::new(BTreeMap::new()),
            resman: Mutex::new(()),
            used: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            limit,
        }
    }

    /// The store read. Outside the map lock, exactly like the real pool's
    /// `load_and_publish` does its I/O.
    fn read_store(&self, key: u32) -> u8 {
        self.reads.lock().entry(key).and_modify(|c| *c += 1).or_insert(1);
        page_byte(key)
    }

    fn reads_of(&self, key: u32) -> usize {
        self.reads.lock().get(&key).copied().unwrap_or(0)
    }

    /// Single-flight pin: the same protocol as `BufferPool::pin`.
    fn pin(&self, key: u32) -> Guard {
        loop {
            enum Action {
                Load(Arc<LoadState>),
                Wait(Arc<LoadState>),
            }
            let action = {
                let mut map = self.map.lock();
                match map.get(&key) {
                    Some(Slot::Resident(f)) if f.pin() => {
                        return Guard { frame: Arc::clone(f) };
                    }
                    Some(Slot::Loading(ls)) => Action::Wait(Arc::clone(ls)),
                    // Absent, or claimed by a pass that has not unlinked it
                    // yet: replace the stale frame with a fresh load.
                    Some(Slot::Resident(_)) | None => {
                        let ls =
                            Arc::new(LoadState { done: Mutex::new(false), cv: Condvar::new() });
                        map.insert(key, Slot::Loading(Arc::clone(&ls)));
                        Action::Load(ls)
                    }
                }
            };
            match action {
                Action::Load(ls) => {
                    let byte = self.read_store(key);
                    let frame = Arc::new(Frame { byte, word: AtomicU32::new(1) });
                    self.used.fetch_add(1, SC);
                    self.map.lock().insert(key, Slot::Resident(Arc::clone(&frame)));
                    *ls.done.lock() = true;
                    ls.cv.notify_all();
                    self.maybe_evict();
                    return Guard { frame };
                }
                Action::Wait(ls) => {
                    let mut done = ls.done.lock();
                    while !*done {
                        ls.cv.wait(&mut done);
                    }
                    // Published (or since evicted): retry the map.
                }
            }
        }
    }

    /// Evicts unpinned resident frames while over the limit — the rule the
    /// real pool applies via the resource manager's unload passes.
    fn maybe_evict(&self) {
        self.evict_with(Frame::claim);
    }

    /// One unload pass. As in the real system it holds the pass lock, not
    /// the map lock, while it decides: victims are claimed on their pin
    /// word, and only then unlinked (the eviction callback) — by pointer,
    /// since a pin that lost to the claim may already have installed a
    /// fresh load under the key.
    fn evict_with(&self, claim: fn(&Frame) -> bool) {
        let _pass = self.resman.lock();
        // The manager's own entry list: every resident frame.
        let candidates: Vec<(u32, Arc<Frame>)> = self
            .map
            .lock()
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Resident(f) => Some((*k, Arc::clone(f))),
                Slot::Loading(_) => None,
            })
            .collect();
        for (key, frame) in candidates {
            if self.used.load(SC) <= self.limit {
                break;
            }
            if !claim(&frame) {
                continue; // pinned: transient overshoot
            }
            self.used.fetch_sub(1, SC);
            self.evictions.fetch_add(1, SC);
            let mut map = self.map.lock();
            if matches!(map.get(&key), Some(Slot::Resident(cur)) if Arc::ptr_eq(cur, &frame)) {
                map.remove(&key);
            }
        }
    }

    /// True while `guard`'s frame is the one the map serves for `key`.
    fn serves(&self, key: u32, guard: &Guard) -> bool {
        matches!(self.map.lock().get(&key), Some(Slot::Resident(f)) if Arc::ptr_eq(f, &guard.frame))
    }

    fn resident(&self, key: u32) -> bool {
        matches!(self.map.lock().get(&key), Some(Slot::Resident(_)))
    }
}

// ---------------------------------------------------------------------------
// Invariant checks on the correct pool
// ---------------------------------------------------------------------------

/// The full pool models have state spaces far beyond exhaustive reach (no
/// partial-order reduction), so each check explores a bounded prefix of
/// the DFS plus the invariant assertions on every schedule it visits.
const BOUND: usize = 2000;

#[test]
fn single_flight_loads_once_under_all_interleavings() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let pool = Arc::new(MiniPool::new(4));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let p = Arc::clone(&pool);
                thread::spawn(move || {
                    let g = p.pin(7);
                    assert_eq!(g.byte(), page_byte(7), "guard bytes must be stable");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("model thread");
        }
        assert_eq!(pool.reads_of(7), 1, "page read from store more than once per residency");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 1000,
        "expected >= 1000 distinct interleavings, got {}",
        report.iterations
    );
}

#[test]
fn waiter_sees_published_frame_not_a_second_load() {
    // Two threads racing on one key: the waiter must adopt the loader's
    // frame, never issue its own read.
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let pool = Arc::new(MiniPool::new(4));
        let p1 = Arc::clone(&pool);
        let a = thread::spawn(move || {
            let g = p1.pin(1);
            assert_eq!(g.byte(), page_byte(1));
        });
        let p2 = Arc::clone(&pool);
        let b = thread::spawn(move || {
            let g = p2.pin(1);
            assert_eq!(g.byte(), page_byte(1));
        });
        a.join().expect("model thread");
        b.join().expect("model thread");
        assert_eq!(pool.reads_of(1), 1);
        assert!(pool.resident(1));
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
}

#[test]
fn pinned_frame_is_never_evicted() {
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let pool = Arc::new(MiniPool::new(1));
        // Parent holds a pin on key 1 the whole time.
        let held = pool.pin(1);
        let p = Arc::clone(&pool);
        let b = thread::spawn(move || {
            // Over-limit load: must evict *something unpinned*, never key 1.
            let g = p.pin(2);
            assert_eq!(g.byte(), page_byte(2));
        });
        b.join().expect("model thread");
        // The pinned frame survived every eviction attempt, bytes intact.
        assert!(pool.resident(1), "pinned frame was evicted");
        assert_eq!(held.byte(), page_byte(1), "pinned frame bytes changed");
        drop(held);
        // Quiesce: no pins remain; enforcing the limit now must succeed.
        pool.maybe_evict();
        assert!(
            pool.used.load(SC) <= 1,
            "pool limit violated after quiesce: {} frames resident",
            pool.used.load(SC)
        );
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    // This model is small enough to explore completely: the invariant holds
    // under EVERY interleaving, not just a bounded sample.
    assert!(report.exhausted, "state space should be fully explored");
}

#[test]
fn pin_vs_evict_race_with_reload_is_single_flight_per_residency() {
    // Key 1 may be evicted and reloaded; each residency reads at most once.
    // A pinner of key 1 races a loader of key 2 on a limit-1 pool.
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let pool = Arc::new(MiniPool::new(1));
        let pa = Arc::clone(&pool);
        let a = thread::spawn(move || {
            let g = pa.pin(1);
            assert_eq!(g.byte(), page_byte(1));
        });
        let pb = Arc::clone(&pool);
        let b = thread::spawn(move || {
            let g = pb.pin(2);
            assert_eq!(g.byte(), page_byte(2));
        });
        a.join().expect("model thread");
        b.join().expect("model thread");
        // Each key was loaded at least once; reloads only happen after an
        // eviction, so reads <= 1 + evictions overall.
        let total_reads = pool.reads_of(1) + pool.reads_of(2);
        let evictions = pool.evictions.load(SC);
        assert!(
            total_reads <= 2 + evictions,
            "reads {total_reads} exceed residencies (evictions {evictions})"
        );
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 1000,
        "expected >= 1000 distinct interleavings, got {}",
        report.iterations
    );
}

/// A warm pin of key 1 — then a lock-free clone and drop of the guard —
/// racing an unload pass on a limit-0 pool (evict everything unpinned).
/// While any guard is held the map must keep serving *its* frame; after
/// quiesce one more pass empties the pool and every residency was read once.
fn pin_vs_claim_scenario(claim: fn(&Frame) -> bool) {
    let pool = Arc::new(MiniPool::new(0));
    drop(pool.pin(1));
    let p = Arc::clone(&pool);
    let pinner = thread::spawn(move || {
        let g = p.pin(1);
        assert_eq!(g.byte(), page_byte(1), "guard bytes must be stable");
        assert!(p.serves(1, &g), "frame evicted while pinned");
        let g2 = g.clone();
        drop(g);
        assert!(p.serves(1, &g2), "frame evicted while pinned through a clone");
    });
    let p = Arc::clone(&pool);
    let evictor = thread::spawn(move || p.evict_with(claim));
    pinner.join().expect("model thread");
    evictor.join().expect("model thread");
    pool.evict_with(claim);
    assert_eq!(pool.used.load(SC), 0, "an unpinned pool unloads to its limit");
    assert!(!pool.resident(1));
    assert_eq!(
        pool.reads_of(1),
        pool.evictions.load(SC),
        "every residency was read once and evicted once"
    );
}

#[test]
fn lock_free_pin_vs_claim_never_evicts_a_pinned_frame() {
    let report = Checker::exhaustive()
        .max_iterations(BOUND)
        .check(|| pin_vs_claim_scenario(Frame::claim));
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.exhausted || report.iterations >= 1000,
        "expected exhaustion or >= 1000 interleavings, got {}",
        report.iterations
    );
}

#[test]
fn check_then_evict_without_a_claim_is_caught_and_replays() {
    // The evictor reads `word == 0` and then unlinks — the re-check-free
    // protocol minus its CAS. A pin landing between the read and the unlink
    // holds a guard on a frame the map no longer serves.
    let broken = || pin_vs_claim_scenario(Frame::looks_unpinned);
    let report = Checker::exhaustive().check(broken);
    let failure = report.failure.expect("the evicted-while-pinned race must be found");
    assert!(
        failure.message.contains("evicted while pinned"),
        "unexpected failure message: {}",
        failure.message
    );
    let replayed = replay(&failure.schedule, broken)
        .failure
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}

// ---------------------------------------------------------------------------
// The broken pool: single-flight removed
// ---------------------------------------------------------------------------

/// `MiniPool::pin` with the `Loading` placeholder deliberately removed —
/// the classic check-then-load race. The checker must find the schedule
/// where two threads both miss and both read the page from the store.
fn broken_double_load_scenario() {
    let pool = Arc::new(MiniPool::new(4));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let p = Arc::clone(&pool);
            thread::spawn(move || {
                // Check...
                let hit = {
                    let map = p.map.lock();
                    match map.get(&9) {
                        Some(Slot::Resident(f)) if f.pin() => Some(Arc::clone(f)),
                        _ => None,
                    }
                };
                // ...then load, without publishing intent first.
                let _g = match hit {
                    Some(frame) => Guard { frame },
                    None => {
                        let byte = p.read_store(9);
                        let frame = Arc::new(Frame { byte, word: AtomicU32::new(1) });
                        p.used.fetch_add(1, SC);
                        p.map.lock().insert(9, Slot::Resident(Arc::clone(&frame)));
                        Guard { frame }
                    }
                };
            })
        })
        .collect();
    for t in threads {
        t.join().expect("model thread");
    }
    assert_eq!(pool.reads_of(9), 1, "page read from store more than once per residency");
}

#[test]
#[should_panic(expected = "model check failed")]
fn reintroduced_double_load_bug_is_caught() {
    payg_check::model(broken_double_load_scenario);
}

#[test]
fn double_load_failure_reports_a_replayable_schedule() {
    let report = Checker::exhaustive().check(broken_double_load_scenario);
    let failure = report.failure.expect("the double-load race must be found");
    assert!(
        failure.message.contains("more than once per residency"),
        "unexpected failure message: {}",
        failure.message
    );
    // The reported schedule replays to the exact same failure, so a CI hit
    // can be reproduced locally from the schedule string alone.
    let replayed = replay(&failure.schedule, broken_double_load_scenario)
        .failure
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}

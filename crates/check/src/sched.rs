//! The deterministic scheduler.
//!
//! A model run executes the checked closure on real OS threads, but only
//! **one thread is runnable at any instant**: every synchronization
//! operation performed through the [`crate::sync`] wrappers is a *yield
//! point* where the scheduler picks which thread runs next. Because shared
//! state is only touched between yield points, the set of schedules the
//! scheduler can produce covers every observable interleaving of the
//! wrapped operations.
//!
//! Exploration is a stateless depth-first search: each run replays a prefix
//! of recorded scheduling choices and then takes the first untried branch;
//! the branch record of the finished run determines the next prefix. A
//! failing run's complete choice list is its **schedule string** — feeding
//! it to [`replay`] re-executes exactly that interleaving.

use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Distinguishes executions so a sync object accidentally reused across
/// model iterations re-registers instead of using a stale resource id.
static EXEC_GENERATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<ExecInner>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The (execution, thread-id) pair of the calling thread, when it is a
/// registered model thread.
pub(crate) fn current_ctx() -> Option<(Arc<ExecInner>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<(Arc<ExecInner>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Marker panic used to unwind model threads when an execution aborts
/// (failure elsewhere or step-limit). Not itself a failure.
pub(crate) struct AbortUnwind;

/// Unwinds a model thread out of an aborting execution — unless it is
/// unwinding already: a destructor (a guard's unpin, a lock release) that
/// reaches a yield point during the abort just runs unscheduled, because a
/// second panic inside a destructor would abort the process and lose the
/// failing schedule.
fn abort_unwind() {
    if !std::thread::panicking() {
        std::panic::panic_any(AbortUnwind);
    }
}

/// How the next branching choice is produced.
enum Strategy {
    /// DFS: beyond the replayed prefix, always take branch 0.
    First,
    /// Seed-driven pseudo-random branch selection (xorshift).
    Random(u64),
}

/// What a model thread is currently doing, from the scheduler's viewpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    BlockedMutex(usize),
    BlockedRw { rid: usize, write: bool },
    BlockedCv(usize),
    BlockedJoin(usize),
    Finished,
}

/// Scheduler-level state of one modeled resource.
enum Res {
    Mutex { held: bool },
    Rw { readers: usize, writer: bool },
    Cv,
}

struct SchedState {
    threads: Vec<Run>,
    /// Index of the only thread allowed to run; `usize::MAX` when none.
    current: usize,
    resources: Vec<Res>,
    /// Replayed choice prefix (branching decisions only).
    prefix: Vec<usize>,
    cursor: usize,
    strategy: Strategy,
    /// Record of branching decisions taken this run: (chosen, options).
    taken: Vec<(usize, usize)>,
    steps: usize,
    max_steps: usize,
    live: usize,
    failure: Option<String>,
    aborting: bool,
}

pub(crate) struct ExecInner {
    state: StdMutex<SchedState>,
    cv: StdCondvar,
    pub(crate) generation: u64,
}

impl ExecInner {
    fn new(prefix: Vec<usize>, strategy: Strategy, max_steps: usize) -> Arc<Self> {
        Arc::new(ExecInner {
            state: StdMutex::new(SchedState {
                threads: Vec::new(),
                current: usize::MAX,
                resources: Vec::new(),
                prefix,
                cursor: 0,
                strategy,
                taken: Vec::new(),
                steps: 0,
                max_steps,
                live: 0,
                failure: None,
                aborting: false,
            }),
            cv: StdCondvar::new(),
            generation: EXEC_GENERATION.fetch_add(1, Ordering::Relaxed),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    // -- registration -------------------------------------------------------

    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock();
        st.threads.push(Run::Runnable);
        st.live += 1;
        st.threads.len() - 1
    }

    pub(crate) fn register_mutex(&self) -> usize {
        let mut st = self.lock();
        st.resources.push(Res::Mutex { held: false });
        st.resources.len() - 1
    }

    pub(crate) fn register_rwlock(&self) -> usize {
        let mut st = self.lock();
        st.resources.push(Res::Rw { readers: 0, writer: false });
        st.resources.len() - 1
    }

    pub(crate) fn register_condvar(&self) -> usize {
        let mut st = self.lock();
        st.resources.push(Res::Cv);
        st.resources.len() - 1
    }

    // -- scheduling core ----------------------------------------------------

    /// Picks the next `current` among runnable threads, consuming a choice
    /// when more than one is enabled. Callers must arrange to block until
    /// they are scheduled again if the choice lands elsewhere.
    fn schedule_next(&self, st: &mut SchedState) {
        let enabled: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Run::Runnable))
            .map(|(i, _)| i)
            .collect();
        match enabled.len() {
            0 => {
                if st.live > 0 && !st.aborting {
                    let held: Vec<String> = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| !matches!(r, Run::Finished))
                        .map(|(i, r)| format!("t{i}:{r:?}"))
                        .collect();
                    self.fail_locked(st, format!("deadlock: all live threads blocked [{}]", held.join(", ")));
                }
                st.current = usize::MAX;
                self.cv.notify_all();
            }
            1 => {
                st.current = enabled[0];
                st.steps += 1;
                self.cv.notify_all();
            }
            n => {
                let choice = if st.cursor < st.prefix.len() {
                    st.prefix[st.cursor].min(n - 1)
                } else {
                    match &mut st.strategy {
                        Strategy::First => 0,
                        Strategy::Random(s) => {
                            // xorshift64*: deterministic per seed.
                            *s ^= *s << 13;
                            *s ^= *s >> 7;
                            *s ^= *s << 17;
                            (*s % n as u64) as usize
                        }
                    }
                };
                st.cursor += 1;
                st.taken.push((choice, n));
                st.current = enabled[choice];
                st.steps += 1;
                self.cv.notify_all();
            }
        }
        if st.steps > st.max_steps && !st.aborting {
            self.fail_locked(st, format!("step limit exceeded ({} steps)", st.max_steps));
        }
    }

    /// Blocks the calling model thread until it is scheduled again.
    fn wait_scheduled(&self, mut st: std::sync::MutexGuard<'_, SchedState>, tid: usize) {
        while st.current != tid && !st.aborting {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.aborting && !matches!(st.threads[tid], Run::Finished) {
            drop(st);
            abort_unwind();
        }
    }

    /// A plain yield point: re-run the scheduler, possibly switching away.
    pub(crate) fn yield_point(&self, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            return abort_unwind();
        }
        self.schedule_next(&mut st);
        self.wait_scheduled(st, tid);
    }

    /// Records a failure, aborts the execution, wakes everyone.
    fn fail_locked(&self, st: &mut SchedState, msg: String) {
        if st.failure.is_none() {
            let sched = encode_schedule(&st.taken);
            st.failure = Some(format!("{msg} [schedule {sched}]"));
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    pub(crate) fn fail(&self, msg: String) {
        let mut st = self.lock();
        self.fail_locked(&mut st, msg);
    }

    // -- blocking operations ------------------------------------------------

    pub(crate) fn op_acquire_mutex(&self, tid: usize, rid: usize) {
        self.yield_point(tid);
        loop {
            let mut st = self.lock();
            match &mut st.resources[rid] {
                Res::Mutex { held } if !*held => {
                    *held = true;
                    return;
                }
                Res::Mutex { .. } => {
                    st.threads[tid] = Run::BlockedMutex(rid);
                    self.schedule_next(&mut st);
                    self.wait_scheduled(st, tid);
                }
                _ => unreachable!("resource {rid} is not a mutex"),
            }
        }
    }

    /// Non-blocking acquire attempt; still a scheduling point.
    pub(crate) fn op_try_acquire_mutex(&self, tid: usize, rid: usize) -> bool {
        self.yield_point(tid);
        let mut st = self.lock();
        match &mut st.resources[rid] {
            Res::Mutex { held } if !*held => {
                *held = true;
                true
            }
            Res::Mutex { .. } => false,
            _ => unreachable!("resource {rid} is not a mutex"),
        }
    }

    pub(crate) fn op_release_mutex(&self, rid: usize) {
        let mut st = self.lock();
        match &mut st.resources[rid] {
            Res::Mutex { held } => *held = false,
            _ => unreachable!("resource {rid} is not a mutex"),
        }
        wake_mutex_waiters(&mut st, rid);
        self.cv.notify_all();
    }

    pub(crate) fn op_acquire_rw(&self, tid: usize, rid: usize, write: bool) {
        self.yield_point(tid);
        loop {
            let mut st = self.lock();
            match &mut st.resources[rid] {
                Res::Rw { readers, writer } => {
                    let free = if write { !*writer && *readers == 0 } else { !*writer };
                    if free {
                        if write {
                            *writer = true;
                        } else {
                            *readers += 1;
                        }
                        return;
                    }
                    st.threads[tid] = Run::BlockedRw { rid, write };
                    self.schedule_next(&mut st);
                    self.wait_scheduled(st, tid);
                }
                _ => unreachable!("resource {rid} is not a rwlock"),
            }
        }
    }

    pub(crate) fn op_release_rw(&self, rid: usize, write: bool) {
        let mut st = self.lock();
        match &mut st.resources[rid] {
            Res::Rw { readers, writer } => {
                if write {
                    *writer = false;
                } else {
                    *readers = readers.saturating_sub(1);
                }
            }
            _ => unreachable!("resource {rid} is not a rwlock"),
        }
        for r in st.threads.iter_mut() {
            if matches!(r, Run::BlockedRw { rid: b, .. } if *b == rid) {
                *r = Run::Runnable;
            }
        }
        self.cv.notify_all();
    }

    /// Condvar wait: release `mutex_rid`, block on `cv_rid`, and on wake-up
    /// re-acquire the mutex at the scheduler level before returning.
    pub(crate) fn op_cv_wait(&self, tid: usize, cv_rid: usize, mutex_rid: usize) {
        {
            let mut st = self.lock();
            match &mut st.resources[mutex_rid] {
                Res::Mutex { held } => *held = false,
                _ => unreachable!("resource {mutex_rid} is not a mutex"),
            }
            wake_mutex_waiters(&mut st, mutex_rid);
            st.threads[tid] = Run::BlockedCv(cv_rid);
            self.schedule_next(&mut st);
            self.wait_scheduled(st, tid);
        }
        // Notified (possibly spuriously): contend for the mutex again.
        loop {
            let mut st = self.lock();
            match &mut st.resources[mutex_rid] {
                Res::Mutex { held } if !*held => {
                    *held = true;
                    return;
                }
                Res::Mutex { .. } => {
                    st.threads[tid] = Run::BlockedMutex(mutex_rid);
                    self.schedule_next(&mut st);
                    self.wait_scheduled(st, tid);
                }
                _ => unreachable!("resource {mutex_rid} is not a mutex"),
            }
        }
    }

    /// Wakes every waiter of the condvar. `notify_one` also maps here:
    /// waking more threads than strictly necessary is a legal condvar
    /// behavior (spurious wakeups), so this over-approximation is sound.
    pub(crate) fn op_notify(&self, cv_rid: usize) {
        let mut st = self.lock();
        for r in st.threads.iter_mut() {
            if matches!(r, Run::BlockedCv(c) if *c == cv_rid) {
                *r = Run::Runnable;
            }
        }
        self.cv.notify_all();
    }

    pub(crate) fn op_join(&self, tid: usize, target: usize) {
        self.yield_point(tid);
        loop {
            let mut st = self.lock();
            if matches!(st.threads[target], Run::Finished) {
                return;
            }
            st.threads[tid] = Run::BlockedJoin(target);
            self.schedule_next(&mut st);
            self.wait_scheduled(st, tid);
        }
    }

    pub(crate) fn finish_thread(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid] = Run::Finished;
        st.live -= 1;
        for r in st.threads.iter_mut() {
            if matches!(r, Run::BlockedJoin(t) if *t == tid) {
                *r = Run::Runnable;
            }
        }
        if st.live == 0 {
            st.current = usize::MAX;
            self.cv.notify_all();
        } else {
            self.schedule_next(&mut st);
        }
    }

    fn wait_all_finished(&self) {
        let mut st = self.lock();
        while st.live > 0 {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

fn wake_mutex_waiters(st: &mut SchedState, rid: usize) {
    for r in st.threads.iter_mut() {
        if matches!(r, Run::BlockedMutex(m) if *m == rid) {
            *r = Run::Runnable;
        }
    }
}

// ---------------------------------------------------------------------------
// Spawning model threads
// ---------------------------------------------------------------------------

/// Runs `f` as a registered model thread, reporting panics as failures.
pub(crate) fn spawn_model_thread<T: Send + 'static>(
    exec: &Arc<ExecInner>,
    tid: usize,
    f: impl FnOnce() -> T + Send + 'static,
) -> (std::thread::JoinHandle<()>, Arc<StdMutex<Option<T>>>) {
    let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
    let slot2 = Arc::clone(&slot);
    let exec = Arc::clone(exec);
    let handle = std::thread::Builder::new()
        .name(format!("payg-check-t{tid}"))
        .spawn(move || {
            set_ctx(Some((Arc::clone(&exec), tid)));
            // Wait until the scheduler picks this thread for the first time.
            {
                let st = exec.lock();
                exec.wait_scheduled(st, tid);
            }
            let result = std::panic::catch_unwind(AssertUnwindSafe(f));
            set_ctx(None);
            match result {
                Ok(v) => {
                    *slot2.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
                }
                Err(payload) => {
                    if payload.downcast_ref::<AbortUnwind>().is_none() {
                        // `&*payload`: pass the payload itself as `dyn Any`,
                        // not the Box (which would defeat the downcasts).
                        exec.fail(panic_message(&*payload));
                    }
                }
            }
            exec.finish_thread(tid);
        })
        .expect("spawn model thread");
    (handle, slot)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

// ---------------------------------------------------------------------------
// Public driver
// ---------------------------------------------------------------------------

/// A failing interleaving found by the checker.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The panic / invariant message from the failing run.
    pub message: String,
    /// The schedule string reproducing the failure via [`replay`].
    pub schedule: String,
}

/// Result of a checking session.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct interleavings executed.
    pub iterations: usize,
    /// True when the DFS explored the entire schedule space.
    pub exhausted: bool,
    /// The first failure found, if any.
    pub failure: Option<Failure>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            Some(fail) => write!(
                f,
                "FAILED after {} interleavings: {} (replay with schedule {})",
                self.iterations, fail.message, fail.schedule
            ),
            None => write!(
                f,
                "ok: {} interleavings explored{}",
                self.iterations,
                if self.exhausted { " (exhaustive)" } else { " (bounded)" }
            ),
        }
    }
}

/// Configuration for a checking session.
#[derive(Debug, Clone)]
pub struct Checker {
    max_iterations: usize,
    max_steps: usize,
    random_seed: Option<u64>,
    random_iterations: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            max_iterations: 100_000,
            max_steps: 100_000,
            random_seed: None,
            random_iterations: 0,
        }
    }
}

impl Checker {
    /// Exhaustive DFS exploration (bounded by `max_iterations`).
    pub fn exhaustive() -> Self {
        Self::default()
    }

    /// Caps the number of interleavings explored.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Caps scheduling steps per interleaving (livelock guard).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Adds `iterations` seed-driven random schedules after (instead of)
    /// DFS: useful for huge state spaces.
    pub fn random(mut self, seed: u64, iterations: usize) -> Self {
        self.random_seed = Some(seed);
        self.random_iterations = iterations;
        self
    }

    /// Runs `f` repeatedly under distinct schedules. Returns the report;
    /// never panics on model failure (see [`model`] for the panicking
    /// variant).
    pub fn check(&self, f: impl Fn() + Send + Sync + 'static) -> Report {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        if let Some(seed) = self.random_seed {
            return self.check_random(seed, f);
        }
        let mut prefix: Vec<usize> = Vec::new();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let run = run_once(prefix.clone(), Strategy::First, self.max_steps, Arc::clone(&f));
            if let Some(msg) = run.failure {
                return Report {
                    iterations,
                    exhausted: false,
                    failure: Some(Failure { schedule: encode_schedule(&run.taken), message: msg }),
                };
            }
            // Next DFS prefix: last branch with an untried sibling.
            let mut next: Option<Vec<usize>> = None;
            for i in (0..run.taken.len()).rev() {
                let (chosen, options) = run.taken[i];
                if chosen + 1 < options {
                    let mut p: Vec<usize> = run.taken[..i].iter().map(|&(c, _)| c).collect();
                    p.push(chosen + 1);
                    next = Some(p);
                    break;
                }
            }
            match next {
                Some(p) if iterations < self.max_iterations => prefix = p,
                Some(_) => return Report { iterations, exhausted: false, failure: None },
                None => return Report { iterations, exhausted: true, failure: None },
            }
        }
    }

    fn check_random(&self, seed: u64, f: Arc<dyn Fn() + Send + Sync>) -> Report {
        let iters = self.random_iterations.max(1);
        for i in 0..iters {
            let run = run_once(
                Vec::new(),
                Strategy::Random(seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1),
                self.max_steps,
                Arc::clone(&f),
            );
            if let Some(msg) = run.failure {
                return Report {
                    iterations: i + 1,
                    exhausted: false,
                    failure: Some(Failure { schedule: encode_schedule(&run.taken), message: msg }),
                };
            }
        }
        Report { iterations: iters, exhausted: false, failure: None }
    }
}

struct RunOutcome {
    taken: Vec<(usize, usize)>,
    failure: Option<String>,
}

fn run_once(
    prefix: Vec<usize>,
    strategy: Strategy,
    max_steps: usize,
    f: Arc<dyn Fn() + Send + Sync>,
) -> RunOutcome {
    let exec = ExecInner::new(prefix, strategy, max_steps);
    let tid0 = exec.register_thread();
    {
        // Make tid0 current so the root thread starts immediately.
        let mut st = exec.lock();
        st.current = tid0;
    }
    let (handle, _slot) = spawn_model_thread(&exec, tid0, move || f());
    exec.wait_all_finished();
    let _ = handle.join();
    // Any stragglers spawned by the model but never joined have finished
    // (live == 0 counts every registered thread).
    let st = exec.lock();
    RunOutcome { taken: st.taken.clone(), failure: st.failure.clone() }
}

/// Checks `f` exhaustively and panics with the failing schedule if any
/// interleaving fails — the loom-style entry point.
pub fn model(f: impl Fn() + Send + Sync + 'static) {
    let report = Checker::exhaustive().check(f);
    if let Some(fail) = report.failure {
        panic!(
            "model check failed after {} interleavings: {} (schedule {})",
            report.iterations, fail.message, fail.schedule
        );
    }
}

/// Re-runs `f` under exactly the given schedule string (from a
/// [`Failure`]); returns that single run's report.
pub fn replay(schedule: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
    let prefix = decode_schedule(schedule);
    let run = run_once(prefix, Strategy::First, 100_000, Arc::new(f));
    Report {
        iterations: 1,
        exhausted: false,
        failure: run.failure.map(|msg| Failure {
            schedule: encode_schedule(&run.taken),
            message: msg,
        }),
    }
}

fn encode_schedule(taken: &[(usize, usize)]) -> String {
    let parts: Vec<String> = taken.iter().map(|&(c, _)| c.to_string()).collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(".")
    }
}

fn decode_schedule(s: &str) -> Vec<usize> {
    if s == "-" {
        return Vec::new();
    }
    s.split('.').filter_map(|p| p.parse().ok()).collect()
}

// ---------------------------------------------------------------------------
// Registration helper shared by the sync wrappers
// ---------------------------------------------------------------------------

/// Lazily maps a sync object to a per-execution resource id, re-registering
/// when the object outlives one execution (generation mismatch).
#[derive(Default)]
pub(crate) struct ResourceCell {
    slot: StdMutex<Option<(u64, usize)>>,
}

impl ResourceCell {
    pub(crate) const fn new() -> Self {
        ResourceCell { slot: StdMutex::new(None) }
    }

    pub(crate) fn id(&self, exec: &Arc<ExecInner>, register: impl FnOnce() -> usize) -> usize {
        let mut slot = self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match *slot {
            Some((generation, rid)) if generation == exec.generation => rid,
            _ => {
                let rid = register();
                *slot = Some((exec.generation, rid));
                rid
            }
        }
    }
}

/// Per-execution scratch storage for model tests that need a place to stash
/// invariant observations keyed by name (e.g. per-key load counters).
#[derive(Default)]
pub struct Observations {
    map: StdMutex<HashMap<String, u64>>,
}

impl Observations {
    /// New, empty observation table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, returning the new value.
    pub fn add(&self, name: &str, delta: u64) -> u64 {
        let mut m = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let e = m.entry(name.to_string()).or_insert(0);
        *e += delta;
        *e
    }

    /// Reads a counter (0 when never written).
    pub fn get(&self, name: &str) -> u64 {
        let m = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        m.get(name).copied().unwrap_or(0)
    }
}

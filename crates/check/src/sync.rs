//! Model-checkable synchronization primitives.
//!
//! Drop-in replacements for the `parking_lot` subset this workspace uses
//! (`Mutex`, `MutexGuard`, `Condvar`, `RwLock`) plus sequentially-consistent
//! atomic wrappers. Inside a [`crate::model`] run every operation is a
//! scheduler yield point, so the checker can explore interleavings around
//! it; **outside** a model run the wrappers degrade to plain (non-poisoning)
//! `std::sync` behavior, so code built with `--cfg payg_check` still works
//! in ordinary tests.
//!
//! Create the locks *inside* the model closure: a lock object reused across
//! model iterations re-registers itself per execution, but sharing one
//! between a model thread and a non-model thread is unsupported (the
//! non-model thread would bypass the scheduler).

use crate::lockorder::{self, LockRank, OrderToken};
use crate::sched::{self, ExecInner, ResourceCell};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, PoisonError};

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A model-checkable mutual-exclusion lock.
pub struct Mutex<T: ?Sized> {
    rank: Option<LockRank>,
    res: ResourceCell,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates an unranked mutex.
    pub fn new(value: T) -> Self {
        Mutex { rank: None, res: ResourceCell::new(), inner: std::sync::Mutex::new(value) }
    }

    /// Creates a mutex participating in lock-order checking at `rank`.
    pub fn with_rank(value: T, rank: LockRank) -> Self {
        Mutex { rank: Some(rank), res: ResourceCell::new(), inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner().map_err(|e| PoisonError::new(e.into_inner())))
    }
}

impl<T: ?Sized> Mutex<T> {
    fn modeled(&self) -> Option<(Arc<ExecInner>, usize, usize)> {
        let (exec, tid) = sched::current_ctx()?;
        let rid = self.res.id(&exec, || exec.register_mutex());
        Some((exec, tid, rid))
    }

    /// Acquires the lock, blocking (or descheduling, under the model) until
    /// available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = self.rank.map(lockorder::acquire);
        match self.modeled() {
            Some((exec, tid, rid)) => {
                exec.op_acquire_mutex(tid, rid);
                let std = self
                    .inner
                    .try_lock()
                    .unwrap_or_else(|_| panic!("payg-check: modeled mutex contended at std level"));
                MutexGuard { lock: self, std: Some(std), modeled: Some((exec, rid)), _token: token }
            }
            None => MutexGuard {
                lock: self,
                std: Some(recover(self.inner.lock())),
                modeled: None,
                _token: token,
            },
        }
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.modeled() {
            Some((exec, tid, rid)) => {
                if !exec.op_try_acquire_mutex(tid, rid) {
                    return None;
                }
                let token = self.rank.map(lockorder::acquire);
                let std = self
                    .inner
                    .try_lock()
                    .unwrap_or_else(|_| panic!("payg-check: modeled mutex contended at std level"));
                Some(MutexGuard { lock: self, std: Some(std), modeled: Some((exec, rid)), _token: token })
            }
            None => match self.inner.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    std: Some(g),
                    modeled: None,
                    _token: self.rank.map(lockorder::acquire),
                }),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    modeled: None,
                    _token: self.rank.map(lockorder::acquire),
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            },
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut().map_err(|e| PoisonError::new(e.into_inner())))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`]. The `Option` exists so [`Condvar::wait`] can
/// temporarily surrender the underlying std guard.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    std: Option<std::sync::MutexGuard<'a, T>>,
    modeled: Option<(Arc<ExecInner>, usize)>,
    _token: Option<OrderToken>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.std.take();
        if let Some((exec, rid)) = self.modeled.take() {
            exec.op_release_mutex(rid);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A model-checkable condition variable for use with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    res: ResourceCell,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar { res: ResourceCell::new(), inner: std::sync::Condvar::new() }
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match &guard.modeled {
            Some((exec, mutex_rid)) => {
                let exec = Arc::clone(exec);
                let mutex_rid = *mutex_rid;
                let (_, tid) = sched::current_ctx().expect("modeled guard outside model thread");
                let cv_rid = self.res.id(&exec, || exec.register_condvar());
                // Surrender the real lock, deschedule, reacquire on wake.
                drop(guard.std.take());
                exec.op_cv_wait(tid, cv_rid, mutex_rid);
                guard.std = Some(
                    guard
                        .lock
                        .inner
                        .try_lock()
                        .unwrap_or_else(|_| panic!("payg-check: modeled mutex contended at std level")),
                );
            }
            None => {
                let std = guard.std.take().expect("guard present");
                guard.std = Some(recover(self.inner.wait(std)));
            }
        }
    }

    /// Wakes one waiter. Under the model this wakes all waiters (a legal
    /// over-approximation: condvars permit spurious wakeups).
    pub fn notify_one(&self) {
        match sched::current_ctx() {
            Some((exec, _)) => {
                let cv_rid = self.res.id(&exec, || exec.register_condvar());
                exec.op_notify(cv_rid);
            }
            None => self.inner.notify_one(),
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        match sched::current_ctx() {
            Some((exec, _)) => {
                let cv_rid = self.res.id(&exec, || exec.register_condvar());
                exec.op_notify(cv_rid);
            }
            None => self.inner.notify_all(),
        }
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A model-checkable reader-writer lock.
pub struct RwLock<T: ?Sized> {
    rank: Option<LockRank>,
    res: ResourceCell,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates an unranked rwlock.
    pub fn new(value: T) -> Self {
        RwLock { rank: None, res: ResourceCell::new(), inner: std::sync::RwLock::new(value) }
    }

    /// Creates a rwlock participating in lock-order checking at `rank`.
    pub fn with_rank(value: T, rank: LockRank) -> Self {
        RwLock { rank: Some(rank), res: ResourceCell::new(), inner: std::sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner().map_err(|e| PoisonError::new(e.into_inner())))
    }
}

impl<T: ?Sized> RwLock<T> {
    fn modeled(&self) -> Option<(Arc<ExecInner>, usize, usize)> {
        let (exec, tid) = sched::current_ctx()?;
        let rid = self.res.id(&exec, || exec.register_rwlock());
        Some((exec, tid, rid))
    }

    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = self.rank.map(lockorder::acquire);
        match self.modeled() {
            Some((exec, tid, rid)) => {
                exec.op_acquire_rw(tid, rid, false);
                let std = self
                    .inner
                    .try_read()
                    .unwrap_or_else(|_| panic!("payg-check: modeled rwlock contended at std level"));
                RwLockReadGuard { std: Some(std), modeled: Some((exec, rid)), _token: token }
            }
            None => RwLockReadGuard {
                std: Some(recover(self.inner.read())),
                modeled: None,
                _token: token,
            },
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = self.rank.map(lockorder::acquire);
        match self.modeled() {
            Some((exec, tid, rid)) => {
                exec.op_acquire_rw(tid, rid, true);
                let std = self
                    .inner
                    .try_write()
                    .unwrap_or_else(|_| panic!("payg-check: modeled rwlock contended at std level"));
                RwLockWriteGuard { std: Some(std), modeled: Some((exec, rid)), _token: token }
            }
            None => RwLockWriteGuard {
                std: Some(recover(self.inner.write())),
                modeled: None,
                _token: token,
            },
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut().map_err(|e| PoisonError::new(e.into_inner())))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    std: Option<std::sync::RwLockReadGuard<'a, T>>,
    modeled: Option<(Arc<ExecInner>, usize)>,
    _token: Option<OrderToken>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.std.take();
        if let Some((exec, rid)) = self.modeled.take() {
            exec.op_release_rw(rid, false);
        }
    }
}

/// RAII exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    std: Option<std::sync::RwLockWriteGuard<'a, T>>,
    modeled: Option<(Arc<ExecInner>, usize)>,
    _token: Option<OrderToken>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.std.take();
        if let Some((exec, rid)) = self.modeled.take() {
            exec.op_release_rw(rid, true);
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Sequentially-consistent atomic wrappers. Each operation is a scheduler
/// yield point inside a model run; the model explores interleavings at
/// operation granularity (weak-memory reorderings are out of scope).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    macro_rules! atomic_wrapper {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Model-checkable atomic integer.
            #[derive(Default, Debug)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic.
                pub fn new(v: $prim) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                fn yield_point() {
                    if let Some((exec, tid)) = crate::sched::current_ctx() {
                        exec.yield_point(tid);
                    }
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $prim {
                    Self::yield_point();
                    self.inner.load(order)
                }

                /// Atomic store.
                pub fn store(&self, v: $prim, order: Ordering) {
                    Self::yield_point();
                    self.inner.store(v, order)
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    Self::yield_point();
                    self.inner.fetch_add(v, order)
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    Self::yield_point();
                    self.inner.fetch_sub(v, order)
                }

                /// Atomic compare-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    Self::yield_point();
                    self.inner.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    atomic_wrapper!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    atomic_wrapper!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    atomic_wrapper!(AtomicU64, std::sync::atomic::AtomicU64, u64);

    /// Model-checkable atomic boolean.
    #[derive(Default, Debug)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic bool.
        pub fn new(v: bool) -> Self {
            Self { inner: std::sync::atomic::AtomicBool::new(v) }
        }

        fn yield_point() {
            if let Some((exec, tid)) = crate::sched::current_ctx() {
                exec.yield_point(tid);
            }
        }

        /// Atomic load.
        pub fn load(&self, order: Ordering) -> bool {
            Self::yield_point();
            self.inner.load(order)
        }

        /// Atomic store.
        pub fn store(&self, v: bool, order: Ordering) {
            Self::yield_point();
            self.inner.store(v, order)
        }

        /// Atomic swap.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            Self::yield_point();
            self.inner.swap(v, order)
        }
    }
}

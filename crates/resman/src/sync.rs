//! Synchronization alias layer (the only module allowed to name raw lock
//! types — enforced by `cargo xtask lint` rule `raw-lock`).
//!
//! Built normally, these resolve to `payg-check`'s zero-overhead raw
//! wrappers (plain non-poisoning `std::sync` locks plus lock-rank tracking
//! under `strict-invariants`). Built with `RUSTFLAGS="--cfg payg_check"`,
//! they resolve to the modeled wrappers, making every lock operation in
//! this crate a deterministic-scheduler yield point so model tests explore
//! real interleavings of the *production* code.

#[cfg(payg_check)]
pub use payg_check::sync::{Mutex, MutexGuard};

#[cfg(not(payg_check))]
pub use payg_check::raw::{RawMutex as Mutex, RawMutexGuard as MutexGuard};

pub use payg_check::LockRank;

/// Atomics of the pin protocol: modeled (every operation a scheduler yield
/// point) under `--cfg payg_check`, plain `std` otherwise.
pub mod atomic {
    #[cfg(payg_check)]
    pub use payg_check::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    #[cfg(not(payg_check))]
    pub use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
}

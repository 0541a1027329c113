//! Seeded lint-violation fixture. NEVER "fix" this file: the xtask lint
//! unit test `seeded_violation_fixture_fails` asserts that every rule
//! below is detected. It is linted as if it lived at
//! `crates/storage/src/fixture.rs` and is excluded from real lint runs
//! (fixtures/ trees are never collected).

use std::sync::Mutex; // raw-lock: must use crate::sync wrappers

static CELL: Mutex<Option<u32>> = Mutex::new(None);

fn unwrap_violation() -> u32 {
    CELL.lock().unwrap().expect("value present") // unwrap: typed error required
}

fn sleep_violation() {
    std::thread::sleep(std::time::Duration::from_millis(50)); // sleep: inject a sleeper
}

fn safety_violation(p: *const u32) -> u32 {
    unsafe { *p } // no safety comment anywhere near this block
}

struct RawCounterViolation {
    hits: std::sync::atomic::AtomicU64, // raw-counter: use payg_obs::Counter
}

fn stringly_error_violation(detail: String) -> StorageError {
    StorageError::Corrupt(detail) // stringly-error: use StorageError::corrupt()
}

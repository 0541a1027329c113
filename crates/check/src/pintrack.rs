//! Pin-leak detection for RAII guards (`strict-invariants` only).
//!
//! A [`PinTracker`] hands out numbered [`PinToken`]s tagged with an owner
//! string (call site + thread). A token carries its own handle to the
//! tracker's live set and returns itself when dropped, so the guard holding
//! it needs no way back to the tracker's owner;
//! [`PinTracker::assert_none_live`] panics listing every outstanding owner,
//! which turns "a `PageGuard` leaked somewhere" into an actionable message.
//! Outside `strict-invariants` builds everything is a zero-sized no-op.

#[cfg(feature = "strict-invariants")]
use crate::raw::RawMutex;
#[cfg(feature = "strict-invariants")]
use std::collections::BTreeMap;
#[cfg(feature = "strict-invariants")]
use std::sync::Arc;

/// Next token id plus the owner tag of every live pin.
#[cfg(feature = "strict-invariants")]
type Live = Arc<RawMutex<(u64, BTreeMap<u64, String>)>>;
#[cfg(not(feature = "strict-invariants"))]
type Live = ();

/// Registry of live pins. Embed one per pool and call
/// [`assert_none_live`](Self::assert_none_live) at quiesce points
/// (`clear()`, drop, end of test).
#[derive(Default)]
pub struct PinTracker {
    live: Live,
}

/// Token held by a guard for its lifetime; dropping it releases the pin.
pub struct PinToken {
    #[cfg(feature = "strict-invariants")]
    id: u64,
    live: Live,
}

#[cfg(feature = "strict-invariants")]
fn issue(live: &Live, owner: impl FnOnce() -> String) -> PinToken {
    let mut g = live.lock();
    g.0 += 1;
    let id = g.0;
    let tag = format!("{} [thread {}]", owner(), std::thread::current().name().unwrap_or("?"));
    g.1.insert(id, tag);
    PinToken { id, live: Arc::clone(live) }
}

/// No-op outside `strict-invariants` builds: the owner tag is never built.
#[cfg(not(feature = "strict-invariants"))]
fn issue(_live: &Live, _owner: impl FnOnce() -> String) -> PinToken {
    PinToken { live: () }
}

impl PinToken {
    /// Registers another live pin with the tracker that issued this token —
    /// a guard cloning itself pins again without reaching its pool.
    pub fn fork(&self, owner: impl FnOnce() -> String) -> PinToken {
        issue(&self.live, owner)
    }
}

#[cfg(feature = "strict-invariants")]
impl Drop for PinToken {
    fn drop(&mut self) {
        self.live.lock().1.remove(&self.id);
    }
}

impl PinTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new live pin owned by `owner` (a human-readable tag:
    /// call site, page key, thread name).
    pub fn pin(&self, owner: impl FnOnce() -> String) -> PinToken {
        issue(&self.live, owner)
    }

    /// Number of currently live pins (always 0 without the feature).
    pub fn live_count(&self) -> usize {
        #[cfg(feature = "strict-invariants")]
        {
            self.live.lock().1.len()
        }
        #[cfg(not(feature = "strict-invariants"))]
        {
            0
        }
    }

    /// Panics with every outstanding owner tag if any pin is still live.
    /// `context` names the quiesce point (e.g. `"BufferPool::clear"`).
    pub fn assert_none_live(&self, context: &str) {
        #[cfg(feature = "strict-invariants")]
        {
            let g = self.live.lock();
            if !g.1.is_empty() {
                let owners: Vec<&str> = g.1.values().map(String::as_str).collect();
                panic!(
                    "pin leak at {context}: {} guard(s) still live: {}",
                    owners.len(),
                    owners.join("; ")
                );
            }
        }
        #[cfg(not(feature = "strict-invariants"))]
        {
            let _ = context;
        }
    }
}

#[cfg(all(test, feature = "strict-invariants"))]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_roundtrip() {
        let t = PinTracker::new();
        let a = t.pin(|| "page 1".to_string());
        let b = t.pin(|| "page 2".to_string());
        assert_eq!(t.live_count(), 2);
        drop(a);
        drop(b);
        t.assert_none_live("test");
    }

    #[test]
    #[should_panic(expected = "pin leak at test: 1 guard(s) still live")]
    fn leak_is_reported_with_owner() {
        let t = PinTracker::new();
        let _leaked = t.pin(|| "page 7 via scan".to_string());
        t.assert_none_live("test");
    }
}

//! Lock-order (rank) tracking.
//!
//! Every lock in the paged storage stack is assigned a [`LockRank`]; a
//! thread may only acquire locks in **strictly increasing** rank order.
//! This is checked at runtime only under the `strict-invariants` feature
//! (a thread-local stack of held ranks); otherwise [`acquire`] is a no-op
//! and the tracker compiles away.
//!
//! The rank values encode the workspace-wide ordering, verified against
//! every nesting path in `payg-storage::pool` and `payg-resman::manager`:
//!
//! | rank | lock |
//! |-----:|------|
//! | 2  | core column state (resident image, permanent helper pins) |
//! | 3  | I/O stage submission queue |
//! | 5  | `LoadState.done` (single-flight publish) |
//! | 6  | I/O stage fetch ticket (completion latch) |
//! | 10 | pool `Shard.slots` |
//! | 25 | resman `Inner.limits` |
//! | 30 | resman `Inner.state` |
//! | 35 | resman `Inner.proactive` |
//!
//! Same-rank reacquisition is also rejected: two shard locks must never be
//! held at once (the pool promises independence between shards).

/// One row of the workspace rank table: a [`LockRank`] variant's name and
/// numeric rank, exposed so the static analyzer (`cargo xtask analyze`)
/// checks source code against the *same declaration* the runtime tracker
/// enforces — the two can never drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSpec {
    /// The variant name as it appears at `with_rank` sites
    /// (`LockRank::PoolShard` → `"PoolShard"`).
    pub name: &'static str,
    /// The numeric rank (ascending = inner).
    pub rank: u8,
}

/// Declares [`LockRank`] and [`RANK_TABLE`] from one list so the runtime
/// tracker and the static lock-rank pass share a single declaration.
macro_rules! define_ranks {
    ($( $(#[$meta:meta])* $name:ident = $value:literal ),+ $(,)?) => {
        /// Ranks for the workspace lock-order discipline (ascending = inner).
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
        #[repr(u8)]
        pub enum LockRank {
            $( $(#[$meta])* $name = $value, )+
        }

        /// The full rank table, in declaration order. Generated from the
        /// same `define_ranks!` invocation that defines [`LockRank`].
        pub static RANK_TABLE: &[RankSpec] = &[
            $( RankSpec { name: stringify!($name), rank: $value }, )+
        ];
    };
}

define_ranks! {
    /// Core column-level state (resident image slot, permanent helper
    /// pins): outermost — held while pinning pages or registering
    /// resources, never acquired with a storage/resman lock held.
    CoreColumn = 2,
    /// I/O stage submission queue — held only to push or pop fetch
    /// requests, never across a shard lock or a store call.
    IoQueue = 3,
    /// Single-flight `LoadState` mutex — never nests inside anything.
    LoadState = 5,
    /// I/O stage fetch ticket (the completion latch between a submitting
    /// pin and the worker that resolves it) — waited on with no other lock
    /// held.
    IoTicket = 6,
    /// Buffer pool shard map.
    PoolShard = 10,
    /// Resource manager paged-pool limits.
    ResmanLimits = 25,
    /// Resource manager entry table / accounting.
    ResmanState = 30,
    /// Resource manager proactive-worker handle.
    ResmanProactive = 35,
}

/// RAII token recording one held rank; dropping it releases the rank.
///
/// Tokens may be dropped in any order (guards are sometimes released
/// out of LIFO order, e.g. `let (_a, b) = ...`): release removes the
/// **last occurrence of the value**, not the top of the stack.
#[must_use]
pub struct OrderToken {
    #[cfg(feature = "strict-invariants")]
    rank: LockRank,
}

/// Registers acquisition of `rank` by the current thread, panicking on a
/// lock-order violation when `strict-invariants` is enabled.
#[cfg(feature = "strict-invariants")]
pub fn acquire(rank: LockRank) -> OrderToken {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(&top) = held.iter().max() {
            assert!(
                rank > top,
                "lock-order violation: acquiring {rank:?} (rank {}) while holding {top:?} (rank {}); \
                 locks must be taken in strictly increasing rank order",
                rank as u8,
                top as u8,
            );
        }
        held.push(rank);
    });
    OrderToken { rank }
}

/// No-op outside `strict-invariants` builds.
#[cfg(not(feature = "strict-invariants"))]
pub fn acquire(_rank: LockRank) -> OrderToken {
    OrderToken {}
}

#[cfg(feature = "strict-invariants")]
thread_local! {
    static HELD: std::cell::RefCell<Vec<LockRank>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(feature = "strict-invariants")]
impl Drop for OrderToken {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == self.rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::no_effect_underscore_binding)]
    use super::*;

    #[test]
    fn increasing_order_is_accepted() {
        let _a = acquire(LockRank::PoolShard);
        let _b = acquire(LockRank::ResmanLimits);
        let _c = acquire(LockRank::ResmanState);
    }

    #[test]
    fn tokens_release_out_of_order() {
        let a = acquire(LockRank::PoolShard);
        let b = acquire(LockRank::ResmanState);
        drop(a);
        drop(b);
        // Stack empty again: low rank is fine now.
        let _c = acquire(LockRank::LoadState);
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn decreasing_order_panics() {
        let _a = acquire(LockRank::ResmanState);
        let _b = acquire(LockRank::PoolShard);
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_reacquisition_panics() {
        let _a = acquire(LockRank::PoolShard);
        let _b = acquire(LockRank::PoolShard);
    }
}

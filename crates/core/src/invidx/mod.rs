//! Inverted indexes (paper §3.3).
//!
//! An inverted index of a dictionary-encoded data vector maps each value
//! identifier to its *postinglist* — the set of row positions holding that
//! identifier. Physically it is two vectors: the postinglist (row positions
//! grouped by vid) and the *directory* (offset of each vid's first posting).
//!
//! * [`InMemoryInvertedIndex`]: both vectors resident as packed vectors.
//! * [`PagedInvertedIndex`]: both persisted in **one** chain of index pages —
//!   Elias-Fano postinglist pages, the skip table of their partitions, then
//!   bit-packed directory pages (Fig. 3) — with an iterator that computes
//!   the page of any directory entry arithmetically (Eq. 1, Eq. 2), finds a
//!   posting partition through one skip-table entry, and therefore loads at
//!   most three pages per lookup.
//!
//! For **unique** columns every value appears in exactly one row, the
//! directory is the identity, and it is elided entirely.
//!
//! Because postings are grouped by vid and the dictionary is order
//! preserving, a value range is one vid range is one contiguous postinglist
//! slice — a **posting run**. Every index read is a run: both indexes
//! have `posting_run`, the paged one on its iterator too
//! ([`PagedIndexIterator::position_run`], then a drain), and a single vid
//! is the run `v..=v`. A row search walks `for_each_run` of its vid set
//! and reads each run whole — there is no seek within a posting list.

mod in_memory;
mod paged;

pub use in_memory::InMemoryInvertedIndex;
pub use paged::{PagedIndexIterator, PagedInvertedIndex};

use crate::CoreResult;
use payg_encoding::VidSet;

/// Calls `f(lo, hi)` for each posting run of `set`: a range (or a single
/// vid) is one run; sorted and bitmap sets are one one-vid run per member.
pub(crate) fn for_each_run(
    set: &VidSet,
    mut f: impl FnMut(u64, u64) -> CoreResult<()>,
) -> CoreResult<()> {
    match set {
        VidSet::Single(v) => f(*v, *v),
        VidSet::Range { lo, hi } => f(*lo, *hi),
        VidSet::Sorted(_) | VidSet::Bitmap(_) => set.iter().try_for_each(|v| f(v, v)),
    }
}

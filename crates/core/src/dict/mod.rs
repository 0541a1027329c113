//! Order-preserving dictionaries (paper §3.2).
//!
//! Main-fragment dictionaries are created sorted during delta merge; value
//! identifiers are assigned in key order, so `vid` comparisons are value
//! comparisons. Keys are order-preserving byte strings (see
//! [`crate::value::Value::to_key`]), so one ordering — `memcmp` — serves
//! all column types.
//!
//! * [`FrontCodedDict`] is a default (fully resident) column's dictionary:
//!   the sorted keys front-coded in blocks of [`FRONT_CODED_BLOCK`], the
//!   block heads binary-searched, one block walked.
//! * [`InMemoryDict`] is the builders' and merges' transient: the sorted
//!   keys in one byte arena with an end offset per key, binary-searched, so
//!   every key is a borrowed slice.
//! * [`UnsortedDict`] assigns identifiers in arrival order — the delta's
//!   dictionary, and the encoder of a column built from values — over the
//!   same arena, with a hash table of identifiers.
//! * [`PagedDictionary`] is the page-loadable form, in the layout the
//!   column's type picks. Strings: a chain of dictionary pages of
//!   prefix-encoded value blocks, an overflow chain for large values, and
//!   the two sparse helper dictionaries — `ipDict_ValueId` (last vid per
//!   page) and `ipDict_Value` (last value per page) — that route a lookup to
//!   the single dictionary page it needs. Numeric types, whose keys are
//!   fixed-width: one chain of pages of sorted keys, addressed by
//!   arithmetic.

mod array;
mod front_coded;
mod in_memory;
mod paged;
mod unsorted;

pub(crate) use front_coded::FrontCodedBuilder;
pub use front_coded::{FrontCodedDict, KeyCursor, FRONT_CODED_BLOCK};
pub use in_memory::InMemoryDict;
pub(crate) use paged::{append_piece, Layout};
pub use paged::{DictLookup, HandleCache, PagedDictBuildStats, PagedDictionary};
pub use unsorted::UnsortedDict;

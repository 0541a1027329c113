//! Encoding primitives for piecewise columnar storage.
//!
//! This crate implements the byte-level building blocks described in
//! *Page As You Go: Piecewise Columnar Access In SAP HANA* (SIGMOD 2016):
//!
//! * **Uniform n-bit compression** ([`bitpack::BitPackedVec`]): every value
//!   identifier in a data vector is packed with the same number of bits `n`,
//!   chosen as the number of bits needed for the largest identifier.
//! * **Chunks of exactly 64 identifiers** ([`chunk`]): a chunk is `n` 64-bit
//!   words, so chunks are byte-integral for every `n` and a value never spans
//!   a chunk boundary. Pages store an integral number of chunks, which makes
//!   the row-position → page mapping pure arithmetic.
//! * **Vectorized scan primitives** ([`scan`], [`kernels`]): equality /
//!   range / in-set predicates evaluated chunk-at-a-time in the packed
//!   domain, producing one 64-bit match bitmap per chunk (or a count) —
//!   AVX2 unpack-and-compare kernels where the host has AVX2 and the width
//!   is 2..=25, word-parallel (SWAR) lane compares everywhere else; SWAR
//!   is the portable path and the AVX2 kernels' oracle.
//! * **Prefix-encoded string value blocks** ([`prefix`]): groups of up to 16
//!   consecutive dictionary strings, front-coded against the preceding string
//!   in the block, with on-page/off-page splitting for large strings.
//! * **Order-preserving key encoding** ([`okey`]): maps typed values
//!   (integer, decimal, double, string) to byte strings whose `memcmp` order
//!   equals the value order, so a single dictionary layout serves all types.

#![deny(missing_docs)]
// The one crate in the workspace allowed to contain unsafe code, confined
// to [`unaligned`] (raw unaligned word loads on the decode hot path) and
// `simd` (the AVX2 scan kernels' loads and `target_feature` calls), and
// exercised under Miri in CI. Everything else keeps `#![forbid(unsafe_code)]`.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitpack;
pub mod bitwidth;
pub mod chunk;
pub mod dispatch;
pub mod fsst;
pub mod kernels;
pub mod okey;
pub mod pef;
pub mod prefix;
pub mod scan;
#[allow(unsafe_code)]
mod simd;
#[allow(unsafe_code)]
pub mod unaligned;
pub mod vidset;

pub use bitpack::{BitPackedBuilder, BitPackedVec};
pub use bitwidth::BitWidth;
pub use chunk::CHUNK_LEN;
pub use kernels::{KernelPredicate, Packed};
pub use vidset::VidSet;

/// Errors produced when decoding persisted encodings from (possibly
/// corrupted) bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// A persisted block failed structural validation.
    CorruptBlock {
        /// Human-readable description of the structural violation.
        reason: String,
    },
    /// A bit width outside the supported `0..=64` range was requested.
    InvalidBitWidth(u32),
}

impl std::fmt::Display for EncodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingError::CorruptBlock { reason } => write!(f, "corrupt block: {reason}"),
            EncodingError::InvalidBitWidth(n) => write!(f, "invalid bit width: {n}"),
        }
    }
}

impl std::error::Error for EncodingError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EncodingError>;

//! Chain codec descriptors and the scan-path report.
//!
//! Every persisted chain carries a [`ChainCodec`] descriptor (the chain
//! file's descriptor region in `payg-storage`; a chain that never had one
//! set reads as [`CodecKind::Plain`]): the codec is what the builder wrote,
//! chosen from the data, never something a reader is asked for. [`ScanPath`]
//! is how a reader reports which way it ran a probe — **in the compressed
//! domain** (compare FSST-compressed bytes, leapfrog Elias-Fano partitions)
//! or **decode-then-scan**.

use crate::{EncodingError, Result};

/// How a chain's payload bytes are encoded beyond the base page layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Bit-packed chunks / front-coded blocks with no extra codec.
    Plain = 0,
    /// FSST symbol-table compression inside front-coded value blocks.
    Fsst = 1,
    /// Partitioned Elias-Fano posting partitions.
    Pef = 2,
    /// Header-less pages of sorted fixed-width keys (numeric dictionaries);
    /// the parameter blob is the key width, one byte.
    Array = 3,
}

impl CodecKind {
    /// The wire label used for per-codec metrics.
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::Plain => "plain",
            CodecKind::Fsst => "fsst",
            CodecKind::Pef => "pef",
            CodecKind::Array => "array",
        }
    }
}

/// The strategy a reader runs one probe with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPath {
    /// Evaluate directly on compressed bytes (FSST equality compare,
    /// Elias-Fano `next_geq`), decompressing only emitted values.
    CompressedDomain,
    /// Decode the chunk/block, then run the plain kernel.
    DecodeThenScan,
}

/// A persisted per-chain codec descriptor: the codec kind plus its
/// parameter blob (for FSST, the serialized symbol table; for `Array`, the
/// key width; empty for the parameterless codecs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainCodec {
    /// The codec the chain's payload uses.
    pub kind: CodecKind,
    /// Codec parameters (e.g. a serialized [`crate::fsst::SymbolTable`]).
    pub params: Vec<u8>,
}

/// Descriptor blob version tag.
const DESC_VERSION: u8 = 1;

impl ChainCodec {
    /// A descriptor for an uncompressed chain.
    pub fn plain() -> Self {
        ChainCodec { kind: CodecKind::Plain, params: Vec::new() }
    }

    /// Serializes as `version:u8 | kind:u8 | params_len:u32 LE | params`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.params.len());
        out.push(DESC_VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.params);
        out
    }

    /// Parses a descriptor blob. An **empty** blob means "no codec": a
    /// chain that never set a descriptor reads as [`CodecKind::Plain`].
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        if bytes.is_empty() {
            return Ok(ChainCodec::plain());
        }
        let corrupt = |reason: &str| EncodingError::CorruptBlock {
            reason: format!("chain codec descriptor: {reason}"),
        };
        if bytes.len() < 6 {
            return Err(corrupt("shorter than fixed header"));
        }
        if bytes[0] != DESC_VERSION {
            return Err(corrupt("unknown version"));
        }
        let kind = match bytes[1] {
            0 => CodecKind::Plain,
            1 => CodecKind::Fsst,
            2 => CodecKind::Pef,
            3 => CodecKind::Array,
            _ => return Err(corrupt("unknown codec kind")),
        };
        let len = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]) as usize;
        if bytes.len() != 6 + len {
            return Err(corrupt("params length mismatch"));
        }
        Ok(ChainCodec { kind, params: bytes[6..].to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        for desc in [
            ChainCodec::plain(),
            ChainCodec { kind: CodecKind::Fsst, params: vec![1, 2, 3, 4] },
            ChainCodec { kind: CodecKind::Pef, params: Vec::new() },
            ChainCodec { kind: CodecKind::Array, params: vec![16] },
        ] {
            let blob = desc.serialize();
            assert_eq!(ChainCodec::deserialize(&blob).unwrap(), desc);
        }
    }

    #[test]
    fn empty_blob_reads_as_plain() {
        assert_eq!(ChainCodec::deserialize(&[]).unwrap(), ChainCodec::plain());
    }

    #[test]
    fn deserialize_rejects_malformed() {
        assert!(ChainCodec::deserialize(&[1, 1]).is_err()); // short header
        assert!(ChainCodec::deserialize(&[9, 0, 0, 0, 0, 0]).is_err()); // version
        assert!(ChainCodec::deserialize(&[1, 7, 0, 0, 0, 0]).is_err()); // kind
        assert!(ChainCodec::deserialize(&[1, 1, 5, 0, 0, 0, 1]).is_err()); // len
    }
}

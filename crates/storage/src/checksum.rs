//! Page checksums.
//!
//! A table-driven CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
//! computed in-crate — no external dependency — by slicing-by-16, with the
//! tables generated at compile time by a `const fn`.
//! [`FileStore`](crate::FileStore) writes a checksum trailer next to every
//! page payload and verifies it on read, so torn writes and bit rot
//! surface as a typed
//! [`ChecksumMismatch`](crate::StorageError::ChecksumMismatch) instead of
//! silently corrupt scan results.
//!
//! Page checksums are **keyed by chain and page number**: the digest covers
//! the little-endian chain id and page number followed by the payload. A
//! page written to the wrong slot or into another chain's file (a
//! misdirected write) therefore fails verification even when its bytes are
//! individually intact.

use crate::page::PageKey;

/// Slicing-by-16 tables: `TABLES[0]` is the bytewise table, and
/// `TABLES[k][i]` is byte `i`'s remainder advanced by `k` more zero bytes,
/// so one step folds 16 input bytes with 16 independent lookups.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 16] = make_tables();

/// Folds `bytes` into the raw CRC state `crc` one byte at a time — the
/// remainder of [`Crc32::update`]'s 16-byte steps, and its test oracle.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC-32 state. Feed byte slices with [`Crc32::update`], extract
/// the digest with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the digest, 16 bytes a step (slicing-by-16).
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][c[4] as usize]
                ^ t[10][c[5] as usize]
                ^ t[9][c[6] as usize]
                ^ t[8][c[7] as usize]
                ^ t[7][c[8] as usize]
                ^ t[6][c[9] as usize]
                ^ t[5][c[10] as usize]
                ^ t[4][c[11] as usize]
                ^ t[3][c[12] as usize]
                ^ t[2][c[13] as usize]
                ^ t[1][c[14] as usize]
                ^ t[0][c[15] as usize];
        }
        self.0 = update_bytewise(crc, chunks.remainder());
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The checksum persisted with a page: CRC-32 over the little-endian chain
/// id and page number of `key` followed by the payload (padded to the
/// slot's full page size by the store before hashing, so re-verification
/// needs no length metadata).
pub fn page_checksum(key: PageKey, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&key.chain.0.to_le_bytes());
    c.update(&key.page_no.to_le_bytes());
    c.update(payload);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::ChainId;

    #[test]
    fn matches_the_ieee_reference_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"page as you go: piecewise columnar access";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    /// The raw state after `bytes`, one byte at a time.
    fn oracle(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_16_equals_the_bytewise_loop() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..9_100).map(|_| next() as u8).collect();
        // Every short length at every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), oracle(bytes), "start {start} len {len}");
            }
        }
        // Random lengths up to a couple of pages, fed whole and in random
        // splits.
        for _ in 0..200 {
            let start = (next() % 8) as usize;
            let len = (next() % 9_001) as usize;
            let bytes = &data[start..start + len];
            let expect = oracle(bytes);
            assert_eq!(crc32(bytes), expect, "start {start} len {len}");
            let mut c = Crc32::new();
            let mut rest = bytes;
            while !rest.is_empty() {
                let (head, tail) = rest.split_at((next() % 200) as usize % (rest.len() + 1));
                c.update(head);
                rest = tail;
            }
            assert_eq!(c.finish(), expect, "split start {start} len {len}");
        }
        assert_eq!(oracle(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn page_checksum_is_keyed_by_chain_and_page_number() {
        let payload = vec![0xAB; 64];
        let key = |chain, page_no| PageKey::new(ChainId(chain), page_no);
        assert_ne!(page_checksum(key(0, 0), &payload), page_checksum(key(0, 1), &payload));
        assert_ne!(page_checksum(key(0, 3), &payload), page_checksum(key(1, 3), &payload));
        assert_eq!(page_checksum(key(2, 3), &payload), page_checksum(key(2, 3), &payload));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let payload = vec![0u8; 256];
        let key = PageKey::new(ChainId(0), 0);
        let base = page_checksum(key, &payload);
        for bit in [0usize, 7, 1000, 2047] {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_checksum(key, &flipped), base, "bit {bit} went undetected");
        }
    }
}

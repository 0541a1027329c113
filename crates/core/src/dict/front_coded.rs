//! The resident dictionary, front-coded (paper §3.2.1).

use super::in_memory::KeyArena;
use super::InMemoryDict;
use crate::{CoreError, CoreResult};
use payg_encoding::prefix::common_prefix;

/// Keys per block: the paper's block size. Swept over the benchmark's
/// 100 000 distinct 14-byte key values: 16 holds them in 522 050 B and 8 in
/// 633 000 B, against 1 800 000 B for the uncompressed arena. A find
/// costs the same at either size (300–360 ns a random hit, the arena's
/// 320–370 ns); a key by identifier replays up to B − 1 entries (63–96 ns
/// at 16). In three traced `point_warm` runs at 8, `core.index_probe_us`
/// read 0.27 / 0.51 / 0.50 µs and `Q_pk^*` 12.1 / 15.0 / 15.6 µs, against
/// 0.27 / 0.51 / 0.61 and 13.7 / 14.8 / 15.1 at 16: no better, so the
/// smaller dictionary wins.
pub const FRONT_CODED_BLOCK: usize = 16;

/// A sorted, deduplicated, memory-resident dictionary stored front-coded:
/// a default column's dictionary, as the paper's resident columns keep it.
///
/// Keys go in blocks of [`FRONT_CODED_BLOCK`]. A block's first key — its
/// head — is whole in one arena; every other key is the length of the
/// prefix it shares with its predecessor and the length of the rest
/// (LEB128 varints), then the rest, all in one body buffer that each
/// block starts in at its own `u32` offset. Key → `vid` bisects the heads
/// and walks one block; `vid` → key replays at most `FRONT_CODED_BLOCK - 1`
/// entries of one block into the caller's buffer (a [`KeyCursor`]).
#[derive(Debug)]
pub struct FrontCodedDict {
    /// Every block's first key.
    heads: KeyArena,
    /// `starts[b]`: where block `b`'s entries after its head begin in `body`.
    starts: Vec<u32>,
    /// Every non-head key as (shared, suffix length, suffix).
    body: Vec<u8>,
    len: usize,
}

/// Appends `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The LEB128 varint at `*pos`, advancing `*pos` past it.
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> usize {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= usize::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

impl FrontCodedDict {
    /// Builds from keys that are already sorted and deduplicated.
    ///
    /// # Panics
    /// Debug-panics when keys are not strictly increasing.
    pub fn from_sorted_keys<K: AsRef<[u8]>>(keys: &[K]) -> CoreResult<Self> {
        let mut builder = FrontCodedBuilder::with_capacity(keys.len());
        for key in keys {
            builder.push(key.as_ref())?;
        }
        Ok(builder.finish())
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> u64 {
        self.len as u64
    }

    /// Finds `key`: `Ok(vid)` on a hit, `Err(insertion_vid)` on a miss
    /// (the number of dictionary keys strictly below `key`).
    pub fn find(&self, key: &[u8]) -> Result<u64, u64> {
        // The blocks whose head is at most `key`.
        let (mut lo, mut hi) = (0, self.heads.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.heads.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok((mid * FRONT_CODED_BLOCK) as u64),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        let Some(block) = lo.checked_sub(1) else { return Err(0) };
        // Walk the block below `key`. `matched` is how many leading bytes
        // the previous entry shares with `key`; that entry is below `key`.
        let first = block * FRONT_CODED_BLOCK;
        let end = self.len.min(first + FRONT_CODED_BLOCK);
        let mut matched = common_prefix(self.heads.key(block), key);
        let mut pos = self.starts[block] as usize;
        for vid in first + 1..end {
            let shared = get_varint(&self.body, &mut pos);
            let n = get_varint(&self.body, &mut pos);
            let suffix = &self.body[pos..pos + n];
            pos += n;
            if shared < matched {
                // The entry leaves the bytes its predecessor shares with
                // `key` upwards: it is already past `key`.
                return Err(vid as u64);
            }
            if shared > matched {
                // It keeps the byte where its predecessor fell below `key`.
                continue;
            }
            let rest = &key[matched..];
            let l = common_prefix(suffix, rest);
            match (suffix.get(l), rest.get(l)) {
                (None, None) => return Ok(vid as u64),
                (None, Some(_)) => {}
                (Some(_), None) => return Err(vid as u64),
                (Some(s), Some(r)) if s > r => return Err(vid as u64),
                (Some(_), Some(_)) => {}
            }
            matched += l;
        }
        Err(end as u64)
    }

    /// A reader of keys by identifier that decodes into `buf`.
    pub fn cursor<'a>(&'a self, buf: &'a mut Vec<u8>) -> KeyCursor<'a> {
        KeyCursor { dict: self, key: buf, at: None }
    }

    /// The same keys in the uncompressed arena, built to size.
    pub fn to_in_memory(&self) -> CoreResult<InMemoryDict> {
        let mut dict = InMemoryDict::with_capacity(self.len);
        let mut buf = Vec::new();
        let mut keys = self.cursor(&mut buf);
        for vid in 0..self.cardinality() {
            dict.push(keys.key(vid))?;
        }
        dict.shrink_to_fit();
        Ok(dict)
    }

    /// Heap footprint in bytes (what the resident column registers with the
    /// resource manager): the capacities of the heads, the block starts and
    /// the body.
    pub fn heap_bytes(&self) -> usize {
        self.heads.heap_bytes()
            + self.starts.capacity() * std::mem::size_of::<u32>()
            + self.body.capacity()
    }
}

/// Decodes keys of one [`FrontCodedDict`] by identifier into the caller's
/// buffer. After key `vid`, a key further on in the same block continues
/// the walk from there: ascending identifiers decode each block they touch
/// once.
#[derive(Debug)]
pub struct KeyCursor<'a> {
    dict: &'a FrontCodedDict,
    key: &'a mut Vec<u8>,
    /// The identifier `key` holds and where its successor starts in the
    /// body; `None` before the first key.
    at: Option<(usize, usize)>,
}

impl KeyCursor<'_> {
    /// The key encoded by `vid`.
    ///
    /// # Panics
    /// Panics when `vid` is out of bounds.
    pub fn key(&mut self, vid: u64) -> &[u8] {
        let dict = self.dict;
        let vid = vid as usize;
        assert!(vid < dict.len, "vid {vid} out of bounds for {} keys", dict.len);
        let block = vid / FRONT_CODED_BLOCK;
        let (mut at, mut pos) = match self.at {
            Some((at, pos)) if at <= vid && at / FRONT_CODED_BLOCK == block => (at, pos),
            _ => {
                self.key.clear();
                self.key.extend_from_slice(dict.heads.key(block));
                (block * FRONT_CODED_BLOCK, dict.starts[block] as usize)
            }
        };
        while at < vid {
            let shared = get_varint(&dict.body, &mut pos);
            let n = get_varint(&dict.body, &mut pos);
            self.key.truncate(shared);
            self.key.extend_from_slice(&dict.body[pos..pos + n]);
            pos += n;
            at += 1;
        }
        self.at = Some((at, pos));
        self.key
    }
}

/// Streams sorted keys into a [`FrontCodedDict`]; [`FrontCodedBuilder::finish`]
/// trims every buffer to its length.
pub(crate) struct FrontCodedBuilder {
    dict: FrontCodedDict,
    /// The key pushed last.
    last: Vec<u8>,
}

impl FrontCodedBuilder {
    /// A builder sized for `keys` keys: the heads' offsets and the block
    /// starts are allocated exactly.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        let blocks = keys.div_ceil(FRONT_CODED_BLOCK);
        let dict = FrontCodedDict {
            heads: KeyArena::with_capacity(blocks),
            starts: Vec::with_capacity(blocks),
            body: Vec::new(),
            len: 0,
        };
        FrontCodedBuilder { dict, last: Vec::new() }
    }

    /// Appends the next key in order. Fails, leaving the builder as it
    /// was, when the heads or a block start would reach 2³² bytes.
    ///
    /// # Panics
    /// Debug-panics when `key` is not above the last key.
    pub(crate) fn push(&mut self, key: &[u8]) -> CoreResult<()> {
        let d = &mut self.dict;
        debug_assert!(d.len == 0 || self.last.as_slice() < key, "keys must be strictly increasing");
        if d.len.is_multiple_of(FRONT_CODED_BLOCK) {
            let start = u32::try_from(d.body.len())
                .map_err(|_| CoreError::DictTooLarge { key_bytes: d.body.len() as u64 })?;
            d.heads.push(key)?;
            d.starts.push(start);
        } else {
            let shared = common_prefix(&self.last, key);
            put_varint(&mut d.body, shared);
            put_varint(&mut d.body, key.len() - shared);
            d.body.extend_from_slice(&key[shared..]);
        }
        d.len += 1;
        self.last.clear();
        self.last.extend_from_slice(key);
        Ok(())
    }

    /// The dictionary, holding no growth slack.
    pub(crate) fn finish(mut self) -> FrontCodedDict {
        self.dict.heads.shrink_to_fit();
        self.dict.starts.shrink_to_fit();
        self.dict.body.shrink_to_fit();
        self.dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `dict` against the sorted `keys` it was built from: every key
    /// by identifier in order and backwards, every key found, and each key
    /// one byte longer or shorter answered as a binary search would.
    fn assert_answers(keys: &[Vec<u8>]) {
        let dict = FrontCodedDict::from_sorted_keys(keys).unwrap();
        assert_eq!(dict.cardinality(), keys.len() as u64);
        let mut buf = Vec::new();
        let mut cursor = dict.cursor(&mut buf);
        for (vid, k) in keys.iter().enumerate() {
            assert_eq!(cursor.key(vid as u64), k.as_slice(), "ascending key {vid}");
        }
        for (vid, k) in keys.iter().enumerate().rev() {
            assert_eq!(cursor.key(vid as u64), k.as_slice(), "descending key {vid}");
        }
        let mut probes = vec![Vec::new()];
        for k in keys {
            probes.push(k.clone());
            probes.push([k.as_slice(), b"\0"].concat());
            probes.push([k.as_slice(), b"\xFF"].concat());
            probes.push(k[..k.len().saturating_sub(1)].to_vec());
        }
        for p in &probes {
            let expect = keys.binary_search(p).map(|i| i as u64).map_err(|i| i as u64);
            assert_eq!(dict.find(p), expect, "probe {p:?}");
        }
        assert_eq!(dict.to_in_memory().unwrap(), InMemoryDict::from_sorted_keys(keys).unwrap());
    }

    fn numbered(n: usize, prefix: &[u8]) -> Vec<Vec<u8>> {
        (0..n).map(|i| [prefix, format!("{i:05}").as_bytes()].concat()).collect()
    }

    #[test]
    fn block_edges() {
        let b = FRONT_CODED_BLOCK;
        for n in [0, 1, 2, b - 1, b, b + 1, 2 * b, 3 * b + 5] {
            assert_answers(&numbered(n, b"key-"));
        }
        let empty = FrontCodedDict::from_sorted_keys::<&[u8]>(&[]).unwrap();
        assert_eq!(empty.cardinality(), 0);
        assert_eq!(empty.find(b""), Err(0));
        assert_eq!(empty.heap_bytes(), 0);
    }

    #[test]
    fn long_keys_and_long_shared_prefixes_take_two_byte_varints() {
        // Suffixes of 128 bytes and more.
        let long: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 128 + 3 * i as usize]).collect();
        assert_answers(&long);
        // Shared prefixes of 128 bytes and more.
        assert_answers(&numbered(40, &[b'p'; 200]));
        let dict = FrontCodedDict::from_sorted_keys(&numbered(2, &[b'p'; 200])).unwrap();
        // The second key: shared 204 = 0x4C + (1 << 7) in two bytes, rest 1, "1".
        assert_eq!(dict.body, [0x4C | 0x80, 0x01, 1, b'1']);
    }

    #[test]
    fn a_key_that_prefixes_the_next() {
        let keys: Vec<Vec<u8>> = (0..=2 * FRONT_CODED_BLOCK).map(|n| vec![b'a'; n]).collect();
        assert_answers(&keys);
        let mut keys = vec![b"".to_vec(), b"a".to_vec(), b"ab".to_vec(), b"abc".to_vec()];
        keys.extend([b"abd".to_vec(), b"b".to_vec(), b"b\0".to_vec(), b"b\0\0".to_vec()]);
        assert_answers(&keys);
    }
}

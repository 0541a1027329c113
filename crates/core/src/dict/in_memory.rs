//! The fully-resident dictionary.

use crate::{CoreError, CoreResult};

/// Keys back to back in one byte arena plus one `u32` end offset per key —
/// 4 bytes of bookkeeping a key, no per-key allocation. Both in-memory
/// dictionaries store their keys so: the sorted [`InMemoryDict`] and the
/// unsorted [`super::UnsortedDict`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct KeyArena {
    /// Every key's bytes, back to back.
    bytes: Vec<u8>,
    /// `ends[i]`: where key `i` ends in `bytes` (it starts where key
    /// `i - 1` ends).
    ends: Vec<u32>,
}

/// Where a key of `len` bytes appended at `at` ends — a typed error when
/// that is past what the `u32` offsets address.
fn arena_end(at: usize, len: usize) -> CoreResult<u32> {
    let end = at as u64 + len as u64;
    u32::try_from(end).map_err(|_| CoreError::DictTooLarge { key_bytes: end })
}

impl KeyArena {
    /// An empty arena with room for `keys` end offsets.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        KeyArena { bytes: Vec::new(), ends: Vec::with_capacity(keys) }
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Bytes of all keys together.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Key `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub(crate) fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// All keys in order.
    pub(crate) fn keys(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.ends.len()).map(|i| self.key(i))
    }

    /// Appends `key`. Fails, leaving the arena as it was, when the keys
    /// together would reach 2³² bytes.
    pub(crate) fn push(&mut self, key: &[u8]) -> CoreResult<()> {
        let end = arena_end(self.bytes.len(), key.len())?;
        self.bytes.extend_from_slice(key);
        self.ends.push(end);
        Ok(())
    }

    /// Gives back both buffers' growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes: the two capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

/// A sorted, deduplicated, memory-resident dictionary: `vid` → key is an
/// index access, key → `vid` a binary search. This is the baseline the
/// paper's default columns use.
///
/// The keys are one `KeyArena` in identifier order, so a probe touches
/// the offsets it bisects and the bytes it compares, and
/// [`InMemoryDict::heap_bytes`] is the arena's two capacities.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InMemoryDict {
    keys: KeyArena,
}

impl InMemoryDict {
    /// An empty dictionary with room for `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        InMemoryDict { keys: KeyArena::with_capacity(keys) }
    }

    /// Appends the next key in order. Fails, leaving the dictionary as it
    /// was, when the keys together would reach 2³² bytes.
    ///
    /// # Panics
    /// Debug-panics when `key` is not above the last key.
    pub fn push(&mut self, key: &[u8]) -> CoreResult<()> {
        debug_assert!(
            self.is_empty() || self.key(self.cardinality() - 1) < key,
            "keys must be strictly increasing"
        );
        self.keys.push(key)
    }

    /// Gives back the arena's growth slack: afterwards the dictionary holds
    /// the key bytes and four bytes per key, no more.
    pub fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
    }

    /// Builds from keys that are already sorted and deduplicated.
    ///
    /// # Panics
    /// Debug-panics when keys are not strictly increasing.
    pub fn from_sorted_keys<K: AsRef<[u8]>>(keys: &[K]) -> CoreResult<Self> {
        let mut dict = InMemoryDict::with_capacity(keys.len());
        dict.keys.bytes.reserve_exact(keys.iter().map(|k| k.as_ref().len()).sum());
        for key in keys {
            dict.push(key.as_ref())?;
        }
        Ok(dict)
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> u64 {
        self.keys.len() as u64
    }

    /// True when the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.keys.len() == 0
    }

    /// The key encoded by `vid`.
    ///
    /// # Panics
    /// Panics when `vid` is out of bounds.
    pub fn key(&self, vid: u64) -> &[u8] {
        self.keys.key(vid as usize)
    }

    /// Finds `key`: `Ok(vid)` on a hit, `Err(insertion_vid)` on a miss
    /// (the number of dictionary keys strictly below `key`).
    pub fn find(&self, key: &[u8]) -> Result<u64, u64> {
        let (mut lo, mut hi) = (0, self.keys.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.keys.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid as u64),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo as u64)
    }

    /// All keys in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.keys.keys()
    }

    /// Heap footprint in bytes (what the resident column registers with the
    /// resource manager).
    pub fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> InMemoryDict {
        InMemoryDict::from_sorted_keys(&[&b"alpha"[..], b"bravo", b"delta", b"echo"]).unwrap()
    }

    #[test]
    fn keys_come_back_in_order() {
        let d = dict();
        assert_eq!(d.cardinality(), 4);
        let keys: Vec<&[u8]> = d.keys().collect();
        assert_eq!(keys, vec![&b"alpha"[..], b"bravo", b"delta", b"echo"]);
    }

    #[test]
    fn find_hits_and_insertion_points() {
        let d = dict();
        assert_eq!(d.find(b"alpha"), Ok(0));
        assert_eq!(d.find(b"echo"), Ok(3));
        assert_eq!(d.find(b"aaa"), Err(0));
        assert_eq!(d.find(b"charlie"), Err(2));
        assert_eq!(d.find(b"zulu"), Err(4));
    }

    #[test]
    fn vid_key_roundtrip() {
        let d = dict();
        for vid in 0..d.cardinality() {
            assert_eq!(d.find(d.key(vid)), Ok(vid));
        }
    }

    #[test]
    fn empty_dict() {
        let d = InMemoryDict::from_sorted_keys::<&[u8]>(&[]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.find(b"x"), Err(0));
        assert_eq!(d.heap_bytes(), 0);
    }

    #[test]
    fn four_gib_of_keys_is_a_typed_error() {
        assert_eq!(arena_end(10, 4).unwrap(), 14);
        assert_eq!(arena_end(u32::MAX as usize - 4, 4).unwrap(), u32::MAX);
        assert!(matches!(
            arena_end(u32::MAX as usize - 3, 4),
            Err(CoreError::DictTooLarge { key_bytes }) if key_bytes == 1 << 32
        ));
    }
}

//! The unsorted dictionary: identifiers in arrival order (paper §2's delta).

use super::in_memory::KeyArena;
use crate::{CoreResult, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An unsorted, deduplicating dictionary: each new key gets the next
/// identifier, a repeated key the one it already has. It is the one encoder
/// of unsorted keys: every delta column appends through one, and a column
/// built from values is encoded through one before its keys are sorted
/// ([`crate::EncodedRows::encode`]).
///
/// The keys are one `KeyArena` in identifier order. The hash table holds
/// identifiers, not keys: open addressing with linear probing, each slot
/// one `u64` — 32 bits of the key's hash above its identifier plus one, 0
/// for empty — so a probe compares a key's bytes only on a hash match. The
/// hash is the standard library's randomly keyed one, because the keys
/// are values from outside the program, which could be crafted to collide
/// under a fixed hash. [`UnsortedDict::intern`] encodes the value into one
/// reused probe buffer: a key is stored once, and an intern allocates only
/// when a buffer grows.
#[derive(Debug, Default)]
pub struct UnsortedDict {
    keys: KeyArena,
    /// A power-of-two number of slots (none while empty), at most 3/4 full.
    slots: Vec<u64>,
    hasher: RandomState,
    /// The key being interned.
    probe: Vec<u8>,
}

impl UnsortedDict {
    /// The identifier of `value`'s key, which is appended when new. Fails,
    /// leaving the dictionary as it was, when the keys together would reach
    /// 2³² bytes. The value's type is not checked.
    pub fn intern(&mut self, value: &Value) -> CoreResult<u32> {
        self.probe.clear();
        value.write_key(&mut self.probe);
        if 4 * (self.keys.len() + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(&self.probe[..]) as u32;
        let (i, found) = self.slot_of(&self.probe, hash);
        if let Some(id) = found {
            return Ok(id);
        }
        // `id + 1` fits 32 bits: 2³² distinct keys need far more than the
        // 2³² bytes the arena holds.
        let id = self.keys.len() as u32;
        self.keys.push(&self.probe)?;
        self.slots[i] = (u64::from(hash) << 32) | u64::from(id + 1);
        Ok(id)
    }

    /// The identifier of `key`, if the dictionary holds it.
    pub fn find(&self, key: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.slot_of(key, self.hasher.hash_one(key) as u32).1
    }

    /// The slot holding `key` (of hash `hash`) and its identifier, else the
    /// empty slot that ends its probe sequence.
    fn slot_of(&self, key: &[u8], hash: u32) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != 0 {
            let slot = self.slots[i];
            let id = slot as u32 - 1;
            if (slot >> 32) as u32 == hash && self.keys.key(id as usize) == key {
                return (i, Some(id));
            }
            i = (i + 1) & mask;
        }
        (i, None)
    }

    /// Doubles the table and re-places every slot by its stored hash.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        let mask = slots - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut i = (slot >> 32) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Number of distinct keys.
    pub fn cardinality(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Bytes of all keys together.
    pub fn key_bytes(&self) -> u64 {
        self.keys.byte_len() as u64
    }

    /// The key of `vid`.
    ///
    /// # Panics
    /// Panics when `vid` is out of bounds.
    pub fn key(&self, vid: u32) -> &[u8] {
        self.keys.key(vid as usize)
    }

    /// Every key, in identifier (arrival) order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.keys.keys()
    }

    /// Heap bytes: the arena's, the table's and the probe buffer's
    /// capacities.
    pub fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + self.slots.capacity() * std::mem::size_of::<u64>()
            + self.probe.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_follow_arrival_and_repeats_share_one() {
        let mut d = UnsortedDict::default();
        let ids: Vec<u32> = ["echo", "alpha", "echo", "", "bravo", "", "alpha"]
            .iter()
            .map(|s| d.intern(&Value::from(*s)).unwrap())
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 3, 2, 1]);
        assert_eq!(d.cardinality(), 4);
        let keys: Vec<&[u8]> = d.keys().collect();
        assert_eq!(keys, [&b"echo"[..], b"alpha", b"", b"bravo"]);
        assert_eq!(d.key(3), b"bravo");
        assert_eq!(d.find(b"alpha"), Some(1));
        assert_eq!(d.find(b""), Some(2));
        assert_eq!(d.find(b"delta"), None);
        assert_eq!(UnsortedDict::default().find(b""), None);
    }

    /// Keys that differ only past the first eight bytes, or only in a
    /// trailing NUL, stay distinct across many table growths.
    #[test]
    fn long_and_nul_padded_keys_stay_distinct_across_growth() {
        let mut d = UnsortedDict::default();
        let values: Vec<Value> = (0..5000usize)
            .map(|i| Value::Varchar(format!("shared-prefix-{}{}", "\0".repeat(i % 9), i / 9)))
            .collect();
        for round in 0..2 {
            for (id, v) in values.iter().enumerate() {
                assert_eq!(d.intern(v).unwrap(), id as u32, "round {round}");
            }
        }
        assert_eq!(d.cardinality(), values.len() as u64);
        for (id, v) in values.iter().enumerate() {
            assert_eq!(d.find(&v.to_key()), Some(id as u32));
        }
        assert_eq!(d.find(b"shared-prefix-\0"), None);
        assert!(d.keys().map(<[u8]>::to_vec).eq(values.iter().map(Value::to_key)));
        let key_bytes: usize = values.iter().map(|v| v.to_key().len()).sum();
        assert!(d.heap_bytes() >= key_bytes + 4 * values.len() + 8 * 4 * values.len() / 3);
    }
}

//! The resident dictionary: the sorted keys as the dictionary chain's value
//! blocks (paper §3.2.1), held in memory.

use super::InMemoryDict;
use crate::{CoreError, CoreResult};
use payg_encoding::prefix::{
    common_prefix, BlockRun, BlockWalk, EntryView, ValueBlockBuilder, BLOCK_CAP,
};
use payg_encoding::EncodingError;
use std::ops::Range;

/// Blocks between two fences: `find` bisects at most this many block heads.
const FENCE_EVERY: usize = 64;

/// A sorted, deduplicated, memory-resident dictionary in the value-block
/// format of the dictionary chain ([`payg_encoding::prefix`]): a default
/// column's dictionary, as the paper's resident columns keep it.
///
/// The blocks sit back to back in one buffer with a little-endian `u32`
/// start each, the run a dictionary page's body and offset array hold.
/// Every value is inline and raw: FSST is a chain codec, and the image
/// orders probes by plain byte compares. Key → `vid` narrows the blocks to one
/// gap between fences, bisects those by their first key and searches one
/// block; `vid` → key replays at most `BLOCK_CAP - 1` entries of one block
/// into the caller's buffer (a [`BlockKeys`]). Both read through the one
/// block walk the chain's pages use.
#[derive(Debug)]
pub struct BlockDict {
    /// Every block, back to back.
    bytes: Vec<u8>,
    /// Where each block begins in `bytes`: a little-endian `u32` a block.
    starts: Vec<u8>,
    /// The bytes every key begins with.
    prefix: Vec<u8>,
    /// For every `FENCE_EVERY`-th block, the eight bytes of its first key
    /// past `prefix` ([`window`]): a search confined to one gap touches a
    /// few kilobytes of blocks, not the whole image.
    fences: Vec<u64>,
    len: usize,
}

/// The eight bytes of `key` past its first `skip`, big-endian and
/// zero-padded: windows ordered one way order their keys that way too
/// (equal windows decide nothing).
fn window(key: &[u8], skip: usize) -> u64 {
    let tail = key.get(skip..).unwrap_or_default();
    let mut w = [0u8; 8];
    let n = tail.len().min(8);
    w[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(w)
}

impl BlockDict {
    /// Builds from keys that are already sorted and deduplicated.
    ///
    /// # Panics
    /// Panics when keys are not in order.
    pub fn from_sorted_keys<K: AsRef<[u8]>>(keys: &[K]) -> CoreResult<Self> {
        let mut builder = BlockDictBuilder::with_capacity(keys.len());
        for key in keys {
            builder.push(key.as_ref())?;
        }
        Ok(builder.finish())
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> u64 {
        self.len as u64
    }

    fn run(&self) -> BlockRun<'_> {
        BlockRun::new(&self.bytes, &self.starts)
    }

    /// Finds `key`: `Ok(vid)` on a hit, `Err(insertion_vid)` on a miss
    /// (the number of dictionary keys strictly below `key`).
    pub fn find(&self, key: &[u8]) -> CoreResult<Result<u64, u64>> {
        if self.len == 0 {
            return Ok(Err(0));
        }
        // Every value is inline: nothing is fetched, and raw blocks are
        // searched without replaying a key.
        let mut no_fetch = |_: &_| -> payg_encoding::Result<Vec<u8>> {
            Err(EncodingError::CorruptBlock { reason: "a resident block spills".into() })
        };
        let within = self.fenced(key);
        let (block, pos) =
            self.run().lower_bound_within(within, key, None, &mut Vec::new(), &mut no_fetch)?;
        let vid = |slot: usize| (block * BLOCK_CAP + slot) as u64;
        Ok(pos.map(vid).map_err(vid))
    }

    /// The blocks holding `key`'s answer: from the last fence below it to
    /// the first above it (all blocks for a key without the shared prefix).
    fn fenced(&self, key: &[u8]) -> Range<usize> {
        let blocks = self.run().blocks();
        if !key.starts_with(&self.prefix) {
            return 0..blocks;
        }
        let w = window(key, self.prefix.len());
        let below = self.fences.partition_point(|&f| f < w);
        let ties = self.fences[below..].iter().take_while(|&&f| f == w).count();
        let upto = below + ties;
        let start = below.saturating_sub(1) * FENCE_EVERY;
        let end = if upto == self.fences.len() { blocks } else { (upto * FENCE_EVERY).max(1) };
        start..end
    }

    /// A reader of keys by identifier that decodes into `buf`.
    pub fn keys<'a>(&'a self, buf: &'a mut Vec<u8>) -> BlockKeys<'a> {
        BlockKeys { len: self.len, key: buf, cursor: RunCursor::new(self.run()) }
    }

    /// The same keys in the uncompressed arena, built to size.
    pub fn to_in_memory(&self) -> CoreResult<InMemoryDict> {
        let mut dict = InMemoryDict::with_capacity(self.len);
        let mut buf = Vec::new();
        let mut keys = self.keys(&mut buf);
        for vid in 0..self.cardinality() {
            dict.push(keys.key(vid)?)?;
        }
        dict.shrink_to_fit();
        Ok(dict)
    }

    /// Heap footprint in bytes (what the resident column registers with the
    /// resource manager): the capacities of the blocks, their starts, the
    /// shared prefix and the fences.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.starts.capacity()
            + self.prefix.capacity()
            + self.fences.capacity() * std::mem::size_of::<u64>()
    }
}

/// Decodes keys of one [`BlockDict`] by identifier into the caller's
/// buffer, through a [`RunCursor`]: ascending identifiers decode each block
/// they touch once.
pub struct BlockKeys<'a> {
    len: usize,
    key: &'a mut Vec<u8>,
    cursor: RunCursor<'a>,
}

impl BlockKeys<'_> {
    /// The key encoded by `vid`.
    ///
    /// # Panics
    /// Panics when `vid` is out of bounds.
    pub fn key(&mut self, vid: u64) -> CoreResult<&[u8]> {
        assert!((vid as usize) < self.len, "vid {vid} out of bounds for {} keys", self.len);
        self.cursor.entry(vid as usize, self.key)?;
        Ok(self.key)
    }
}

/// Reads the entries of one block run by index. An entry further on in the
/// block read last continues that block's walk; any other seeks its slot,
/// checking every entry up to it. Ascending indices thus decode each block
/// they touch once — a dictionary page's batch of identifiers and a
/// resident dictionary's keys alike.
#[derive(Clone, Copy)]
pub(crate) struct RunCursor<'a> {
    run: BlockRun<'a>,
    /// The walk over block `block`, which decodes entry `next` next;
    /// `None` before the first entry.
    walk: Option<BlockWalk<'a>>,
    block: usize,
    next: usize,
}

impl<'a> RunCursor<'a> {
    pub(crate) fn new(run: BlockRun<'a>) -> Self {
        RunCursor { run, walk: None, block: 0, next: 0 }
    }

    /// Entry `idx` of the run, its on-page part left in `acc` — the buffer
    /// the cursor's previous entry was read into, which a continued walk
    /// replays from. An index past the run's blocks, or past its block's
    /// entries, is a corrupt run.
    pub(crate) fn entry(&mut self, idx: usize, acc: &mut Vec<u8>) -> CoreResult<EntryView<'a>> {
        let (block, slot) = (idx / BLOCK_CAP, idx % BLOCK_CAP);
        match &mut self.walk {
            Some(walk) if self.block == block && self.next <= idx => loop {
                let entry = walk.next_into(acc)?.ok_or_else(|| short_block(block, slot))?;
                self.next += 1;
                if self.next > idx {
                    return Ok(entry);
                }
            },
            _ => {
                if block >= self.run.blocks() {
                    return Err(corrupt_run(format!(
                        "entry {idx} lies past the run's {} blocks",
                        self.run.blocks()
                    )));
                }
                let view = self.run.block(block)?;
                if slot >= view.len() {
                    return Err(short_block(block, slot));
                }
                let (walk, entry) = view.seek(slot, acc)?;
                (self.walk, self.block, self.next) = (Some(walk), block, idx + 1);
                Ok(entry)
            }
        }
    }
}

#[cold]
fn short_block(block: usize, slot: usize) -> CoreError {
    corrupt_run(format!("block {block} ends before its slot {slot}"))
}

fn corrupt_run(reason: String) -> CoreError {
    CoreError::Encoding(EncodingError::CorruptBlock { reason })
}

/// Streams sorted keys into a [`BlockDict`]; [`BlockDictBuilder::finish`]
/// trims every buffer to its length.
pub(crate) struct BlockDictBuilder {
    dict: BlockDict,
    block: ValueBlockBuilder,
    /// The first key of every fenced block, and how many leading bytes
    /// every key so far shares with the first.
    fenced: Vec<Vec<u8>>,
    shared: usize,
}

impl BlockDictBuilder {
    /// A builder sized for `keys` keys: the block starts are allocated
    /// exactly.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        let dict = BlockDict {
            bytes: Vec::new(),
            starts: Vec::with_capacity(keys.div_ceil(BLOCK_CAP) * 4),
            prefix: Vec::new(),
            fences: Vec::new(),
            len: 0,
        };
        BlockDictBuilder { dict, block: ValueBlockBuilder::new(), fenced: Vec::new(), shared: 0 }
    }

    /// Appends the next key in order. Fails when its block would start at
    /// 2³² bytes or more.
    ///
    /// # Panics
    /// Panics when `key` is below the last key.
    pub(crate) fn push(&mut self, key: &[u8]) -> CoreResult<()> {
        if self.block.is_full() {
            self.block.append_to(&mut self.dict.bytes);
        }
        if self.block.is_empty() {
            let at = self.dict.bytes.len();
            let start = u32::try_from(at)
                .map_err(|_| CoreError::DictTooLarge { key_bytes: at as u64 })?;
            if self.dict.run().blocks().is_multiple_of(FENCE_EVERY) {
                self.fenced.push(key.to_vec());
            }
            self.dict.starts.extend_from_slice(&start.to_le_bytes());
        }
        self.shared = match self.fenced.first() {
            Some(first) if self.dict.len > 0 => common_prefix(first, key).min(self.shared),
            _ => key.len(),
        };
        self.block.push(key, usize::MAX, &mut |_| Vec::new());
        self.dict.len += 1;
        Ok(())
    }

    /// The dictionary, holding no growth slack.
    pub(crate) fn finish(mut self) -> BlockDict {
        if !self.block.is_empty() {
            self.block.append_to(&mut self.dict.bytes);
        }
        let shared = self.shared;
        if let Some(first) = self.fenced.first() {
            self.dict.prefix = first[..shared].to_vec();
        }
        self.dict.fences = self.fenced.iter().map(|head| window(head, shared)).collect();
        self.dict.bytes.shrink_to_fit();
        self.dict.starts.shrink_to_fit();
        self.dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the image built from the sorted `keys` against them: every key
    /// by identifier ascending and descending, every key found, and each key
    /// one byte longer or shorter answered as a binary search would.
    fn assert_answers(keys: &[Vec<u8>]) {
        let dict = BlockDict::from_sorted_keys(keys).unwrap();
        assert_eq!(dict.cardinality(), keys.len() as u64);
        let mut buf = Vec::new();
        let mut by_id = dict.keys(&mut buf);
        for (vid, k) in keys.iter().enumerate() {
            assert_eq!(by_id.key(vid as u64).unwrap(), k.as_slice(), "ascending key {vid}");
        }
        for (vid, k) in keys.iter().enumerate().rev() {
            assert_eq!(by_id.key(vid as u64).unwrap(), k.as_slice(), "descending key {vid}");
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
            assert_eq!(dict.find(p).unwrap(), expect, "probe {p:?}");
        }
        assert_eq!(dict.to_in_memory().unwrap(), InMemoryDict::from_sorted_keys(keys).unwrap());
    }

    fn numbered(n: usize, prefix: &[u8]) -> Vec<Vec<u8>> {
        (0..n).map(|i| [prefix, format!("{i:05}").as_bytes()].concat()).collect()
    }

    #[test]
    fn block_edges() {
        let b = BLOCK_CAP;
        for n in [0, 1, 2, b - 1, b, b + 1, 2 * b, 3 * b + 5] {
            assert_answers(&numbered(n, b"key-"));
        }
        let empty = BlockDict::from_sorted_keys::<&[u8]>(&[]).unwrap();
        assert_eq!(empty.cardinality(), 0);
        assert_eq!(empty.find(b"").unwrap(), Err(0));
        assert_eq!(empty.heap_bytes(), 0);
    }

    #[test]
    fn long_keys_and_long_shared_prefixes_take_two_byte_varints() {
        // Suffixes of 64 bytes and more: their doubled lengths take two bytes.
        let long: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 64 + 3 * i as usize]).collect();
        assert_answers(&long);
        // Shared prefixes of 128 bytes and more.
        assert_answers(&numbered(40, &[b'p'; 200]));
        let dict = BlockDict::from_sorted_keys(&numbered(2, &[b'p'; 200])).unwrap();
        // A count byte, the first key whole (prefix 0, twice 205 in two
        // bytes), then the second: shared 204 in two bytes, twice 1, "1".
        assert_eq!(dict.bytes.len(), 1 + (1 + 2 + 205) + (2 + 1 + 1));
        assert_eq!(dict.bytes[1 + 3 + 205..], [0x4C | 0x80, 0x01, 2, b'1']);
    }

    /// Thousands of blocks, so `find` routes through many fences: keys
    /// sharing a long prefix, runs of keys whose fence windows tie (they
    /// differ only past the window's eight bytes), and probes that do not
    /// begin with the shared prefix at all.
    #[test]
    fn fences_route_like_binary_search() {
        let keys: Vec<Vec<u8>> = (0..40 * FENCE_EVERY * BLOCK_CAP / 8)
            .map(|i| format!("shared/{:03}/window--/{i:06}", i / 3_000).into_bytes())
            .collect();
        assert_answers(&keys);
        let dict = BlockDict::from_sorted_keys(&keys).unwrap();
        assert_eq!(dict.prefix, b"shared/00");
        assert_eq!(dict.fences.len(), dict.run().blocks().div_ceil(FENCE_EVERY));
        assert_eq!(dict.fences[0], dict.fences[2], "fence windows tie");
        for probe in [&b"a"[..], b"shared", b"shared/", b"shared/\xFF", b"z"] {
            let expect = keys.binary_search_by(|k| k.as_slice().cmp(probe));
            let expect = expect.map(|i| i as u64).map_err(|i| i as u64);
            assert_eq!(dict.find(probe).unwrap(), expect, "{probe:?}");
        }
    }

    #[test]
    fn a_key_that_prefixes_the_next() {
        let keys: Vec<Vec<u8>> = (0..=2 * BLOCK_CAP).map(|n| vec![b'a'; n]).collect();
        assert_answers(&keys);
        let mut keys = vec![b"".to_vec(), b"a".to_vec(), b"ab".to_vec(), b"abc".to_vec()];
        keys.extend([b"abd".to_vec(), b"b".to_vec(), b"b\0".to_vec(), b"b\0\0".to_vec()]);
        assert_answers(&keys);
    }
}

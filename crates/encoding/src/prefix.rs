//! Prefix-encoded string value blocks (paper §3.2.1, Fig. 2).
//!
//! Dictionary pages store groups of up to 16 consecutive sorted values as a
//! *value block*. Within a block each value is front-coded against the
//! preceding value: we store the length of the shared prefix, then the
//! suffix. Large values are split into an **on-page** piece (stored literally
//! in the block) and an **off-page** section: a list of logical pointers to
//! pieces stored on separate overflow pages, plus the total value length.
//!
//! Invariant maintained by the builder: an entry's prefix never extends into
//! the *off-page* region of its predecessor, so the first
//! `prefix_len + on-page-suffix-len` bytes of every entry are materializable
//! from the block alone, and reconstructing one value fetches the off-page
//! pieces of **at most one** value — exactly the property the paper relies
//! on in `findByValueID`.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! block  := header entry{count}
//! header := count:u8                                      -- legacy, bit 7 clear
//!         | (count|0x80):u8 restart:u16{(count-1)/4}      -- restart offsets
//! entry  := prefix_len:u16 onpage_len:u32 flags:u8 suffix:[u8;onpage_len]
//!           [ nptr:u16 (page_no:u64 len:u32){nptr} total_len:u64 ]   -- iff flags&1
//! ```
//!
//! **Restart points.** Every [`RESTART_EVERY`]-th entry is stored with
//! `prefix_len == 0` and its block-relative byte offset recorded in the
//! header, so in-block lookup and materialization resume from the nearest
//! restart instead of replaying the front-coding chain from entry 0. Legacy
//! blocks (count byte with bit 7 clear, the format-0/1 page layout) parse
//! unchanged; the old parser rejects restart headers because `count | 0x80`
//! exceeds [`BLOCK_CAP`].
//!
//! **Compressed blocks.** Blocks may hold FSST-compressed keys (the chain's
//! codec descriptor says so; the block layout is byte-agnostic). Compressed
//! bytes do not preserve `memcmp` order, so the one block search,
//! [`ValueBlockView::lower_bound`], takes the chain's symbol table and
//! orders a compressed entry against the raw probe by streaming the decoder
//! over it ([`SymbolTable::cmp_decoded`]): the probe is never encoded, no
//! entry is decoded into a buffer, and a hit is that comparison returning
//! `Equal`.

use crate::fsst::SymbolTable;
use crate::{EncodingError, Result};
use std::cmp::Ordering;

/// Maximum number of values per block.
pub const BLOCK_CAP: usize = 16;

/// Interval between restart points: entries at indices `0, 4, 8, …` are
/// stored with a zero-length prefix so decoding can start there.
pub const RESTART_EVERY: usize = 4;

/// Count-byte flag: a restart-offset header follows the count byte.
const FLAG_RESTARTS: u8 = 0x80;

/// Low bits of the count byte carrying the entry count.
const COUNT_MASK: u8 = 0x7F;

/// Number of restart offsets recorded for a block of `count` entries
/// (entry 0 needs none: it always sits right after the header).
fn restart_slots(count: usize) -> usize {
    count.saturating_sub(1) / RESTART_EVERY
}

/// Encoded header length for a restart-format block of `count` entries.
fn restart_header_len(count: usize) -> usize {
    1 + 2 * restart_slots(count)
}

/// A logical pointer to one off-page piece of a large value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowRef {
    /// Logical page number (within the dictionary's overflow chain) holding
    /// this piece.
    pub page_no: u64,
    /// Length of the piece in bytes.
    pub len: u32,
}

/// One entry of a block being built.
struct BlockEntry {
    /// Bytes shared with the previous entry's *materializable-on-page* part.
    prefix_len: u16,
    /// The on-page piece of the suffix.
    onpage: Vec<u8>,
    /// Logical pointers to off-page pieces (empty for small values).
    offpage: Vec<OverflowRef>,
    /// Total length of the full value in bytes.
    total_len: u64,
}

impl BlockEntry {
    /// Length of the part of this value reconstructible from the block alone.
    fn onpage_materializable(&self) -> usize {
        self.prefix_len as usize + self.onpage.len()
    }
}

/// Builds one value block from consecutive sorted keys.
pub struct ValueBlockBuilder {
    entries: Vec<BlockEntry>,
    /// Previous full key (for prefix computation).
    prev_key: Vec<u8>,
    /// On-page-materializable length of the previous entry.
    prev_onpage: usize,
    /// Encoded length of the entries serialized so far (header excluded).
    entries_len: usize,
}

impl ValueBlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ValueBlockBuilder {
            entries: Vec::new(),
            prev_key: Vec::new(),
            prev_onpage: 0,
            entries_len: 0,
        }
    }

    /// Number of entries pushed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the block holds [`BLOCK_CAP`] entries.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= BLOCK_CAP
    }

    /// Encoded size in bytes of the block built so far.
    pub fn byte_len(&self) -> usize {
        restart_header_len(self.entries.len()) + self.entries_len
    }

    /// Prefix length the entry at `idx` would share with the predecessor
    /// materializing `shared` raw bytes: zero at restart points.
    fn shared_at(&self, idx: usize, key: &[u8]) -> usize {
        if idx.is_multiple_of(RESTART_EVERY) {
            0
        } else {
            common_prefix(&self.prev_key, key)
                .min(self.prev_onpage)
                .min(u16::MAX as usize)
        }
    }

    /// Encoded size the block would have after pushing `key` (ignoring
    /// spill: assumes the whole suffix stays on-page). Used by page writers
    /// to decide when to close a page.
    pub fn projected_len(&self, key: &[u8]) -> usize {
        let idx = self.entries.len();
        let shared = self.shared_at(idx, key);
        restart_header_len(idx + 1) + self.entries_len + 2 + 4 + 1 + (key.len() - shared)
    }

    /// Suffix length `key` would store if pushed next (zero shared bytes at
    /// restart points). Lets page writers budget the entry separately from
    /// the restart-header growth that [`ValueBlockBuilder::projected_len`]
    /// folds in.
    pub fn next_suffix_len(&self, key: &[u8]) -> usize {
        key.len() - self.shared_at(self.entries.len(), key)
    }

    /// Appends a key. `inline_limit` bounds the on-page suffix bytes; the
    /// excess is handed to `alloc_overflow`, which must store the bytes on
    /// overflow pages and return the logical pointers.
    ///
    /// Keys must be pushed in non-decreasing order (dictionary order).
    ///
    /// # Panics
    /// Panics if the block is full or keys are pushed out of order.
    pub fn push(
        &mut self,
        key: &[u8],
        inline_limit: usize,
        alloc_overflow: &mut dyn FnMut(&[u8]) -> Vec<OverflowRef>,
    ) {
        assert!(
            self.entries.is_empty() || self.prev_key.as_slice() <= key,
            "keys must be pushed in sorted order"
        );
        self.push_unordered(key, inline_limit, alloc_overflow);
    }

    /// Like [`ValueBlockBuilder::push`], but without the sorted-order
    /// assertion. Used for blocks of FSST-compressed keys: the *raw* keys
    /// are sorted, but their compressed forms need not be `memcmp`-ordered.
    pub fn push_unordered(
        &mut self,
        key: &[u8],
        inline_limit: usize,
        alloc_overflow: &mut dyn FnMut(&[u8]) -> Vec<OverflowRef>,
    ) {
        assert!(!self.is_full(), "value block is full");
        let shared = self.shared_at(self.entries.len(), key);
        let suffix = &key[shared..];
        let (onpage, offpage) = if suffix.len() > inline_limit {
            (suffix[..inline_limit].to_vec(), alloc_overflow(&suffix[inline_limit..]))
        } else {
            (suffix.to_vec(), Vec::new())
        };
        let entry = BlockEntry {
            prefix_len: shared as u16,
            onpage,
            offpage,
            total_len: key.len() as u64,
        };
        self.entries_len += entry_encoded_len(&entry);
        self.prev_onpage = entry.onpage_materializable();
        self.prev_key.clear();
        self.prev_key.extend_from_slice(key);
        self.entries.push(entry);
    }

    /// Serializes the block.
    ///
    /// # Panics
    /// Panics on an empty block.
    pub fn finish(self) -> Vec<u8> {
        assert!(!self.entries.is_empty(), "cannot encode an empty value block");
        let count = self.entries.len();
        let header = restart_header_len(count);
        let mut body = Vec::with_capacity(self.entries_len);
        let mut offsets = Vec::with_capacity(restart_slots(count));
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 && i % RESTART_EVERY == 0 {
                offsets.push(header + body.len());
            }
            body.extend_from_slice(&e.prefix_len.to_le_bytes());
            body.extend_from_slice(&(e.onpage.len() as u32).to_le_bytes());
            body.push(u8::from(!e.offpage.is_empty()));
            body.extend_from_slice(&e.onpage);
            if !e.offpage.is_empty() {
                body.extend_from_slice(&(e.offpage.len() as u16).to_le_bytes());
                for r in &e.offpage {
                    body.extend_from_slice(&r.page_no.to_le_bytes());
                    body.extend_from_slice(&r.len.to_le_bytes());
                }
                body.extend_from_slice(&e.total_len.to_le_bytes());
            }
        }
        debug_assert_eq!(body.len(), self.entries_len);
        if offsets.iter().any(|&o| o > u16::MAX as usize) {
            // Degenerate giant entries pushed a restart past the u16 offset
            // range: fall back to the legacy header (no restarts). Readers
            // handle both; `byte_len()` merely over-reported a few bytes.
            let mut out = Vec::with_capacity(1 + body.len());
            out.push(count as u8);
            out.extend_from_slice(&body);
            return out;
        }
        let mut out = Vec::with_capacity(header + body.len());
        out.push(count as u8 | FLAG_RESTARTS);
        for o in &offsets {
            out.extend_from_slice(&(*o as u16).to_le_bytes());
        }
        out.extend_from_slice(&body);
        debug_assert_eq!(out.len(), header + self.entries_len);
        out
    }
}

impl Default for ValueBlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

fn entry_encoded_len(e: &BlockEntry) -> usize {
    let mut n = 2 + 4 + 1 + e.onpage.len();
    if !e.offpage.is_empty() {
        n += 2 + e.offpage.len() * 12 + 8;
    }
    n
}

/// Longest common prefix length of two byte strings.
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A zero-copy view over an encoded value block — the one block reader.
/// Entries are decoded from the page bytes where they lie, with no
/// per-entry allocation, by one forward walk ([`BlockWalk`]) that starts at
/// a restart point and checks every entry it decodes.
#[derive(Clone, Copy)]
pub struct ValueBlockView<'a> {
    bytes: &'a [u8],
    count: usize,
    has_restarts: bool,
}

/// One entry of a [`ValueBlockView`], borrowing from the page.
pub struct EntryView<'a> {
    /// Bytes shared with the predecessor's on-page-materializable part.
    prefix_len: usize,
    /// The on-page piece of the suffix.
    onpage: &'a [u8],
    /// Raw bytes of the off-page pointer array (12 bytes per pointer);
    /// empty for fully inline values.
    offpage_raw: &'a [u8],
    /// Total length of the full value.
    total_len: u64,
}

impl EntryView<'_> {
    /// True when the value goes on off-page.
    fn spilled(&self) -> bool {
        !self.offpage_raw.is_empty()
    }

    /// The pointers to the entry's off-page pieces, in value order; none
    /// for an inline value.
    pub fn offpage_refs(&self) -> impl Iterator<Item = OverflowRef> + '_ {
        self.offpage_raw.chunks_exact(12).map(|b| OverflowRef {
            page_no: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
        })
    }
}

/// A forward walk over a block's entries from the head of one restart
/// group, replaying the front coding into one caller buffer — the point
/// read, the search and the whole-block read are this walk. It checks what
/// it reads: every prefix within its predecessor's on-page part, flags 0 or
/// 1, a pointer behind every spill flag, a total length that adds up, a
/// zero prefix at every restart head, and every restart offset it crosses
/// where its entry lies — no entry runs past the next one.
pub struct BlockWalk<'a> {
    block: ValueBlockView<'a>,
    /// Index and byte position of the next entry.
    next: usize,
    pos: usize,
    /// Where the next restart point lies: the end of the group being walked.
    group_end: usize,
    /// On-page-materializable length of the entry before `next`: the most
    /// that entry may share.
    shared_max: usize,
    /// Index of the next restart point the walk crosses (none in a legacy
    /// block).
    restart_at: usize,
}

impl<'a> BlockWalk<'a> {
    /// Decodes the next entry and leaves its on-page-materializable part in
    /// `acc`, which holds what the previous step left there — plus, if the
    /// caller appended them, that entry's off-page pieces, which the next
    /// entry's prefix never reaches. `None` past the last entry.
    pub fn next_into(&mut self, acc: &mut Vec<u8>) -> Result<Option<EntryView<'a>>> {
        if self.next == self.block.count {
            return Ok(None);
        }
        self.step(acc).map(Some)
    }

    /// [`BlockWalk::next_into`] for a walk known not to be past the end.
    #[inline(always)]
    fn step(&mut self, acc: &mut Vec<u8>) -> Result<EntryView<'a>> {
        let (i, block) = (self.next, self.block);
        if i == self.restart_at {
            // A restart point: the group before ends here, and the entry
            // shares nothing.
            if self.pos != self.group_end {
                return Err(misplaced_restart(i, self.group_end, self.pos));
            }
            self.group_end = block.group_end(i / RESTART_EVERY);
            self.restart_at += RESTART_EVERY;
            self.shared_max = 0;
        }
        let (entry, pos) = block.entry_at(self.pos, i, self.shared_max, self.group_end)?;
        acc.truncate(entry.prefix_len);
        acc.extend_from_slice(entry.onpage);
        self.shared_max = acc.len();
        (self.next, self.pos) = (i + 1, pos);
        Ok(entry)
    }
}

#[cold]
fn misplaced_restart(i: usize, offset: usize, pos: usize) -> EncodingError {
    corrupt(format!("restart offset {offset} for entry {i} does not match its position {pos}"))
}

impl<'a> ValueBlockView<'a> {
    /// Creates a view over a block starting at `bytes[0]`. Only the count
    /// byte is validated here; entry structure is validated as entries are
    /// walked.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        if bytes.is_empty() {
            return Err(corrupt("empty block".into()));
        }
        let has_restarts = bytes[0] & FLAG_RESTARTS != 0;
        let count = (bytes[0] & COUNT_MASK) as usize;
        if count == 0 || count > BLOCK_CAP {
            return Err(corrupt(format!("value block count {count} outside 1..=16")));
        }
        if has_restarts && bytes.len() < restart_header_len(count) {
            return Err(corrupt("truncated restart header".into()));
        }
        Ok(ValueBlockView { bytes, count, has_restarts })
    }

    /// Number of restart points after entry 0 (groups are `RESTART_EVERY`
    /// entries wide; group `g > 0` starts at the recorded offset).
    fn groups(&self) -> usize {
        if self.has_restarts {
            restart_slots(self.count)
        } else {
            0
        }
    }

    /// Byte position where group `g` starts (`g == 0` ⇒ right after the
    /// header; `g >= 1` ⇒ the recorded restart offset of entry `g·4`).
    fn group_pos(&self, g: usize) -> usize {
        if g == 0 {
            if self.has_restarts {
                restart_header_len(self.count)
            } else {
                1
            }
        } else {
            let off = 1 + 2 * (g - 1);
            u16::from_le_bytes(self.bytes[off..off + 2].try_into().unwrap()) as usize
        }
    }

    /// Byte position by which group `g` ends: the next restart offset, or
    /// the end of the bytes for the last group.
    fn group_end(&self, g: usize) -> usize {
        if g < self.groups() {
            self.group_pos(g + 1)
        } else {
            self.bytes.len()
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no entries (never true after `parse`).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A walk over every entry of the block, from the first.
    pub fn walk(&self) -> BlockWalk<'a> {
        self.walk_from(0)
    }

    /// A walk from the head of restart group `g`.
    fn walk_from(&self, g: usize) -> BlockWalk<'a> {
        BlockWalk {
            block: *self,
            next: g * RESTART_EVERY,
            pos: self.group_pos(g),
            group_end: self.group_end(g),
            shared_max: 0,
            restart_at: if self.has_restarts { (g + 1) * RESTART_EVERY } else { usize::MAX },
        }
    }

    /// Decodes entry `i`, which starts at byte `pos`, may share at most
    /// `shared_max` bytes with its predecessor and must end by byte `end`;
    /// returns it with the position of entry `i + 1`. (Forced inline: left
    /// to the heuristic it stays out of line for its cold `format!`s, and an
    /// entry read off a block — ~16 ns — then costs 31.)
    #[inline(always)]
    fn entry_at(
        &self,
        pos: usize,
        i: usize,
        shared_max: usize,
        end: usize,
    ) -> Result<(EntryView<'a>, usize)> {
        let bytes = self.bytes;
        let truncated = || corrupt(format!("truncated block at entry {i}"));
        let fixed = bytes.get(pos..pos + 7).ok_or_else(truncated)?;
        let prefix_len = u16::from_le_bytes([fixed[0], fixed[1]]) as usize;
        let onpage_len = u32::from_le_bytes([fixed[2], fixed[3], fixed[4], fixed[5]]) as usize;
        if prefix_len > shared_max {
            return Err(corrupt(format!(
                "entry {i}: prefix {prefix_len} exceeds the {shared_max} bytes it may share"
            )));
        }
        if fixed[6] > 1 {
            return Err(corrupt(format!("entry {i}: unknown flags {:#x}", fixed[6])));
        }
        let mut pos = pos + 7;
        let onpage = bytes.get(pos..pos + onpage_len).ok_or_else(truncated)?;
        pos += onpage_len;
        let mut total_len = (prefix_len + onpage_len) as u64;
        let mut offpage_raw = &bytes[0..0];
        if fixed[6] == 1 {
            let nptr = bytes.get(pos..pos + 2).ok_or_else(truncated)?;
            let nptr = u16::from_le_bytes([nptr[0], nptr[1]]) as usize;
            if nptr == 0 {
                return Err(corrupt(format!("entry {i}: off-page flag with zero pointers")));
            }
            pos += 2;
            let tail = bytes.get(pos..pos + nptr * 12 + 8).ok_or_else(truncated)?;
            pos += tail.len();
            let (raw, stored) = tail.split_at(nptr * 12);
            let stored = u64::from_le_bytes(stored.try_into().unwrap());
            let off: u64 = raw
                .chunks_exact(12)
                .map(|p| u64::from(u32::from_le_bytes(p[8..12].try_into().unwrap())))
                .sum();
            if stored != total_len + off {
                return Err(corrupt(format!(
                    "entry {i}: total_len {stored} != prefix {prefix_len} + onpage {onpage_len} + offpage {off}"
                )));
            }
            (offpage_raw, total_len) = (raw, stored);
        }
        if pos > end {
            return Err(corrupt(format!("entry {i} runs past the restart offset {end}")));
        }
        Ok((EntryView { prefix_len, onpage, offpage_raw, total_len }, pos))
    }

    /// The head of restart group `g` — entry `g · RESTART_EVERY`, stored
    /// with a zero prefix, so its on-page bytes are the value's leading
    /// bytes where they lie.
    #[inline(always)]
    fn head(&self, g: usize) -> Result<EntryView<'a>> {
        Ok(self.entry_at(self.group_pos(g), g * RESTART_EVERY, 0, self.group_end(g))?.0)
    }

    /// Reconstructs the on-page-materializable part of entry `idx` into
    /// `acc`, walking from the nearest restart point, and returns the
    /// entry's off-page pointers + total length, so the caller can fetch
    /// overflow pieces.
    pub fn materialize_onpage_into(
        &self,
        idx: usize,
        acc: &mut Vec<u8>,
    ) -> Result<(Vec<OverflowRef>, u64)> {
        assert!(idx < self.count);
        let g = (idx / RESTART_EVERY).min(self.groups());
        let mut walk = self.walk_from(g);
        loop {
            let entry = walk.step(acc)?;
            if walk.next > idx {
                // An empty `collect` is not free (~4 of this read's ~19 ns),
                // and most entries are inline.
                let offpage =
                    if entry.spilled() { entry.offpage_refs().collect() } else { Vec::new() };
                return Ok((offpage, entry.total_len));
            }
        }
    }

    /// Orders the block's first value — its routing key — against the raw
    /// probe `key`, on the page bytes where it lies. `table` says what the
    /// entry bytes are: raw (`None`) or FSST-compressed. Off-page pieces are
    /// fetched (into `acc`) only when the on-page part is a proper prefix of
    /// the probe.
    pub fn cmp_first(
        &self,
        key: &[u8],
        table: Option<&SymbolTable>,
        acc: &mut Vec<u8>,
        fetch: Fetch<'_>,
    ) -> Result<Ordering> {
        let head = self.head(0)?;
        if let Some(ord) = cmp_onpage(head.onpage, head.spilled(), key, table)? {
            return Ok(ord);
        }
        acc.clear();
        acc.extend_from_slice(head.onpage);
        append_pieces(acc, head.offpage_refs(), fetch)?;
        cmp_value(acc, key, table)
    }

    /// Searches the block — sorted by raw value — for the raw probe `key`:
    /// `Ok(slot)` on a hit, `Err(slot)` for the insertion point (as
    /// `slice::binary_search`). `table` says what the entry bytes are: raw
    /// (`None`) or FSST-compressed, which [`SymbolTable::cmp_decoded`]
    /// orders without decoding them and without encoding the probe.
    ///
    /// Restart heads are searched first, in place; the one group left is
    /// then walked into `acc` (caller scratch), to the block's end if need
    /// be, and its entries compared one by one. A hit is that comparison
    /// returning `Equal`. Off-page pieces are fetched only for an entry
    /// whose on-page part is a proper prefix of the probe.
    pub fn lower_bound(
        &self,
        key: &[u8],
        table: Option<&SymbolTable>,
        acc: &mut Vec<u8>,
        fetch: Fetch<'_>,
    ) -> Result<std::result::Result<usize, usize>> {
        // The deepest group whose head is below the probe: everything
        // before it is below the probe too. A head that only its off-page
        // tail could order counts as not below.
        let (mut lo, mut hi) = (0, self.groups() + 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let head = self.head(mid)?;
            match cmp_onpage(head.onpage, head.spilled(), key, table)? {
                Some(Ordering::Less) => lo = mid,
                Some(Ordering::Equal) => return Ok(Ok(mid * RESTART_EVERY)),
                Some(Ordering::Greater) | None => hi = mid,
            }
        }
        let first = lo * RESTART_EVERY;
        let mut walk = self.walk_from(lo);
        for i in first..self.count {
            let entry = walk.step(acc)?;
            if i == first && lo > 0 {
                continue; // the head search found it below the probe
            }
            let ord = match cmp_onpage(acc, entry.spilled(), key, table)? {
                Some(ord) => ord,
                None => {
                    // The next entry's prefix never reaches into these
                    // pieces, so they can sit in `acc` until it truncates.
                    append_pieces(acc, entry.offpage_refs(), fetch)?;
                    cmp_value(acc, key, table)?
                }
            };
            match ord {
                Ordering::Less => {}
                Ordering::Equal => return Ok(Ok(i)),
                Ordering::Greater => return Ok(Err(i)),
            }
        }
        Ok(Err(self.count))
    }
}

/// Fetches one off-page piece of a large value.
pub type Fetch<'f> = &'f mut dyn FnMut(&OverflowRef) -> Result<Vec<u8>>;

/// Appends the off-page `pieces` of a value to its on-page part in `acc`,
/// checking every piece against its recorded length (the entry's total
/// length is the sum of those, checked as it was decoded).
fn append_pieces(
    acc: &mut Vec<u8>,
    pieces: impl Iterator<Item = OverflowRef>,
    fetch: Fetch<'_>,
) -> Result<()> {
    for r in pieces {
        let piece = fetch(&r)?;
        if piece.len() != r.len as usize {
            return Err(corrupt(format!(
                "overflow piece on page {} has {} bytes, expected {}",
                r.page_no,
                piece.len(),
                r.len
            )));
        }
        acc.extend_from_slice(&piece);
    }
    Ok(())
}

/// Orders a complete stored value against the raw probe `key`.
fn cmp_value(value: &[u8], key: &[u8], table: Option<&SymbolTable>) -> Result<Ordering> {
    match table {
        Some(table) => table.cmp_decoded(value, key),
        None => Ok(value.cmp(key)),
    }
}

/// Orders a value against the raw probe `key` by its on-page part alone.
/// `None` when the value is `spilled` — it goes on off-page, by at least one
/// byte — and what is on the page is a proper prefix of `key`.
fn cmp_onpage(
    onpage: &[u8],
    spilled: bool,
    key: &[u8],
    table: Option<&SymbolTable>,
) -> Result<Option<Ordering>> {
    if !spilled {
        return cmp_value(onpage, key, table).map(Some);
    }
    if let Some(table) = table {
        return table.cmp_decoded_prefix(onpage, key);
    }
    let n = onpage.len().min(key.len());
    Ok(match onpage[..n].cmp(&key[..n]) {
        Ordering::Equal if n == key.len() => Some(Ordering::Greater),
        Ordering::Equal => None,
        ord => Some(ord),
    })
}

fn corrupt(reason: String) -> EncodingError {
    EncodingError::CorruptBlock { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Test overflow store: allocates a fresh "page" per piece.
    struct OverflowSim {
        pages: HashMap<u64, Vec<u8>>,
        next: u64,
        piece_cap: usize,
    }

    impl OverflowSim {
        fn new(piece_cap: usize) -> Self {
            OverflowSim { pages: HashMap::new(), next: 0, piece_cap }
        }
        fn alloc(&mut self, bytes: &[u8]) -> Vec<OverflowRef> {
            bytes
                .chunks(self.piece_cap)
                .map(|c| {
                    let p = self.next;
                    self.next += 1;
                    self.pages.insert(p, c.to_vec());
                    OverflowRef { page_no: p, len: c.len() as u32 }
                })
                .collect()
        }
        fn fetch(&self) -> impl FnMut(&OverflowRef) -> Result<Vec<u8>> + '_ {
            |r: &OverflowRef| Ok(self.pages[&r.page_no].clone())
        }
    }

    fn build(keys: &[&[u8]], inline_limit: usize, sim: &mut OverflowSim) -> Vec<u8> {
        let mut b = ValueBlockBuilder::new();
        for k in keys {
            b.push(k, inline_limit, &mut |bytes| sim.alloc(bytes));
        }
        b.finish()
    }

    /// One entry as the wire format lays it out, read independently of the
    /// view: its byte position, prefix length and on-page length.
    #[derive(Debug)]
    pub(super) struct RawEntry {
        pub(super) pos: usize,
        pub(super) prefix_len: usize,
        pub(super) onpage_len: usize,
    }

    /// Every entry of a well-formed block, and the byte where the block ends.
    pub(super) fn raw_entries(bytes: &[u8]) -> (Vec<RawEntry>, usize) {
        let count = (bytes[0] & COUNT_MASK) as usize;
        let mut pos = if bytes[0] & FLAG_RESTARTS != 0 { restart_header_len(count) } else { 1 };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let prefix_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
            let onpage_len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
            out.push(RawEntry { pos, prefix_len, onpage_len });
            let spilled = bytes[pos + 6] & 1 == 1;
            pos += 7 + onpage_len;
            if spilled {
                let nptr = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
                pos += 2 + nptr * 12 + 8;
            }
        }
        (out, pos)
    }

    /// Entry `idx` of `view`, whole: its on-page part, then its off-page
    /// pieces.
    pub(super) fn materialize(view: &ValueBlockView<'_>, idx: usize, fetch: Fetch<'_>) -> Result<Vec<u8>> {
        let mut acc = Vec::new();
        let (offpage, total) = view.materialize_onpage_into(idx, &mut acc)?;
        append_pieces(&mut acc, offpage.into_iter(), fetch)?;
        assert_eq!(acc.len() as u64, total, "entry {idx}");
        Ok(acc)
    }

    /// Every entry of `view`, whole, read by one walk.
    pub(super) fn walk_all(view: &ValueBlockView<'_>, fetch: Fetch<'_>) -> Result<Vec<Vec<u8>>> {
        let (mut walk, mut acc, mut out) = (view.walk(), Vec::new(), Vec::new());
        while let Some(entry) = walk.next_into(&mut acc)? {
            append_pieces(&mut acc, entry.offpage_refs(), fetch)?;
            out.push(acc.clone());
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_small_strings() {
        let keys: Vec<&[u8]> = vec![b"apple", b"applesauce", b"apply", b"banana", b"band"];
        let mut sim = OverflowSim::new(8);
        let bytes = build(&keys, 1024, &mut sim);
        let (raw, end) = raw_entries(&bytes);
        assert_eq!(end, bytes.len());
        let view = ValueBlockView::parse(&bytes).unwrap();
        assert_eq!(view.len(), 5);
        // Prefix compression actually happened.
        assert_eq!(raw[1].prefix_len, 5); // "apple" ∩ "applesauce"
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(materialize(&view, i, &mut sim.fetch()).unwrap(), *k);
        }
        assert_eq!(walk_all(&view, &mut sim.fetch()).unwrap(), keys);
    }

    #[test]
    fn roundtrip_large_strings_with_overflow() {
        let big1: Vec<u8> = std::iter::repeat(b"xyz".iter().copied()).flatten().take(500).collect();
        let mut big2 = big1.clone();
        big2.extend_from_slice(b"~tail-differs");
        let keys: Vec<&[u8]> = vec![b"aaa", &big1, &big2, b"zz"];
        let mut sim = OverflowSim::new(64);
        let bytes = build(&keys, 16, &mut sim);
        let view = ValueBlockView::parse(&bytes).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(materialize(&view, i, &mut sim.fetch()).unwrap(), *k, "entry {i}");
        }
        assert_eq!(walk_all(&view, &mut sim.fetch()).unwrap(), keys);
        // big2's prefix against big1 is capped at big1's on-page part:
        // fetching big2 must not require big1's overflow pages.
        let (raw, _) = raw_entries(&bytes);
        assert!(raw[2].prefix_len <= raw[1].prefix_len + raw[1].onpage_len);
    }

    #[test]
    fn find_hits_and_misses() {
        let keys: Vec<&[u8]> = vec![b"cat", b"catalog", b"dog", b"dove"];
        let mut sim = OverflowSim::new(8);
        let bytes = build(&keys, 1024, &mut sim);
        let view = ValueBlockView::parse(&bytes).unwrap();
        let find = |key: &[u8]| view.lower_bound(key, None, &mut Vec::new(), &mut sim.fetch()).unwrap();
        assert_eq!(find(b"cat"), Ok(0));
        assert_eq!(find(b"dog"), Ok(2));
        assert_eq!(find(b"dove"), Ok(3));
        assert_eq!(find(b"aardvark"), Err(0));
        assert_eq!(find(b"cata"), Err(1));
        assert_eq!(find(b"zebra"), Err(4));
    }

    #[test]
    fn find_on_large_strings_fetches_only_when_prefix_matches() {
        let mut big: Vec<u8> = b"big-".to_vec();
        big.extend((0..300u32).flat_map(|i| i.to_le_bytes()));
        let keys: Vec<&[u8]> = vec![b"a", &big];
        let mut sim = OverflowSim::new(32);
        let bytes = build(&keys, 8, &mut sim);
        let view = ValueBlockView::parse(&bytes).unwrap();
        let mut acc = Vec::new();
        let mut fetched = 0usize;
        {
            let mut counting_fetch = |r: &OverflowRef| {
                fetched += 1;
                Ok(sim.pages[&r.page_no].clone())
            };
            // Key that diverges within the on-page part: no fetch needed.
            assert_eq!(view.lower_bound(b"zzz", None, &mut acc, &mut counting_fetch).unwrap(), Err(2));
        }
        assert_eq!(fetched, 0);
        // Exact match on the big key requires fetching its pieces.
        assert_eq!(view.lower_bound(&big, None, &mut acc, &mut sim.fetch()).unwrap(), Ok(1));
    }

    #[test]
    fn parse_rejects_corruption() {
        let keys: Vec<&[u8]> = vec![b"alpha", b"beta"];
        let mut sim = OverflowSim::new(8);
        let bytes = build(&keys, 1024, &mut sim);
        let walk = |bytes: &[u8]| walk_all(&ValueBlockView::parse(bytes)?, &mut sim.fetch());
        // Truncation.
        assert!(walk(&bytes[..bytes.len() - 1]).is_err());
        // Zero count.
        let mut z = bytes.clone();
        z[0] = 0;
        assert!(ValueBlockView::parse(&z).is_err());
        // Count above capacity.
        z[0] = 17;
        assert!(ValueBlockView::parse(&z).is_err());
        // Nonzero prefix on the first entry.
        let mut p = bytes.clone();
        p[1] = 3;
        assert!(walk(&p).is_err());
        assert!(ValueBlockView::parse(&p).unwrap().materialize_onpage_into(0, &mut Vec::new()).is_err());
    }

    #[test]
    fn duplicate_keys_are_allowed() {
        // Dictionaries are deduplicated, but separator blocks may legally
        // carry equal adjacent keys; the builder accepts non-decreasing.
        let keys: Vec<&[u8]> = vec![b"same", b"same"];
        let mut sim = OverflowSim::new(8);
        let bytes = build(&keys, 1024, &mut sim);
        let view = ValueBlockView::parse(&bytes).unwrap();
        assert_eq!(materialize(&view, 1, &mut sim.fetch()).unwrap(), b"same");
        assert_eq!(walk_all(&view, &mut sim.fetch()).unwrap(), keys);
    }

    #[test]
    fn projected_len_matches_actual_growth() {
        let mut sim = OverflowSim::new(8);
        let mut b = ValueBlockBuilder::new();
        b.push(b"prefix-one", 1024, &mut |x| sim.alloc(x));
        let projected = b.projected_len(b"prefix-two");
        b.push(b"prefix-two", 1024, &mut |x| sim.alloc(x));
        assert_eq!(b.byte_len(), projected);
        assert_eq!(b.finish().len(), projected);
    }

    #[test]
    fn projected_len_matches_across_restart_boundaries() {
        let mut sim = OverflowSim::new(8);
        let mut b = ValueBlockBuilder::new();
        for i in 0..BLOCK_CAP {
            let key = format!("restart-growth-{i:02}").into_bytes();
            let projected = b.projected_len(&key);
            b.push(&key, 1024, &mut |x| sim.alloc(x));
            assert_eq!(b.byte_len(), projected, "entry {i}");
        }
        let expected = b.byte_len();
        assert_eq!(b.finish().len(), expected);
    }

    #[test]
    fn restart_entries_have_zero_prefix_and_recorded_offsets() {
        let keys: Vec<Vec<u8>> =
            (0..BLOCK_CAP).map(|i| format!("shared-prefix-{i:02}").into_bytes()).collect();
        let mut sim = OverflowSim::new(8);
        let mut b = ValueBlockBuilder::new();
        for k in &keys {
            b.push(k, 1024, &mut |x| sim.alloc(x));
        }
        let bytes = b.finish();
        assert_eq!(bytes[0], BLOCK_CAP as u8 | 0x80);
        let (raw, end) = raw_entries(&bytes);
        assert_eq!(end, bytes.len());
        for (i, e) in raw.iter().enumerate() {
            if i % RESTART_EVERY == 0 {
                assert_eq!(e.prefix_len, 0, "entry {i} is a restart");
            } else {
                assert!(e.prefix_len > 0, "entry {i} front-codes");
            }
        }
        for g in 1..BLOCK_CAP / RESTART_EVERY {
            let recorded = u16::from_le_bytes(bytes[2 * g - 1..2 * g + 1].try_into().unwrap());
            assert_eq!(recorded as usize, raw[g * RESTART_EVERY].pos, "restart offset {g}");
        }
        let view = ValueBlockView::parse(&bytes).unwrap();
        let mut fetch = sim.fetch();
        let mut acc = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(&materialize(&view, i, &mut fetch).unwrap(), k);
            assert_eq!(view.lower_bound(k, None, &mut acc, &mut fetch).unwrap(), Ok(i));
        }
        assert_eq!(walk_all(&view, &mut fetch).unwrap(), keys);
    }

    #[test]
    fn legacy_blocks_without_restart_header_still_parse() {
        let keys: Vec<Vec<u8>> =
            (0..BLOCK_CAP).map(|i| format!("legacy-key-{i:02}").into_bytes()).collect();
        let mut sim = OverflowSim::new(8);
        let mut b = ValueBlockBuilder::new();
        for k in &keys {
            b.push(k, 1024, &mut |x| sim.alloc(x));
        }
        let bytes = b.finish();
        // Reconstruct the legacy wire form: plain count byte, no offsets.
        let header = 1 + 2 * ((BLOCK_CAP - 1) / RESTART_EVERY);
        let mut legacy = vec![BLOCK_CAP as u8];
        legacy.extend_from_slice(&bytes[header..]);
        assert_eq!(raw_entries(&legacy).1, legacy.len());
        let view = ValueBlockView::parse(&legacy).unwrap();
        let mut fetch = sim.fetch();
        let mut acc = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(&materialize(&view, i, &mut fetch).unwrap(), k);
            assert_eq!(view.lower_bound(k, None, &mut acc, &mut fetch).unwrap(), Ok(i));
        }
        assert_eq!(walk_all(&view, &mut fetch).unwrap(), keys);
    }
}

#[cfg(test)]
mod view_tests {
    use super::tests::{materialize, raw_entries, walk_all};
    use super::*;
    use std::collections::HashMap;

    fn build_random(
        keys: &[Vec<u8>],
        inline_limit: usize,
    ) -> (Vec<u8>, HashMap<u64, Vec<u8>>) {
        let mut pages = HashMap::new();
        let mut next = 0u64;
        let mut b = ValueBlockBuilder::new();
        for k in keys {
            b.push(k, inline_limit, &mut |bytes: &[u8]| {
                bytes
                    .chunks(16)
                    .map(|c| {
                        let p = next;
                        next += 1;
                        pages.insert(p, c.to_vec());
                        OverflowRef { page_no: p, len: c.len() as u32 }
                    })
                    .collect()
            });
        }
        (b.finish(), pages)
    }

    #[test]
    fn view_agrees_with_the_keys() {
        let mut keys: Vec<Vec<u8>> = (0..14u32)
            .map(|i| {
                let mut k = format!("entry-{i:02}-").into_bytes();
                k.extend(std::iter::repeat_n(b'y', (i as usize * 13) % 90));
                k
            })
            .collect();
        keys.sort();
        keys.dedup();
        let (bytes, pages) = build_random(&keys, 12);
        let view = ValueBlockView::parse(&bytes).unwrap();
        assert_eq!(view.len(), keys.len());
        let mut fetch = |r: &OverflowRef| Ok(pages[&r.page_no].clone());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(&materialize(&view, i, &mut fetch).unwrap(), k, "entry {i}");
        }
        assert_eq!(walk_all(&view, &mut fetch).unwrap(), keys);
        // Probes: every key, plus misses around them.
        let mut acc = Vec::new();
        let mut probes: Vec<Vec<u8>> = vec![Vec::new(), b"zzzz".to_vec()];
        for k in &keys {
            probes.push(k.clone());
            probes.push([k.as_slice(), &[0]].concat());
            probes.push(k[..k.len() - 1].to_vec());
        }
        for probe in &probes {
            assert_eq!(
                view.lower_bound(probe, None, &mut acc, &mut fetch).unwrap(),
                keys.binary_search(probe),
                "probe {:?}",
                String::from_utf8_lossy(probe)
            );
        }
        // cmp_first orders the block's first key.
        for probe in [&keys[0], &keys[2], &b"a".to_vec()] {
            assert_eq!(view.cmp_first(probe, None, &mut acc, &mut fetch).unwrap(), keys[0].cmp(probe));
        }
    }

    #[test]
    fn view_rejects_garbage() {
        assert!(ValueBlockView::parse(&[]).is_err());
        assert!(ValueBlockView::parse(&[0]).is_err());
        assert!(ValueBlockView::parse(&[17]).is_err());
        // Truncated entry payload.
        let v = ValueBlockView::parse(&[1, 0, 0, 200, 0, 0, 0, 0]).unwrap();
        assert!(v.materialize_onpage_into(0, &mut Vec::new()).is_err());
        assert!(v.lower_bound(b"k", None, &mut Vec::new(), &mut |_| Ok(Vec::new())).is_err());
        // Restart flag with a truncated offset array.
        assert!(ValueBlockView::parse(&[16 | 0x80, 9]).is_err());
    }

    #[test]
    fn view_rejects_every_corruption_the_block_format_forbids() {
        let keys: Vec<Vec<u8>> = (0..BLOCK_CAP).map(|i| format!("k-{i:02}").into_bytes()).collect();
        let (bytes, _) = build_random(&keys, 1024);
        let pos: Vec<usize> = raw_entries(&bytes).0.iter().map(|e| e.pos).collect();
        let patched = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut b = bytes.clone();
            patch(&mut b);
            b
        };
        // (what, the corrupted entry, the block)
        let cases = [
            (
                "prefix beyond the predecessor's on-page part",
                1,
                patched(&|b| b[pos[1]..pos[1] + 2].copy_from_slice(&5u16.to_le_bytes())),
            ),
            ("flags = 2", 1, patched(&|b| b[pos[1] + 6] = 2)),
            (
                "spill flag with zero pointers",
                BLOCK_CAP - 1,
                patched(&|b| {
                    b[pos[BLOCK_CAP - 1] + 6] = 1;
                    b.extend_from_slice(&0u16.to_le_bytes());
                    b.extend_from_slice(&4u64.to_le_bytes());
                }),
            ),
            ("restart offset 1 pointing at restart 2's entry", 5, patched(&|b| b.copy_within(3..5, 1))),
            (
                "nonzero prefix at a restart entry",
                4,
                patched(&|b| b[pos[4]..pos[4] + 2].copy_from_slice(&3u16.to_le_bytes())),
            ),
        ];
        let mut accepted = Vec::new();
        for (what, idx, block) in &cases {
            let view = ValueBlockView::parse(block).unwrap();
            let mut acc = Vec::new();
            let mut fetch = |_: &OverflowRef| Ok(Vec::new());
            if view.materialize_onpage_into(*idx, &mut acc).is_ok() {
                let got = String::from_utf8_lossy(&acc);
                accepted.push(format!("{what}: materialize_onpage_into({idx}) = {got:?}"));
            }
            if let Ok(found) = view.lower_bound(&keys[*idx], None, &mut acc, &mut fetch) {
                accepted.push(format!("{what}: lower_bound(keys[{idx}]) = {found:?}"));
            }
            if let Ok(all) = walk_all(&view, &mut fetch) {
                let all: Vec<_> = all.iter().map(|k| String::from_utf8_lossy(k).into_owned()).collect();
                accepted.push(format!("{what}: whole-block walk = {all:?}"));
            }
        }
        assert!(accepted.is_empty(), "corruptions read as data:\n{}", accepted.join("\n"));
    }

    #[test]
    fn materialization_resumes_at_restart_points_not_entry_zero() {
        let keys: Vec<Vec<u8>> =
            (0..BLOCK_CAP).map(|i| format!("restart-jump-{i:02}").into_bytes()).collect();
        let (bytes, pages) = build_random(&keys, 1024);
        // Locate the recorded restart offsets for groups 1 and 2.
        let g1 = u16::from_le_bytes(bytes[1..3].try_into().unwrap()) as usize;
        let g2 = u16::from_le_bytes(bytes[3..5].try_into().unwrap()) as usize;
        // Destroy the bytes of group 1 (entries 4..8). Entries in groups 0,
        // 2 and 3 must still materialize and probe correctly, proving the
        // walk starts at the nearest restart instead of entry 0.
        let mut smashed = bytes.clone();
        smashed[g1..g2].fill(0);
        let view = ValueBlockView::parse(&smashed).unwrap();
        let mut fetch = |r: &OverflowRef| Ok(pages[&r.page_no].clone());
        for i in (0..4).chain(8..BLOCK_CAP) {
            assert_eq!(&materialize(&view, i, &mut fetch).unwrap(), &keys[i], "entry {i}");
        }
        let got = materialize(&view, 5, &mut fetch);
        assert!(got.is_err() || got.unwrap() != keys[5]);
    }

    #[test]
    fn compressed_blocks_are_searched_as_they_lie() {
        use crate::fsst::SymbolTable;
        let keys: Vec<Vec<u8>> = (0..BLOCK_CAP)
            .map(|i| format!("http://example.com/catalog/item/{i:02}?lang=en").into_bytes())
            .collect();
        let table = SymbolTable::train(&keys);
        let mut pages = std::collections::HashMap::new();
        let mut next = 0u64;
        let mut b = ValueBlockBuilder::new();
        for k in &keys {
            // Raw keys are sorted; their FSST forms need not be.
            b.push_unordered(&table.encode(k), 1024, &mut |bytes: &[u8]| {
                bytes
                    .chunks(16)
                    .map(|c| {
                        let p = next;
                        next += 1;
                        pages.insert(p, c.to_vec());
                        OverflowRef { page_no: p, len: c.len() as u32 }
                    })
                    .collect()
            });
        }
        let bytes = b.finish();
        let view = ValueBlockView::parse(&bytes).unwrap();
        let mut fetch = |r: &OverflowRef| Ok(pages[&r.page_no].clone());
        let mut acc = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            // The raw probe is ordered against compressed entries as they
            // lie; materialized values decompress.
            assert_eq!(view.lower_bound(k, Some(&table), &mut acc, &mut fetch).unwrap(), Ok(i));
            let raw = table.decode(&materialize(&view, i, &mut fetch).unwrap()).unwrap();
            assert_eq!(&raw, k);
        }
        // Misses land on the raw-order insertion point.
        for probe in [
            b"http://example.com/catalog/item/03z".to_vec(),
            b"aaaa".to_vec(),
            b"zzzz".to_vec(),
            b"http://example.com/catalog/item/".to_vec(),
        ] {
            let expected = keys.partition_point(|k| k.as_slice() < probe.as_slice());
            assert_eq!(
                view.lower_bound(&probe, Some(&table), &mut acc, &mut fetch).unwrap(),
                Err(expected),
                "probe {:?}",
                String::from_utf8_lossy(&probe)
            );
            assert_eq!(
                view.cmp_first(&probe, Some(&table), &mut acc, &mut fetch).unwrap(),
                keys[0].cmp(&probe),
            );
        }
    }

    #[test]
    fn compressed_blocks_with_overflow_fetch_only_when_inconclusive() {
        use crate::fsst::SymbolTable;
        let keys: Vec<Vec<u8>> = (0..8u32)
            .map(|i| {
                let mut k = format!("warehouse/region-{i:02}/").into_bytes();
                k.extend(std::iter::repeat_n(b'x', 120));
                k.extend(format!("-tail{i:02}").into_bytes());
                k
            })
            .collect();
        let table = SymbolTable::train(&keys);
        let mut pages = std::collections::HashMap::new();
        let mut next = 0u64;
        let mut b = ValueBlockBuilder::new();
        for k in &keys {
            b.push_unordered(&table.encode(k), 12, &mut |bytes: &[u8]| {
                bytes
                    .chunks(16)
                    .map(|c| {
                        let p = next;
                        next += 1;
                        pages.insert(p, c.to_vec());
                        OverflowRef { page_no: p, len: c.len() as u32 }
                    })
                    .collect()
            });
        }
        let bytes = b.finish();
        let view = ValueBlockView::parse(&bytes).unwrap();
        // Probe diverging inside the on-page compressed prefix: no fetch.
        let mut fetched = 0usize;
        {
            let mut counting = |r: &OverflowRef| {
                fetched += 1;
                Ok(pages[&r.page_no].clone())
            };
            assert_eq!(
                view.lower_bound(b"zzz", Some(&table), &mut Vec::new(), &mut counting).unwrap(),
                Err(keys.len())
            );
        }
        assert_eq!(fetched, 0, "conclusive on-page divergence must not fetch overflow");
        // Exact hits still resolve (fetch allowed where needed).
        let mut fetch = |r: &OverflowRef| Ok(pages[&r.page_no].clone());
        let mut acc = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                view.lower_bound(k, Some(&table), &mut acc, &mut fetch).unwrap(),
                Ok(i),
                "entry {i}"
            );
        }
    }
}

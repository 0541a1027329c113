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
//! Wire format (`varint` is LEB128: seven bits a byte, low group first, at
//! most five bytes, no redundant trailing zero byte; fixed-width integers
//! are little-endian):
//!
//! ```text
//! block  := count:u8 entry{count}                          -- count in 1..=16
//! entry  := prefix_len:varint  (onpage_len << 1 | spill):varint
//!           suffix:[u8; onpage_len]
//!           [ nptr:u16 (page_no:u64 len:u32){nptr} total_len:u64 ]   -- iff spill
//! ```
//!
//! **Restart points.** A block is one front-coding run: its first entry
//! shares nothing, and every other entry shares with its predecessor, so a
//! block's start is its one restart point. A run of blocks — a dictionary
//! page's body, or a resident column's dictionary image — records where
//! each block starts, a little-endian `u32` a block read where it lies
//! ([`BlockRun`]); an identifier's block is arithmetic, and reading
//! it replays at most 15 entries of two varints each. Sixteen entries a
//! restart, against four or eight, is what holds the benchmark's 100 000
//! keys in 3.8 bytes a key on their FSST-coded pages and in 5.2 bytes a
//! key in memory, raw (the sweep is in DESIGN.md §5).
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

/// Longest varint a block holds: five 7-bit groups cover every length a
/// page can hold, shifted left by the spill bit.
const VARINT_MAX: usize = 5;

/// Bytes an entry spends on its spill tail per overflow pointer, and on the
/// pointer count and total length that frame them.
const PTR_LEN: usize = 12;
const SPILL_FRAME_LEN: usize = 2 + 8;

/// Appends `v` as a varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encoded length of `v` as a varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encoded length of an entry that shares `prefix_len` bytes and keeps
/// `onpage` suffix bytes on the page, with `nptr` overflow pointers (zero
/// for an inline value).
pub fn entry_len(prefix_len: usize, onpage: usize, nptr: usize) -> usize {
    let spill = usize::from(nptr > 0);
    let tail = if nptr > 0 { SPILL_FRAME_LEN + nptr * PTR_LEN } else { 0 };
    varint_len(prefix_len as u64) + varint_len((onpage << 1 | spill) as u64) + onpage + tail
}

/// The varint at `*pos` of entry `i`, advancing `*pos` past it.
#[inline(always)]
fn get_varint(bytes: &[u8], pos: &mut usize, i: usize) -> Result<usize> {
    match bytes.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(usize::from(b))
        }
        _ => get_varint_long(bytes, pos, i),
    }
}

/// [`get_varint`] past its one-byte case: checks that the varint ends
/// within the block, within [`VARINT_MAX`] bytes, and without a redundant
/// trailing zero group.
#[cold]
fn get_varint_long(bytes: &[u8], pos: &mut usize, i: usize) -> Result<usize> {
    let mut v = 0usize;
    for k in 0..VARINT_MAX {
        let Some(&b) = bytes.get(*pos + k) else {
            return Err(corrupt(format!("entry {i}: varint truncated at the block end")));
        };
        v |= usize::from(b & 0x7F) << (7 * k);
        if b < 0x80 {
            if b == 0 && k > 0 {
                return Err(corrupt(format!("entry {i}: over-long varint ({} bytes)", k + 1)));
            }
            *pos += k + 1;
            return Ok(v);
        }
    }
    Err(corrupt(format!("entry {i}: over-long varint (more than {VARINT_MAX} bytes)")))
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

/// Builds one value block from consecutive sorted keys, encoding each entry
/// as it is pushed.
pub struct ValueBlockBuilder {
    /// The block so far: the count byte (written by the finish), then the
    /// entries.
    bytes: Vec<u8>,
    count: usize,
    /// Previous full key (for prefix computation).
    prev_key: Vec<u8>,
    /// On-page-materializable length of the previous entry.
    prev_onpage: usize,
}

impl ValueBlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ValueBlockBuilder { bytes: vec![0], count: 0, prev_key: Vec::new(), prev_onpage: 0 }
    }

    /// Number of entries pushed.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when the block holds [`BLOCK_CAP`] entries.
    pub fn is_full(&self) -> bool {
        self.count >= BLOCK_CAP
    }

    /// Encoded size in bytes of the block built so far.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Prefix length `key` would share with its predecessor if pushed next:
    /// zero for the block's first entry, and never past the predecessor's
    /// on-page part.
    pub fn next_shared(&self, key: &[u8]) -> usize {
        if self.count == 0 {
            0
        } else {
            common_prefix(&self.prev_key, key).min(self.prev_onpage)
        }
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
            self.count == 0 || self.prev_key.as_slice() <= key,
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
        let shared = self.next_shared(key);
        let suffix = &key[shared..];
        let onpage = suffix.len().min(inline_limit);
        let offpage = if onpage < suffix.len() { alloc_overflow(&suffix[onpage..]) } else { Vec::new() };
        let out = &mut self.bytes;
        put_varint(out, shared as u64);
        put_varint(out, (onpage << 1 | usize::from(!offpage.is_empty())) as u64);
        out.extend_from_slice(&suffix[..onpage]);
        if !offpage.is_empty() {
            out.extend_from_slice(&(offpage.len() as u16).to_le_bytes());
            for r in &offpage {
                out.extend_from_slice(&r.page_no.to_le_bytes());
                out.extend_from_slice(&r.len.to_le_bytes());
            }
            out.extend_from_slice(&(key.len() as u64).to_le_bytes());
        }
        self.count += 1;
        self.prev_onpage = shared + onpage;
        self.prev_key.clear();
        self.prev_key.extend_from_slice(key);
    }

    /// Appends the block to `out` and empties the builder for the next
    /// block, keeping its buffers.
    ///
    /// # Panics
    /// Panics on an empty block.
    pub fn append_to(&mut self, out: &mut Vec<u8>) {
        assert!(self.count > 0, "cannot encode an empty value block");
        self.bytes[0] = self.count as u8;
        out.extend_from_slice(&self.bytes);
        self.bytes.truncate(1);
        self.count = 0;
    }

    /// Serializes the block.
    ///
    /// # Panics
    /// Panics on an empty block.
    pub fn finish(mut self) -> Vec<u8> {
        assert!(self.count > 0, "cannot encode an empty value block");
        self.bytes[0] = self.count as u8;
        self.bytes
    }
}

impl Default for ValueBlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// `a.cmp(b)`, compared eight bytes at a time: ordering a short key against
/// a probe costs no call into `memcmp`.
#[inline]
fn cmp_bytes(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let (a8, b8) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    let (a_tail, b_tail) = (a8.remainder(), b8.remainder());
    for (x, y) in a8.zip(b8) {
        let word = |w: &[u8]| u64::from_be_bytes(w.try_into().unwrap());
        let (x, y) = (word(x), word(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    match a_tail.iter().zip(b_tail).find(|(x, y)| x != y) {
        Some((x, y)) => x.cmp(y),
        None => a.len().cmp(&b.len()),
    }
}

/// Longest common prefix length of two byte strings, compared eight bytes
/// at a time.
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut i = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return i + diff.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    i + a[i..].iter().zip(&b[i..]).take_while(|(x, y)| x == y).count()
}

/// A zero-copy view over an encoded value block — the one block reader.
/// Entries are decoded from the block's bytes where they lie, with no
/// per-entry allocation, by one forward walk ([`BlockWalk`]) from the
/// block's start that checks every entry it decodes.
#[derive(Clone, Copy)]
pub struct ValueBlockView<'a> {
    bytes: &'a [u8],
    count: usize,
}

/// One entry of a [`ValueBlockView`], borrowing from the block.
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
    pub fn spilled(&self) -> bool {
        !self.offpage_raw.is_empty()
    }

    /// Length of the whole value, its off-page pieces included.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// The pointers to the entry's off-page pieces, in value order; none
    /// for an inline value.
    pub fn offpage_refs(&self) -> impl Iterator<Item = OverflowRef> + '_ {
        self.offpage_raw.chunks_exact(PTR_LEN).map(|b| OverflowRef {
            page_no: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
        })
    }
}

/// A forward walk over a block's entries from its start — the search, the
/// point read ([`ValueBlockView::seek`]) and the whole-block read are this
/// walk, the last replaying the front coding into one caller buffer
/// ([`BlockWalk::next_into`]). It checks what it reads: every varint
/// whole and minimal, every prefix within its predecessor's on-page part (so
/// a zero prefix at the block's start), every on-page suffix within the
/// block, a pointer behind every spill bit, and a total length that adds up.
#[derive(Clone, Copy)]
pub struct BlockWalk<'a> {
    block: ValueBlockView<'a>,
    /// Index and byte position of the next entry.
    next: usize,
    pos: usize,
    /// On-page-materializable length of the entry before `next`: the most
    /// that entry may share.
    shared_max: usize,
}

impl<'a> BlockWalk<'a> {
    /// Decodes the next entry and leaves its on-page-materializable part in
    /// `acc`, which holds what the previous step left there — plus, if the
    /// caller appended them, that entry's off-page pieces, which the next
    /// entry's prefix never reaches. `None` past the last entry.
    #[inline]
    pub fn next_into(&mut self, acc: &mut Vec<u8>) -> Result<Option<EntryView<'a>>> {
        let Some(entry) = self.next_entry()? else { return Ok(None) };
        acc.truncate(entry.prefix_len);
        acc.extend_from_slice(entry.onpage);
        Ok(Some(entry))
    }

    /// Decodes and checks the next entry without replaying it anywhere.
    /// `None` past the last entry.
    #[inline(always)]
    fn next_entry(&mut self) -> Result<Option<EntryView<'a>>> {
        if self.next == self.block.count {
            return Ok(None);
        }
        let (entry, pos) = self.block.entry_at(self.pos, self.next, self.shared_max)?;
        self.shared_max = entry.prefix_len + entry.onpage.len();
        (self.next, self.pos) = (self.next + 1, pos);
        Ok(Some(entry))
    }
}

impl<'a> ValueBlockView<'a> {
    /// Creates a view over a block whose bytes are `bytes` — exactly, or
    /// followed by bytes the block does not own. Only the count byte is
    /// validated here; entry structure is validated as entries are walked,
    /// and no entry reads past `bytes`.
    #[inline]
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        match bytes.first() {
            Some(&count) if (1..=BLOCK_CAP).contains(&usize::from(count)) => {
                Ok(ValueBlockView { bytes, count: usize::from(count) })
            }
            count => Err(bad_count(count.copied())),
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
        BlockWalk { block: *self, next: 0, pos: 1, shared_max: 0 }
    }

    /// Decodes entry `i`, which starts at byte `pos` and may share at most
    /// `shared_max` bytes with its predecessor; returns it with the
    /// position of entry `i + 1`. (Forced inline, with everything past an
    /// inline entry of one-byte varints out of line: the hot path is then a
    /// handful of compares, where left to the heuristic an entry read costs
    /// several times as much.)
    #[inline(always)]
    fn entry_at(&self, pos: usize, i: usize, shared_max: usize) -> Result<(EntryView<'a>, usize)> {
        let bytes = self.bytes;
        let (prefix_len, len_spill, pos) = match bytes.get(pos..pos + 2) {
            Some(&[p, l]) if p < 0x80 && l < 0x80 => (usize::from(p), usize::from(l), pos + 2),
            _ => long_varints(bytes, pos, i)?,
        };
        if prefix_len > shared_max {
            return Err(prefix_past(i, prefix_len, shared_max));
        }
        let onpage_len = len_spill >> 1;
        let Some(onpage) = bytes.get(pos..pos + onpage_len) else {
            return Err(onpage_past(i, onpage_len, pos, bytes.len()));
        };
        let end = pos + onpage_len;
        if len_spill & 1 == 0 {
            let total_len = (prefix_len + onpage_len) as u64;
            return Ok((EntryView { prefix_len, onpage, offpage_raw: &[], total_len }, end));
        }
        spilled_entry(bytes, i, prefix_len, onpage, end)
    }

    /// Decodes entries `0..=idx` and leaves entry `idx`'s on-page part in
    /// `acc`; returns the walk, positioned after it, and the entry. The
    /// walk checks every entry but replays none: each byte of the result
    /// is copied once, from the last entry up to `idx` that wrote it —
    /// going back from `idx`, an entry supplies the bytes between its
    /// prefix and the least prefix of the entries after it.
    ///
    /// # Panics
    /// Panics when `idx` is not below the block's count.
    pub fn seek(&self, idx: usize, acc: &mut Vec<u8>) -> Result<(BlockWalk<'a>, EntryView<'a>)> {
        assert!(idx < self.count, "entry {idx} of a {}-entry block", self.count);
        let mut walk = self.walk();
        // Each entry's prefix length and where its on-page bytes start.
        let mut parts = [(0u32, 0u32); BLOCK_CAP];
        let mut k = 0;
        let entry = loop {
            let Some(entry) = walk.next_entry()? else { return Err(no_entry(idx)) };
            let tail = if entry.spilled() { entry.offpage_raw.len() + SPILL_FRAME_LEN } else { 0 };
            let start = walk.pos - tail - entry.onpage.len();
            parts[k] = (entry.prefix_len as u32, start as u32);
            if k == idx {
                break entry;
            }
            k += 1;
        };
        let mut hi = entry.prefix_len + entry.onpage.len();
        acc.clear();
        acc.resize(hi, 0);
        for &(prefix_len, start) in parts[..=idx].iter().rev() {
            let (prefix_len, start) = (prefix_len as usize, start as usize);
            if prefix_len < hi {
                acc[prefix_len..hi].copy_from_slice(&self.bytes[start..start + hi - prefix_len]);
                hi = prefix_len;
            }
        }
        Ok((walk, entry))
    }

    /// Orders the block's first value — its routing key — against the raw
    /// probe `key`, on the block's bytes where it lies. `table` says what
    /// the entry bytes are: raw (`None`) or FSST-compressed. Off-page pieces
    /// are fetched (into `acc`) only when the on-page part is a proper
    /// prefix of the probe.
    #[inline]
    pub fn cmp_first(
        &self,
        key: &[u8],
        table: Option<&SymbolTable>,
        acc: &mut Vec<u8>,
        fetch: Fetch<'_>,
    ) -> Result<Ordering> {
        let (head, _) = self.entry_at(1, 0, 0)?;
        if table.is_none() && !head.spilled() {
            return Ok(cmp_bytes(head.onpage, key));
        }
        cmp_whole(&head, key, table, acc, fetch)
    }

    /// Searches the block — sorted by raw value — for the raw probe `key`:
    /// `Ok(slot)` on a hit, `Err(slot)` for the insertion point (as
    /// `slice::binary_search`). `table` says what the entry bytes are: raw
    /// (`None`) or FSST-compressed, which [`SymbolTable::cmp_decoded`]
    /// orders without decoding them and without encoding the probe.
    ///
    /// Raw entries are ordered by their front coding alone while none
    /// spills ([`ValueBlockView::lower_bound_inline`]). Otherwise the walk
    /// replays every entry into `acc` (caller scratch) and compares it
    /// whole; off-page pieces are fetched only for an entry whose on-page
    /// part is a proper prefix of the probe.
    pub fn lower_bound(
        &self,
        key: &[u8],
        table: Option<&SymbolTable>,
        acc: &mut Vec<u8>,
        fetch: Fetch<'_>,
    ) -> Result<std::result::Result<usize, usize>> {
        if table.is_none() {
            if let Some(found) = self.lower_bound_inline(key)? {
                return Ok(found);
            }
        }
        let mut walk = self.walk();
        acc.clear();
        let mut i = 0;
        while let Some(entry) = walk.next_into(acc)? {
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
            i += 1;
        }
        Ok(Err(self.count))
    }

    /// [`ValueBlockView::lower_bound`] over raw entries, ordered by their
    /// front coding without replaying them: `matched` is how many leading
    /// bytes the previous entry — below the probe — shares with it. An entry
    /// that shares fewer with its predecessor is above the probe, one that
    /// shares more is below it, and only one that shares exactly `matched`
    /// compares its suffix. `None` at the first spilled entry, whose on-page
    /// bytes may not decide.
    fn lower_bound_inline(&self, key: &[u8]) -> Result<Option<std::result::Result<usize, usize>>> {
        let mut walk = self.walk();
        let mut matched = 0;
        let mut i = 0;
        while let Some(entry) = walk.next_entry()? {
            if entry.spilled() {
                return Ok(None);
            }
            let ord = match entry.prefix_len.cmp(&matched) {
                Ordering::Less => Ordering::Greater,
                Ordering::Greater => Ordering::Less,
                Ordering::Equal => {
                    let rest = &key[matched..];
                    let l = common_prefix(entry.onpage, rest);
                    matched += l;
                    match (entry.onpage.get(l), rest.get(l)) {
                        (None, None) => Ordering::Equal,
                        (None, Some(_)) => Ordering::Less,
                        (Some(_), None) => Ordering::Greater,
                        (Some(s), Some(r)) => s.cmp(r),
                    }
                }
            };
            match ord {
                Ordering::Less => {}
                Ordering::Equal => return Ok(Some(Ok(i))),
                Ordering::Greater => return Ok(Some(Err(i))),
            }
            i += 1;
        }
        Ok(Some(Err(self.count)))
    }
}

/// Value blocks back to back — a dictionary page's body, or a resident
/// column's whole dictionary — with the byte offset each starts at: its
/// restart point. The starts are one little-endian `u32` a block, read
/// where they lie: a page's header and a resident image hold them alike.
/// Every block but the last holds [`BLOCK_CAP`] entries, so entry `i` is
/// slot `i % 16` of block `i / 16`.
#[derive(Clone, Copy)]
pub struct BlockRun<'a> {
    bytes: &'a [u8],
    starts: &'a [[u8; 4]],
}

impl<'a> BlockRun<'a> {
    /// The blocks of `bytes` starting where `starts` says: a little-endian
    /// `u32` a block (`starts.len()` a multiple of 4), the first 0, each
    /// above the one before. Starts are checked as blocks are read.
    pub fn new(bytes: &'a [u8], starts: &'a [u8]) -> Self {
        let (starts, rest) = starts.as_chunks();
        debug_assert!(rest.is_empty(), "a start is four bytes");
        BlockRun { bytes, starts }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.starts.len()
    }

    /// Where block `b` starts, as recorded.
    #[inline]
    fn start(&self, b: usize) -> usize {
        u32::from_le_bytes(self.starts[b]) as usize
    }

    /// Block `b`: its bytes from its restart offset to the next block's (to
    /// the end of the bytes for the last block), so no entry of it reads
    /// into the next block. Its start must lie past block `b - 1`'s (block
    /// 0 starts at 0), so a block read lies between two ordered starts.
    #[inline]
    pub fn block(&self, b: usize) -> Result<ValueBlockView<'a>> {
        let start = self.start(b);
        let end = if b + 1 < self.blocks() { self.start(b + 1) } else { self.bytes.len() };
        let ordered = if b == 0 { start == 0 } else { self.start(b - 1) < start };
        match self.bytes.get(start..end) {
            Some(bytes) if ordered => ValueBlockView::parse(bytes),
            _ => Err(block_past(b, start, end, self.bytes.len())),
        }
    }

    /// Finds the block and in-block position of the first entry `>= key`:
    /// a binary search over blocks by their first entry, compared where it
    /// lies, then the block's own search. Returns `(block, Ok(slot))` on an
    /// exact hit and `(block, Err(slot))` for the insertion point; an
    /// insertion point past a block that is not the last is the next
    /// block's slot 0. `table` is the symbol table when the entries are
    /// FSST-compressed.
    pub fn lower_bound(
        &self,
        key: &[u8],
        table: Option<&SymbolTable>,
        acc: &mut Vec<u8>,
        fetch: Fetch<'_>,
    ) -> Result<(usize, std::result::Result<usize, usize>)> {
        self.lower_bound_within(0..self.blocks(), key, table, acc, fetch)
    }

    /// [`BlockRun::lower_bound`] over the blocks of `within` (not empty),
    /// for a caller that knows the answer lies there: the first block of
    /// `within` is block 0 or has its first entry below `key`, and the
    /// block after it is past the run or has its first entry above `key`.
    pub fn lower_bound_within(
        &self,
        within: std::ops::Range<usize>,
        key: &[u8],
        table: Option<&SymbolTable>,
        acc: &mut Vec<u8>,
        fetch: Fetch<'_>,
    ) -> Result<(usize, std::result::Result<usize, usize>)> {
        if table.is_none() {
            if let Some(found) = self.lower_bound_inline(within.clone(), key)? {
                return Ok(found);
            }
        }
        // Rightmost block whose first entry is <= key.
        let (mut lo, mut hi) = (within.start, within.end);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            match self.block(mid)?.cmp_first(key, table, acc, fetch)? {
                Ordering::Less => lo = mid,
                Ordering::Equal => return Ok((mid, Ok(0))),
                Ordering::Greater => hi = mid,
            }
        }
        let block = self.block(lo)?;
        Ok(Self::settle(lo, block.len(), self.blocks(), block.lower_bound(key, table, acc, fetch)?))
    }

    /// [`BlockRun::lower_bound`] over raw entries while every head and every
    /// entry walked is inline: the same bisection and block search, in a
    /// function that carries nothing of the compressed and spilled cases.
    /// `None` at the first entry that spills.
    #[inline(never)]
    fn lower_bound_inline(
        &self,
        within: std::ops::Range<usize>,
        key: &[u8],
    ) -> Result<Option<(usize, std::result::Result<usize, usize>)>> {
        let (mut lo, mut hi) = (within.start, within.end);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let (head, _) = self.block(mid)?.entry_at(1, 0, 0)?;
            if head.spilled() {
                return Ok(None);
            }
            match cmp_bytes(head.onpage, key) {
                Ordering::Less => lo = mid,
                Ordering::Equal => return Ok(Some((mid, Ok(0)))),
                Ordering::Greater => hi = mid,
            }
        }
        let block = self.block(lo)?;
        let found = block.lower_bound_inline(key)?;
        Ok(found.map(|pos| Self::settle(lo, block.len(), self.blocks(), pos)))
    }

    /// Block `b`'s search result `pos` as the run's: an insertion point past
    /// a block of `len` entries that is not the last of `blocks` is the next
    /// block's slot 0.
    fn settle(
        b: usize,
        len: usize,
        blocks: usize,
        pos: std::result::Result<usize, usize>,
    ) -> (usize, std::result::Result<usize, usize>) {
        match pos {
            Err(i) if i == len && b + 1 < blocks => (b + 1, Err(0)),
            pos => (b, pos),
        }
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

/// Orders `entry`, the first of its block, against the raw probe `key` when
/// its bytes are FSST-coded or it spills: by its on-page part where that
/// decides, else whole, its off-page pieces fetched into `acc`. Out of line,
/// so a search over raw inline heads carries none of it.
#[inline(never)]
fn cmp_whole(
    entry: &EntryView<'_>,
    key: &[u8],
    table: Option<&SymbolTable>,
    acc: &mut Vec<u8>,
    fetch: Fetch<'_>,
) -> Result<Ordering> {
    if let Some(ord) = cmp_onpage(entry.onpage, entry.spilled(), key, table)? {
        return Ok(ord);
    }
    acc.clear();
    acc.extend_from_slice(entry.onpage);
    append_pieces(acc, entry.offpage_refs(), fetch)?;
    cmp_value(acc, key, table)
}

/// Orders a complete stored value against the raw probe `key`.
#[inline]
fn cmp_value(value: &[u8], key: &[u8], table: Option<&SymbolTable>) -> Result<Ordering> {
    match table {
        Some(table) => table.cmp_decoded(value, key),
        None => Ok(cmp_bytes(value, key)),
    }
}

/// Orders a value against the raw probe `key` by its on-page part alone.
/// `None` when the value is `spilled` — it goes on off-page, by at least one
/// byte — and what is on the page is a proper prefix of `key`.
#[inline]
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

/// The two varints of entry `i` at `pos` when either is longer than a byte
/// (or missing): the prefix length, the on-page length and spill bit, and
/// the position past them.
#[cold]
#[inline(never)]
fn long_varints(bytes: &[u8], mut pos: usize, i: usize) -> Result<(usize, usize, usize)> {
    let prefix_len = get_varint(bytes, &mut pos, i)?;
    let len_spill = get_varint(bytes, &mut pos, i)?;
    Ok((prefix_len, len_spill, pos))
}

#[cold]
#[inline(never)]
fn no_entry(idx: usize) -> EncodingError {
    corrupt(format!("no entry {idx}"))
}

#[cold]
#[inline(never)]
fn bad_count(count: Option<u8>) -> EncodingError {
    match count {
        None => corrupt("empty block".into()),
        Some(count) => corrupt(format!("value block count {count} outside 1..=16")),
    }
}

#[cold]
#[inline(never)]
fn block_past(b: usize, start: usize, end: usize, len: usize) -> EncodingError {
    corrupt(format!("block {b} spans {start}..{end}: out of order, or past the {len} bytes of its run"))
}

#[cold]
#[inline(never)]
fn prefix_past(i: usize, prefix_len: usize, shared_max: usize) -> EncodingError {
    corrupt(format!("entry {i}: prefix {prefix_len} exceeds the {shared_max} bytes it may share"))
}

#[cold]
#[inline(never)]
fn onpage_past(i: usize, onpage_len: usize, pos: usize, len: usize) -> EncodingError {
    corrupt(format!("entry {i}: {onpage_len} on-page bytes at {pos} run past the {len}-byte block"))
}

/// The rest of entry `i`, whose spill bit is set: its pointers, which
/// start at `pos`, and the total length they must add up to with its
/// `prefix_len` shared and `onpage` bytes.
#[cold]
#[inline(never)]
fn spilled_entry<'a>(
    bytes: &'a [u8],
    i: usize,
    prefix_len: usize,
    onpage: &'a [u8],
    mut pos: usize,
) -> Result<(EntryView<'a>, usize)> {
    let truncated = || corrupt(format!("entry {i}: spill bit without its pointers"));
    let nptr = bytes.get(pos..pos + 2).ok_or_else(truncated)?;
    let nptr = u16::from_le_bytes([nptr[0], nptr[1]]) as usize;
    if nptr == 0 {
        return Err(corrupt(format!("entry {i}: off-page flag with zero pointers")));
    }
    pos += 2;
    let tail = bytes.get(pos..pos + nptr * PTR_LEN + 8).ok_or_else(truncated)?;
    pos += tail.len();
    let (offpage_raw, stored) = tail.split_at(nptr * PTR_LEN);
    let total_len = u64::from_le_bytes(stored.try_into().unwrap());
    let off: u64 = offpage_raw
        .chunks_exact(PTR_LEN)
        .map(|p| u64::from(u32::from_le_bytes(p[8..12].try_into().unwrap())))
        .sum();
    let onpage_len = onpage.len();
    if total_len != (prefix_len + onpage_len) as u64 + off {
        return Err(corrupt(format!(
            "entry {i}: total_len {total_len} != prefix {prefix_len} + onpage {onpage_len} + offpage {off}"
        )));
    }
    Ok((EntryView { prefix_len, onpage, offpage_raw, total_len }, pos))
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

    /// The varint at `pos`, read independently of the view: its value and
    /// the position past it.
    pub(super) fn varint_at(bytes: &[u8], mut pos: usize) -> (usize, usize) {
        let (mut v, mut shift) = (0, 0);
        loop {
            let b = bytes[pos];
            pos += 1;
            v |= usize::from(b & 0x7F) << shift;
            if b < 0x80 {
                return (v, pos);
            }
            shift += 7;
        }
    }

    /// One entry as the wire format lays it out, read independently of the
    /// view: its byte position, where its length varint starts, its
    /// prefix length, on-page length and spill bit, and where it ends.
    #[derive(Debug)]
    pub(super) struct RawEntry {
        pub(super) pos: usize,
        pub(super) len_at: usize,
        pub(super) prefix_len: usize,
        pub(super) onpage_len: usize,
        pub(super) end: usize,
    }

    /// Every entry of a well-formed block, and the byte where the block ends.
    pub(super) fn raw_entries(bytes: &[u8]) -> (Vec<RawEntry>, usize) {
        let mut pos = 1;
        let mut out = Vec::with_capacity(bytes[0] as usize);
        for _ in 0..bytes[0] {
            let (prefix_len, len_at) = varint_at(bytes, pos);
            let (len_spill, body) = varint_at(bytes, len_at);
            let onpage_len = len_spill >> 1;
            let mut end = body + onpage_len;
            if len_spill & 1 == 1 {
                let nptr = u16::from_le_bytes(bytes[end..end + 2].try_into().unwrap()) as usize;
                end += 2 + nptr * 12 + 8;
            }
            out.push(RawEntry { pos, len_at, prefix_len, onpage_len, end });
            pos = end;
        }
        (out, pos)
    }

    /// Entry `idx` of `view`, whole: its on-page part, then its off-page
    /// pieces.
    pub(super) fn materialize(view: &ValueBlockView<'_>, idx: usize, fetch: Fetch<'_>) -> Result<Vec<u8>> {
        let mut acc = Vec::new();
        let (_, entry) = view.seek(idx, &mut acc)?;
        append_pieces(&mut acc, entry.offpage_refs(), fetch)?;
        assert_eq!(acc.len() as u64, entry.total_len(), "entry {idx}");
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
    fn varints_are_leb128_and_their_length_is_exact() {
        for (v, encoded) in [
            (0u64, vec![0u8]),
            (127, vec![0x7F]),
            (128, vec![0x80, 0x01]),
            (300, vec![0xAC, 0x02]),
            (u64::from(u32::MAX) << 1 | 1, vec![0xFF, 0xFF, 0xFF, 0xFF, 0x1F]),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out, encoded, "{v}");
            assert_eq!(varint_len(v), encoded.len(), "{v}");
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos, 0).unwrap() as u64, v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn cmp_bytes_equals_slice_order() {
        let base: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37)).collect();
        for len_a in 0..24 {
            for len_b in 0..24 {
                for flip in 0..25 {
                    let a = &base[..len_a];
                    let mut b = base[..len_b].to_vec();
                    if let Some(byte) = b.get_mut(flip) {
                        *byte ^= 0x81;
                    }
                    assert_eq!(cmp_bytes(a, &b), a.cmp(&b), "{len_a} {len_b} {flip}");
                    assert_eq!(cmp_bytes(&b, a), b.as_slice().cmp(a), "{len_a} {len_b} {flip}");
                }
            }
        }
    }

    #[test]
    fn common_prefix_equals_the_bytewise_count() {
        let bytewise = |a: &[u8], b: &[u8]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
        let base: Vec<u8> = (0..40u8).collect();
        for len_a in 0..24 {
            for len_b in 0..24 {
                for flip in 0..25 {
                    let a = &base[..len_a];
                    let mut b = base[..len_b].to_vec();
                    if let Some(byte) = b.get_mut(flip) {
                        *byte ^= 0x80;
                    }
                    assert_eq!(common_prefix(a, &b), bytewise(a, &b), "{len_a} {len_b} {flip}");
                }
            }
        }
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
        // Prefix compression actually happened, in two one-byte varints.
        assert_eq!((raw[1].prefix_len, raw[1].onpage_len), (5, 5)); // "apple" ∩ "applesauce"
        assert_eq!(raw[1].end - raw[1].pos, 2 + 5);
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
        assert!(ValueBlockView::parse(&p).unwrap().seek(0, &mut Vec::new()).is_err());
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
        for (probe, expect) in [(&b"same"[..], Ok(0)), (b"samd", Err(0)), (b"samf", Err(2))] {
            assert_eq!(view.lower_bound(probe, None, &mut Vec::new(), &mut sim.fetch()).unwrap(), expect);
        }
    }

    /// A page writer budgets the next entry as `entry_len` of what it would
    /// share and keep on the page; that is exactly what the push adds, inline
    /// or spilled, with one- and two-byte varints.
    #[test]
    fn entry_len_is_what_a_push_adds() {
        let mut sim = OverflowSim::new(8);
        let mut b = ValueBlockBuilder::new();
        let mut keys: Vec<Vec<u8>> = (0..BLOCK_CAP - 2).map(|i| format!("growth-{i:02}").into_bytes()).collect();
        keys.push([b"growth-99".as_slice(), &[b'w'; 200]].concat());
        keys.push([b"growth-99".as_slice(), &[b'x'; 200]].concat());
        for (i, key) in keys.iter().enumerate() {
            let shared = b.next_shared(key);
            let inline = if i == BLOCK_CAP - 1 { 16 } else { key.len() - shared };
            let nptr = (key.len() - shared - inline).div_ceil(8);
            let expect = b.byte_len() + entry_len(shared, inline, nptr);
            b.push(key, inline, &mut |x| sim.alloc(x));
            assert_eq!(b.byte_len(), expect, "entry {i}");
        }
        let expected = b.byte_len();
        let bytes = b.finish();
        assert_eq!(bytes.len(), expected);
        let view = ValueBlockView::parse(&bytes).unwrap();
        assert_eq!(walk_all(&view, &mut sim.fetch()).unwrap(), keys);
    }

    /// A block is one front-coding run: its first entry shares nothing, and
    /// every other entry front-codes against its predecessor.
    #[test]
    fn a_block_is_one_front_coding_run_from_its_start() {
        let keys: Vec<Vec<u8>> =
            (0..BLOCK_CAP).map(|i| format!("shared-prefix-{i:02}").into_bytes()).collect();
        let mut sim = OverflowSim::new(8);
        let mut b = ValueBlockBuilder::new();
        for k in &keys {
            b.push(k, 1024, &mut |x| sim.alloc(x));
        }
        let bytes = b.finish();
        assert_eq!(bytes[0], BLOCK_CAP as u8);
        let (raw, end) = raw_entries(&bytes);
        assert_eq!(end, bytes.len());
        assert_eq!(raw[0].prefix_len, 0);
        assert!(raw[1..].iter().all(|e| e.prefix_len >= 14), "{raw:?}");
        let view = ValueBlockView::parse(&bytes).unwrap();
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

    /// `starts` as a run records them: little-endian `u32`s.
    fn le_starts(starts: &[u32]) -> Vec<u8> {
        starts.iter().flat_map(|s| s.to_le_bytes()).collect()
    }

    /// `keys` as a run of blocks: the bytes and each block's start.
    fn build_run(keys: &[Vec<u8>]) -> (Vec<u8>, Vec<u32>) {
        let (mut bytes, mut starts) = (Vec::new(), Vec::new());
        for group in keys.chunks(BLOCK_CAP) {
            starts.push(bytes.len() as u32);
            bytes.extend_from_slice(&build_random(group, 1024).0);
        }
        (bytes, starts)
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
        assert!(ValueBlockView::parse(&[16 | 0x80, 9]).is_err());
        // An on-page length (varint 0xC8 0x01 = 200: 100 bytes, inline) past
        // the block.
        let v = ValueBlockView::parse(&[1, 0, 0xC8, 0x01, b'k']).unwrap();
        assert!(v.seek(0, &mut Vec::new()).is_err());
        assert!(v.lower_bound(b"k", None, &mut Vec::new(), &mut |_| Ok(Vec::new())).is_err());
    }

    /// Every structure the block format forbids — in a run of two blocks,
    /// each cut at the next block's start — is refused by the point read,
    /// the lookup and the whole-run walk alike. The first five cases are
    /// the format's standing checks, carried from its fixed-width entry
    /// header to the varint one: a prefix past what its predecessor keeps
    /// on the page; a spill whose pointers do not add up to its total length
    /// (the length varint's spill bit is the entry's one flag, so the old
    /// unknown-flags case has this check in its place); a spill with no
    /// pointer; a restart offset pointing into another restart's entries
    /// (a block start, now that each block is one restart); and a nonzero
    /// prefix at a restart. The rest are the varint encoding's own: an
    /// over-long and a truncated varint, an on-page length past the block's
    /// end, a spill bit with no pointers behind it, and a restart offset
    /// past the run. Last, two restart offsets out of order.
    #[test]
    fn view_rejects_every_corruption_the_block_format_forbids() {
        let keys: Vec<Vec<u8>> = (0..2 * BLOCK_CAP).map(|i| format!("k-{i:02}").into_bytes()).collect();
        let (bytes, starts) = build_run(&keys);
        let split = starts[1] as usize;
        let (first, second) = (&bytes[..split], &bytes[split..]);
        let raw = raw_entries(first).0;
        let last = &raw[BLOCK_CAP - 1];
        // Block 0 rewritten by `patch`, then block 1 where it now starts.
        let patched = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut b = first.to_vec();
            patch(&mut b);
            let starts = le_starts(&[0, b.len() as u32]);
            b.extend_from_slice(second);
            (b, starts)
        };
        // Sets the spill bit of the last entry of block 0 and appends `tail`.
        let spill = |tail: Vec<u8>| {
            patched(&move |b| {
                b[last.len_at] |= 1;
                b.extend_from_slice(&tail);
            })
        };
        let tail = |nptr: u16, ptr_len: u32, total: u64| {
            let mut t = nptr.to_le_bytes().to_vec();
            t.extend((0..nptr).flat_map(|_| [0u8; 8].into_iter().chain(ptr_len.to_le_bytes())));
            t.extend_from_slice(&total.to_le_bytes());
            t
        };
        let within = starts[1] + raw_entries(second).0[4].pos as u32;
        // (what, the corrupted entry, the run)
        let cases = [
            (
                "prefix beyond the predecessor's on-page part",
                1,
                patched(&|b| b[raw[1].pos] = 5),
            ),
            ("spill whose total length does not add up", BLOCK_CAP - 1, spill(tail(1, 7, 12))),
            ("spill bit with zero pointers", BLOCK_CAP - 1, spill(tail(0, 0, 4))),
            ("restart offset pointing at another restart's entry", BLOCK_CAP, (bytes.clone(), le_starts(&[0, within]))),
            (
                "nonzero prefix at a restart entry",
                BLOCK_CAP,
                {
                    let mut b = bytes.clone();
                    b[split + 1] = 3;
                    (b, le_starts(&starts))
                },
            ),
            (
                "over-long varint",
                1,
                patched(&|b| {
                    b[raw[1].pos] |= 0x80;
                    b.insert(raw[1].pos + 1, 0);
                }),
            ),
            (
                "varint truncated at the block end",
                BLOCK_CAP - 1,
                patched(&|b| {
                    b.truncate(last.len_at);
                    b.push(0x88);
                }),
            ),
            (
                "on-page length past the block end",
                BLOCK_CAP - 1,
                patched(&|b| {
                    b.truncate(last.len_at);
                    b.extend_from_slice(&[0xC8, 0x01]);
                    b.extend_from_slice(&first[last.len_at + 1..]);
                }),
            ),
            ("spill bit without a pointer", BLOCK_CAP - 1, spill(Vec::new())),
            ("restart offset past the run", BLOCK_CAP, (bytes.clone(), le_starts(&[0, bytes.len() as u32 + 1]))),
            ("restart offsets out of order", BLOCK_CAP, (bytes.clone(), le_starts(&[split as u32, 0]))),
        ];
        let mut accepted = Vec::new();
        for (what, idx, (bytes, starts)) in &cases {
            let run = BlockRun::new(bytes, starts);
            let (mut acc, mut fetch) = (Vec::new(), |_: &OverflowRef| Ok(Vec::new()));
            let (b, slot) = (idx / BLOCK_CAP, idx % BLOCK_CAP);
            if let Ok(view) = run.block(b) {
                if slot < view.len() && view.seek(slot, &mut acc).is_ok() {
                    let got = String::from_utf8_lossy(&acc);
                    accepted.push(format!("{what}: seek({idx}) = {got:?}"));
                }
            }
            if let Ok(found) = run.lower_bound(&keys[*idx], None, &mut acc, &mut fetch) {
                accepted.push(format!("{what}: lower_bound(keys[{idx}]) = {found:?}"));
            }
            let whole: Result<Vec<Vec<u8>>> = (0..run.blocks()).try_fold(Vec::new(), |mut all, b| {
                all.extend(walk_all(&run.block(b)?, &mut fetch)?);
                Ok(all)
            });
            if let Ok(all) = whole {
                let all: Vec<_> = all.iter().map(|k| String::from_utf8_lossy(k).into_owned()).collect();
                accepted.push(format!("{what}: whole-run walk = {all:?}"));
            }
        }
        assert!(accepted.is_empty(), "corruptions read as data:\n{}", accepted.join("\n"));
    }

    /// Reading resumes at the block's start, its restart point: with every
    /// byte of block 1 destroyed, blocks 0 and 2 of a run still read and
    /// search exactly, and block 1 is refused.
    #[test]
    fn reads_resume_at_the_restart_point_of_their_block() {
        let keys: Vec<Vec<u8>> =
            (0..3 * BLOCK_CAP).map(|i| format!("restart-jump-{i:02}").into_bytes()).collect();
        let (mut bytes, starts) = build_run(&keys);
        bytes[starts[1] as usize..starts[2] as usize].fill(0);
        let starts = le_starts(&starts);
        let run = BlockRun::new(&bytes, &starts);
        let mut fetch = |_: &OverflowRef| Ok(Vec::new());
        let mut acc = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let (b, slot) = (i / BLOCK_CAP, i % BLOCK_CAP);
            if b == 1 {
                assert!(run.block(1).is_err(), "a zeroed block has count 0");
                continue;
            }
            assert_eq!(&materialize(&run.block(b).unwrap(), slot, &mut fetch).unwrap(), k, "entry {i}");
        }
        for (b, slot) in [(0, 3), (2, 8)] {
            let key = &keys[b * BLOCK_CAP + slot];
            let found = run.block(b).unwrap().lower_bound(key, None, &mut acc, &mut fetch).unwrap();
            assert_eq!(found, Ok(slot));
        }
    }

    /// A run's search answers like binary search of its keys, an insertion
    /// point past a block being the next block's slot 0.
    #[test]
    fn a_run_searches_like_binary_search() {
        let keys: Vec<Vec<u8>> = (0..3 * BLOCK_CAP + 5).map(|i| format!("run-{:03}", 2 * i).into_bytes()).collect();
        let (bytes, starts) = build_run(&keys);
        let starts = le_starts(&starts);
        let run = BlockRun::new(&bytes, &starts);
        let mut fetch = |_: &OverflowRef| Ok(Vec::new());
        let mut acc = Vec::new();
        let mut probes: Vec<Vec<u8>> = vec![Vec::new(), b"zzz".to_vec()];
        for i in 0..2 * keys.len() + 1 {
            probes.push(format!("run-{i:03}").into_bytes());
        }
        for probe in &probes {
            let (b, pos) = run.lower_bound(probe, None, &mut acc, &mut fetch).unwrap();
            let got = pos.map(|s| b * BLOCK_CAP + s).map_err(|s| b * BLOCK_CAP + s);
            assert_eq!(got, keys.binary_search(probe), "probe {:?}", String::from_utf8_lossy(probe));
        }
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

//! Late materialization in phases over all projected columns.
//!
//! A projection knows its full access set before it touches storage: the
//! row positions are fixed, so every data-vector page is known up front,
//! the decoded identifiers name the `ipDict_ValueId` helper pages, and the
//! helper entries name the dictionary pages. Instead of walking the columns
//! one by one — each demand-pinning data page → helper page → dictionary
//! page in turn, one blocking read at a time — the projection runs each of
//! those steps as a **phase across all columns**:
//!
//! * **(a)** data-vector pages of the row set → value identifiers (a whole
//!   chunk of consecutive rows unpacked straight into the identifiers),
//! * **(b)** `ipDict_ValueId` helper pages of the distinct identifiers →
//!   dictionary page numbers (the helper chains of a dictionary touched for
//!   the first time are preloaded here, §3.2.3) — for string dictionaries of
//!   more than one page only: a numeric dictionary's page is arithmetic on
//!   the identifier, a one-page dictionary's is page 0,
//! * **(c)** dictionary pages → values: a numeric dictionary's page decodes
//!   its values in one tight loop; the string entries of a page are read by
//!   one walk through each block they touch, stepped through the block's
//!   sorted slots, then the overflow pages of the large ones are appended.
//!
//! Each phase plans its pages — one task a page, not a row or an
//! identifier: the page of the first item not yet planned, and a bisection
//! for the last item on it; the task carries the page's first row or
//! identifier, so no step derives it again — pins them with
//! [`BufferPool::pin_many_into`] — the misses of a phase load as overlapped,
//! coalesced reads instead of serially — decodes straight from the returned
//! guards, and releases them before the next phase. This is the paper's
//! handle cache for batch lookups (§3.2.3) turned inside out: the pins of a
//! batch are taken together and held exactly as long as the batch reads
//! them. A phase larger than [`crate::waves::WAVE_PAGES`] is split into
//! waves so the pins a projection holds at once stay bounded whatever its
//! width — the wave driver the data-vector scan shares.
//!
//! Between the phases, each column's identifiers are **ranked**: one
//! counting pass over the identifiers' range yields the distinct
//! identifiers ascending, each one's number of uses, and each row's rank
//! among them (a narrow range counts into striped copies of its tally, so
//! no increment waits on the one before). Identifiers that already ascend
//! — a key stored in row order, a sorted run — are ranked run by run as
//! they are read, and a column whose range is wider than [`DENSE_RANGE`]
//! identifiers a row sorts a copy instead. The work is so cut at its natural joint, and each half is
//! an operation of its own:
//!
//! * **rows → identifiers** (phase (a) and the ranking), reduced either to
//!   *(identifier, count)* pairs ascending ([`ColumnRead::vid_counts`] —
//!   all an aggregate needs: `SUM` is Σ key × count, added by
//!   [`ColumnRead::sum`] straight off the dictionary's pages or image into
//!   a typed number, with no values table; `MIN` / `MAX` are the first /
//!   last identifier because the dictionary preserves order) or to ranks
//!   (for a projection);
//! * **sorted distinct identifiers → values** (phases (b) and (c),
//!   [`ColumnRead::values_by_vid`]) — every distinct value is decoded once,
//!   into a **values table** the size of the column's distinct identifiers.
//!
//! A projection's answer is those **values tables and ranks** ([`Rows`]):
//! phase (c) decodes each column's values straight into the answer's
//! tables, and one pass a column writes each row's rank, in the caller's
//! order, as an index into them. No cell is copied and no row is built: a
//! string column's answer allocates once per distinct value, however many
//! rows repeat it, and a row is read in place, its cells references into
//! the tables. A single row is the same code with one identifier a column.
//! Resident columns rank and fill their table from their in-memory image through
//! the same buffers: phase (a) is one [`payg_encoding::chunk::decode_rows`]
//! over the image's words (a paged column makes one a pinned page), a
//! value a key of the image's dictionary. A column whose rows are their identifiers (a
//! unique key stored in key order) has no data vector: phase (a) is a copy
//! of the rows, in either mode, and its identifiers ascend.
//!
//! The plan lives in flat buffers — the identifiers (then ranks) of every
//! column, one `columns × rows` vector; the distinct identifiers and their
//! uses, one entry per distinct identifier of each column; the counting
//! pass's tally and its marks — beside one task list,
//! one key vector and one guard vector for every phase and wave, and the
//! entry and FSST buffers of phase (c). They are the thread's [`Scratch`],
//! reused by the next materialization on that thread, so a warm point read
//! allocates for its answer alone. [`ColumnRead::get_values`] is the
//! one-column case of the same code, read out row by row, and a point read
//! its one-row case — there is no other value path.

use super::parts::{ColumnParts, StoredRows};
use super::resident::Image;
use super::{Column, EncodedRows};
use crate::dict::{append_piece, Layout, Values};
use crate::waves::Waves;
use crate::{CoreError, CoreResult, Rows, Sum, Value};
use payg_encoding::chunk::decode_rows;
use payg_encoding::prefix::OverflowRef;
use payg_encoding::Packed;
use payg_storage::{BufferPool, PageKey, StorageError};
use std::cell::RefCell;

/// Appends to `rows` the rows at `rposs` (any order, duplicates allowed),
/// in that order, of the columns `which` — indices into `columns`, the
/// columns of one fragment, which share the row positions: each column's
/// values table, a value per distinct identifier at those rows, and each
/// row's rank in it. Paged columns are resolved together, phase by phase
/// (see the module docs); resident columns answer from memory. Nothing is
/// appended unless every value was read.
///
/// # Panics
/// When `rows` is not as wide as `which`, or has no room for the rows.
pub fn materialize(
    columns: &[Column],
    which: &[usize],
    rposs: &[u64],
    rows: &mut Rows,
) -> CoreResult<()> {
    assert_eq!(rows.width(), which.len(), "an answer column per projected column");
    materialize_into(which.len(), |j| &columns[which[j]], rposs, rows)
}

/// The materialization every value read runs: the `m` columns `source`
/// names, at `rposs` (any order, duplicates allowed), appended to `rows`.
fn materialize_into<'a>(
    m: usize,
    source: impl Fn(usize) -> &'a Column,
    rposs: &[u64],
    rows: &mut Rows,
) -> CoreResult<()> {
    if rposs.is_empty() {
        return Ok(());
    }
    with_scratch(|scratch| scratch.run(m, source, rposs, rows))
}

/// [`ColumnRead::get_values`] of one column: its values at `rposs`, in
/// that order — its one-column answer read out row by row.
pub(crate) fn get_values(column: &Column, rposs: &[u64]) -> CoreResult<Vec<Value>> {
    let mut rows = Rows::new(1, rposs.len());
    materialize_into(1, |_| column, rposs, &mut rows)?;
    Ok(rows.iter().map(|row| row[0].clone()).collect())
}

/// [`ColumnRead::sum`] of one column: its identifiers at `rposs` counted,
/// unranked, then each distinct one's key times its count added to `sum`
/// straight off the dictionary — a paged column's array pages in phase
/// (c)'s loop, a resident column's image key by key — with no values table.
pub(crate) fn sum(column: &Column, rposs: &[u64], sum: &mut Sum) -> CoreResult<()> {
    let parts = &*column.parts;
    if sum.data_type() != parts.data_type {
        return Err(CoreError::TypeMismatch { expected: parts.data_type, got: sum.data_type() });
    }
    if rposs.is_empty() {
        return Ok(());
    }
    with_scratch(|Scratch { plan, ranks, .. }| {
        ranks.start(1, rposs, parts.cardinality.min(rposs.len() as u64) as usize);
        let image = column.image()?;
        decode_vids(1, &|_| Some(parts), image.as_deref(), &ranks.sorted, &mut ranks.vids, plan)?;
        ranks.rank(0, false);
        let Ranks { distinct, uses, .. } = &*ranks;
        let Some(image) = image else {
            let sink = Values::Sum { uses, sum };
            return values_by_vid_paged(&parts.pool, 1, &|_| Some(parts), |_| distinct, plan, sink);
        };
        let mut keys = image.dict.keys(&mut plan.raw);
        for (&vid, &n) in distinct.iter().zip(uses) {
            sum.add_key(parts.key_of(&mut keys, vid)?, u64::from(n))?;
        }
        Ok(())
    })
}

/// Most identifiers a row a column's range may span for the counting pass:
/// a sparser column sorts a copy of its identifiers instead. The tally is
/// then at most this many `u32`s a row.
const DENSE_RANGE: u64 = 16;

/// Copies of each tally slot a narrow range — at most one identifier for
/// this many rows — counts into: consecutive rows land in different copies,
/// so an increment never waits for the one before it to the same few slots.
const STRIPES: usize = 4;

/// The rows' side of one materialization: the rows in page order, and each
/// column's identifiers ranked among its distinct ones.
#[derive(Default)]
struct Ranks {
    n: usize,
    /// The rows in ascending order — page order within each chain.
    sorted: Vec<u64>,
    /// `order[i]`: the index in `sorted` of the caller's `i`-th row; empty
    /// when the caller's rows ascend.
    order: Vec<u32>,
    /// Each column's identifier at every row of `sorted`, a stride of `n`
    /// a column (column `j`'s are `[j * n..][..n]`) — overwritten by its
    /// rank among the column's distinct identifiers once the column is
    /// ranked.
    vids: Vec<u64>,
    /// Each column's distinct identifiers, ascending, back to back.
    distinct: Vec<u64>,
    /// How many rows hold each identifier of `distinct`.
    uses: Vec<u32>,
    /// Where each column's identifiers lie in `distinct`, and its values in
    /// the values table, from the first index to the second: columns lie in
    /// the order they were ranked.
    spans: Vec<(usize, usize)>,
    /// The counting pass's tally, a slot (or [`STRIPES`] copies of one)
    /// per identifier of a column's range, and a bit a slot for the slots
    /// it counted. Both are all zero between passes: a pass resets the
    /// slots it counted, not the whole range.
    tally: Vec<u32>,
    marks: Vec<u64>,
}

impl Ranks {
    /// Sizes the buffers for `m` columns over the rows `rposs`, with room
    /// for `distinct` identifiers in all.
    fn start(&mut self, m: usize, rposs: &[u64], distinct: usize) {
        let n = rposs.len();
        self.n = n;
        ascending(rposs, &mut self.sorted, &mut self.order);
        self.vids.clear();
        self.vids.resize(m * n, 0);
        self.distinct.clear();
        self.distinct.reserve(distinct);
        self.uses.clear();
        self.uses.reserve(distinct);
        self.spans.clear();
        self.spans.resize(m, (0, 0));
    }

    /// Counts column `j`'s distinct identifiers and, when `ranked`, ranks
    /// its rows (see [`rank`]).
    fn rank(&mut self, j: usize, ranked: bool) {
        let start = self.distinct.len();
        let Ranks { n, vids, distinct, uses, tally, marks, .. } = self;
        rank(&mut vids[j * *n..][..*n], ranked, distinct, uses, tally, marks);
        self.spans[j] = (start, self.distinct.len());
    }

    /// Column `j`'s distinct identifiers, ascending.
    fn distinct(&self, j: usize) -> &[u64] {
        let (lo, hi) = self.spans[j];
        &self.distinct[lo..hi]
    }

    /// Writes column `j`'s rank of every row, in the caller's order, to
    /// `out`: the index of the row's value in the answer's values tables,
    /// whose entries of the ranked columns begin at `base`.
    fn write(&self, j: usize, base: usize, out: &mut [u32]) {
        let Ranks { n, order, vids, spans, .. } = self;
        let (first, ranks) = (base + spans[j].0, &vids[j * n..][..*n]);
        // Wrapping casts: an answer past `u32` ranks is refused by `Rows`.
        if order.is_empty() {
            for (out, &rank) in out.iter_mut().zip(ranks) {
                *out = (first + rank as usize) as u32;
            }
        } else {
            for (out, &k) in out.iter_mut().zip(order) {
                *out = (first + ranks[k as usize] as usize) as u32;
            }
        }
    }
}

/// Ranks the identifiers `vids` of one column: appends their distinct
/// values, ascending, to `distinct` and how many of `vids` hold each to
/// `uses` (one count per entry of `distinct`), and, when `ranked`,
/// overwrites each identifier by its rank — its index among the distinct
/// identifiers appended. Identifiers that ascend are counted run by run (a
/// single run, a width-0 column's, at once); a range of at most
/// [`DENSE_RANGE`] identifiers a row is counted in `tally` (see [`count`]);
/// anything sparser sorts a copy in `distinct` and finds each rank by
/// bisection. Identifiers that do not ascend are bounded first by their
/// bitwise and and bitwise or — every one lies between the two — in one
/// vectorized pass (a fifth of the time of a pass for their least and
/// greatest, which does not vectorize); only when that span is too wide to
/// count are their least and greatest looked for.
fn rank(
    vids: &mut [u64],
    ranked: bool,
    distinct: &mut Vec<u64>,
    uses: &mut Vec<u32>,
    tally: &mut Vec<u32>,
    marks: &mut Vec<u64>,
) {
    let start = distinct.len();
    let (Some(&first), Some(&last)) = (vids.first(), vids.last()) else { return };
    if vids.is_sorted() {
        if first == last {
            distinct.push(first);
            uses.push(vids.len() as u32);
            if ranked {
                vids.fill(0);
            }
            return;
        }
        let (mut prev, mut run, mut r) = (first, 0, 0);
        distinct.push(first);
        for vid in vids.iter_mut() {
            if *vid != prev {
                (prev, r) = (*vid, r + 1);
                distinct.push(prev);
                uses.push(run);
                run = 0;
            }
            run += 1;
            if ranked {
                *vid = r;
            }
        }
        uses.push(run);
        return;
    }
    let dense = DENSE_RANGE * vids.len() as u64;
    let (all, any) = vids.iter().fold((u64::MAX, 0), |(all, any), &vid| (all & vid, any | vid));
    if any - all < dense {
        count(vids, all..any + 1, ranked, distinct, uses, tally, marks);
        return;
    }
    let (lo, hi) = vids.iter().fold((u64::MAX, 0), |(lo, hi), &vid| (lo.min(vid), hi.max(vid)));
    if hi - lo < dense {
        count(vids, lo..hi + 1, ranked, distinct, uses, tally, marks);
        return;
    }
    distinct.extend_from_slice(vids);
    distinct[start..].sort_unstable();
    let mut len = start;
    for i in start..distinct.len() {
        if len > start && distinct[len - 1] == distinct[i] {
            uses[len - 1] += 1;
        } else {
            distinct[len] = distinct[i];
            len += 1;
            uses.push(1);
        }
    }
    distinct.truncate(len);
    if ranked {
        let sorted = &distinct[start..];
        for vid in vids.iter_mut() {
            *vid = sorted.partition_point(|&d| d < *vid) as u64;
        }
    }
}

/// The counting pass of [`rank`] over identifiers in `span`.
/// `tally` and `marks` are all zero on entry and are left so: each slot
/// counted is reset, not the whole range. A narrow range counts into
/// [`STRIPES`] copies of each slot — row `i` into copy `i % STRIPES` — and
/// the sweep adds the copies of every slot of the range. A wider one may
/// leave most slots empty: one copy a slot, a bit marks each slot counted,
/// and the sweep visits those alone, writing each identifier and its count
/// in place. The sweep resets each slot — or, when `ranked`, leaves the
/// identifier's rank there until the ranking pass has read it.
fn count(
    vids: &mut [u64],
    span: std::ops::Range<u64>,
    ranked: bool,
    distinct: &mut Vec<u64>,
    uses: &mut Vec<u32>,
    tally: &mut Vec<u32>,
    marks: &mut Vec<u64>,
) {
    let (start, lo, range) = (distinct.len(), span.start, (span.end - span.start) as usize);
    let stripes = if range * STRIPES <= vids.len() { STRIPES } else { 1 };
    let slots = range * stripes;
    if tally.len() < slots {
        // Grown to the range, not doubled: the tally is the largest part
        // of the scratch a thread keeps.
        tally.reserve_exact(slots - tally.len());
        tally.resize(slots, 0);
    }
    let t = &mut tally[..slots];
    let at = |vid: u64| (vid - lo) as usize * stripes;
    if stripes > 1 {
        let mut rows = vids.chunks_exact(STRIPES);
        for group in &mut rows {
            for (copy, &vid) in group.iter().enumerate() {
                t[at(vid) + copy] += 1;
            }
        }
        for &vid in rows.remainder() {
            t[at(vid)] += 1;
        }
        for (i, copies) in t.chunks_exact_mut(STRIPES).enumerate() {
            let n: u32 = copies.iter().sum();
            copies.fill(0);
            if n > 0 {
                if ranked {
                    copies[0] = (distinct.len() - start) as u32;
                }
                distinct.push(lo + i as u64);
                uses.push(n);
            }
        }
    } else {
        let words = range.div_ceil(64);
        if marks.len() < words {
            marks.resize(words, 0);
        }
        for &vid in vids.iter() {
            let i = at(vid);
            t[i] += 1;
            marks[i / 64] |= 1 << (i % 64);
        }
        let found: usize = marks[..words].iter().map(|word| word.count_ones() as usize).sum();
        distinct.resize(start + found, 0);
        uses.resize(start + found, 0);
        let (ids, counts) = (&mut distinct[start..], &mut uses[start..]);
        let mut d = 0;
        for (w, word) in marks[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (ids[d], counts[d]) = (lo + i as u64, t[i]);
                t[i] = if ranked { d as u32 } else { 0 };
                d += 1;
            }
        }
    }
    if ranked {
        for vid in vids.iter_mut() {
            *vid = u64::from(t[at(*vid)]);
        }
        for &vid in &distinct[start..] {
            t[at(vid)] = 0;
        }
    }
}

/// The buffers phases plan and pin with, reused across phases and waves:
/// the page tasks of the phase being planned, the keys and guards of the
/// wave being pinned, helper pages to preload, each routed identifier's
/// dictionary page, the entry buffers of phase (c) and its large entries.
#[derive(Default)]
pub(crate) struct Plan {
    tasks: Vec<PageTask>,
    waves: Waves,
    preload: Vec<PageKey>,
    /// Each routed identifier's dictionary page and that page's first
    /// identifier.
    dict_pages: Vec<(u64, u64)>,
    /// An entry's stored bytes, and their decompression — or a resident
    /// column's keys as its dictionary decodes them.
    acc: Vec<u8>,
    raw: Vec<u8>,
    large: Vec<Large>,
    pieces: Vec<Piece>,
}

/// A thread's materialization buffers.
#[derive(Default)]
struct Scratch {
    plan: Plan,
    ranks: Ranks,
}

impl Scratch {
    /// [`materialize_into`] on these buffers: column 0 of the appended rows
    /// resolves every column, its values decoded into the answer's tables,
    /// and each column then writes its ranks.
    fn run<'a>(
        &mut self,
        m: usize,
        source: impl Fn(usize) -> &'a Column,
        rposs: &[u64],
        rows: &mut Rows,
    ) -> CoreResult<()> {
        let mut base = 0;
        rows.append(rposs.len(), |j, values, ranks| {
            if j == 0 {
                base = values.len();
                self.resolve(m, &source, rposs, values)?;
            }
            self.ranks.write(j, base, ranks);
            Ok(())
        })
    }

    /// Both halves of late materialization for the `m` columns `source`
    /// names at `rposs`: each column's distinct identifiers, their uses and
    /// each row's rank among them, and the column's values appended to
    /// `table`, a value per distinct identifier, in the order the columns
    /// were ranked.
    fn resolve<'a>(
        &mut self,
        m: usize,
        source: impl Fn(usize) -> &'a Column,
        rposs: &[u64],
        table: &mut Vec<Value>,
    ) -> CoreResult<()> {
        let Scratch { plan, ranks } = self;
        let base = table.len();
        // A column has at most as many distinct identifiers as rows, and
        // as its dictionary: the buffers of the distinct ones are sized once.
        let most = |j: usize| source(j).parts.cardinality.min(rposs.len() as u64) as usize;
        let distinct = (0..m).map(most).sum();
        ranks.start(m, rposs, distinct);
        table.reserve(distinct);
        // Resident columns one at a time, paged ones pool by pool: a batched
        // pin addresses one pool, and columns of a fragment share theirs.
        for lead in 0..m {
            let column = source(lead);
            let first = &*column.parts;
            if let Some(image) = column.image()? {
                let vids = &mut ranks.vids[lead * rposs.len()..][..rposs.len()];
                decode_vids(1, &|_| Some(first), Some(&image), &ranks.sorted, vids, plan)?;
                ranks.rank(lead, true);
                let mut keys = image.dict.keys(&mut plan.raw);
                for &vid in ranks.distinct(lead) {
                    table.push(first.value_of(&mut keys, vid)?);
                }
                continue;
            }
            let part = |j: usize| source(j).paged().filter(|c| c.pool.same_pool(&first.pool));
            if (0..lead).any(|j| part(j).is_some()) {
                continue; // resolved with an earlier column of its pool
            }
            decode_vids(m, &part, None, &ranks.sorted, &mut ranks.vids, plan)?;
            for j in (0..m).filter(|&j| part(j).is_some()) {
                ranks.rank(j, true);
            }
            let ranks = &*ranks;
            values_by_vid_paged(&first.pool, m, &part, |j| ranks.distinct(j), plan, Values::Table(table))?;
        }
        debug_assert_eq!(table.len() - base, ranks.distinct.len(), "a value per distinct identifier");
        Ok(())
    }

    /// Heap bytes the buffers hold (their capacities). Every buffer is
    /// named: a field added to [`Plan`], [`Ranks`] or the scratch does not
    /// compile until it is counted here.
    fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            std::mem::size_of::<T>() * v.capacity()
        }
        let Scratch {
            plan: Plan { tasks, waves, preload, dict_pages, acc, raw, large, pieces },
            ranks: Ranks { n: _, sorted, order, vids, distinct, uses, spans, tally, marks },
        } = self;
        bytes(tasks)
            + waves.heap_bytes()
            + bytes(preload)
            + bytes(dict_pages)
            + bytes(acc)
            + bytes(raw)
            + bytes(large)
            + bytes(pieces)
            + bytes(sorted)
            + bytes(order)
            + bytes(vids)
            + bytes(distinct)
            + bytes(uses)
            + bytes(spans)
            + bytes(tally)
            + bytes(marks)
    }

    /// Ends a materialization, however it ended: drops the large entries
    /// (an error leaves them behind), then frees every buffer when they
    /// hold more than [`SCRATCH_KEEP`].
    fn settle(&mut self) {
        self.plan.large.clear();
        self.plan.pieces.clear();
        if self.heap_bytes() > SCRATCH_KEEP {
            *self = Scratch::default();
        }
    }
}

/// Most heap bytes a thread keeps in its [`Scratch`] between
/// materializations: a point read's or a short range's plan stays — a
/// 1 000-row aggregate's too, tally included — while a
/// large projection's is freed when it ends. The kept bytes are the
/// thread's, not a resource of the pool: resman does not charge them, so a
/// footprint leaves out up to this much per thread that has materialized.
const SCRATCH_KEEP: usize = 128 << 10;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on the thread's scratch — or, re-entered, on a fresh one — and
/// settles the scratch after it.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let out = f(&mut scratch);
            scratch.settle();
            out
        }
        Err(_) => f(&mut Scratch::default()),
    })
}

/// One page of a phase's plan: items `lo..hi` of column `col`'s work list
/// (rows in phase (a), distinct identifiers after) live on page `key`,
/// whose first row or identifier is `first`.
struct PageTask {
    col: usize,
    key: PageKey,
    lo: usize,
    hi: usize,
    first: u64,
}

/// Plans `col`'s pages for a phase: splits its `n` work items, which lie
/// on pages in nondecreasing order, into one task per page. `page_at(lo)`
/// names the page of item `lo` — the first not yet planned — by its key,
/// its first row or identifier and the end of its items, so a page costs
/// one call however many items it holds.
fn plan_pages(
    tasks: &mut Vec<PageTask>,
    col: usize,
    n: usize,
    mut page_at: impl FnMut(usize) -> (PageKey, u64, usize),
) {
    let mut lo = 0;
    while lo < n {
        let (key, first, hi) = page_at(lo);
        debug_assert!(hi > lo, "a page holds the item that names it");
        tasks.push(PageTask { col, key, lo, hi, first });
        lo = hi;
    }
}

/// The page of `items[lo]` — `items` ascending, `per_page` of them to a
/// page, page `p` starting at `p * per_page` — as its number, its first
/// item and the end of the items on it: one division and one bisection a
/// page.
fn page_of_run(items: &[u64], lo: usize, per_page: u64) -> (u64, u64, usize) {
    let page = items[lo] / per_page;
    let first = page * per_page;
    (page, first, lo + items[lo..].partition_point(|&item| item < first + per_page))
}

/// Fills `sorted` with the rows in ascending order — page order within
/// each chain — and, when that is not the caller's order, `order` with
/// where each of the caller's rows went (`order[i]` for the caller's
/// `i`-th row); `order` stays empty when the rows ascend.
fn ascending(rposs: &[u64], sorted: &mut Vec<u64>, order: &mut Vec<u32>) {
    sorted.clear();
    order.clear();
    if rposs.is_sorted() {
        sorted.extend_from_slice(rposs);
        return;
    }
    debug_assert!(rposs.len() < 1 << 31, "row indices leave the top bit free");
    order.extend(0..rposs.len() as u32);
    order.sort_unstable_by_key(|&i| rposs[i as usize]);
    sorted.extend(order.iter().map(|&i| rposs[i as usize]));
    invert(order);
}

/// Inverts the permutation `order` in place — `order[k] = i` becomes
/// `order[i] = k` — cycle by cycle, the top bit marking the entries
/// already inverted.
fn invert(order: &mut [u32]) {
    const DONE: u32 = 1 << 31;
    for start in 0..order.len() {
        if order[start] & DONE != 0 {
            continue;
        }
        let (mut k, mut i) = (start as u32, order[start]);
        while i as usize != start {
            let next = order[i as usize];
            order[i as usize] = k | DONE;
            (k, i) = (i, next);
        }
        order[start] = k | DONE;
    }
    for k in order.iter_mut() {
        *k &= !DONE;
    }
}

/// [`ColumnRead::vid_counts`] of one column: phase (a), then the counting
/// pass, unranked (see [`rank`]), into `(identifier, count)` pairs,
/// ascending by identifier.
pub(crate) fn vid_counts(column: &Column, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
    if rposs.is_empty() {
        return Ok(Vec::new());
    }
    let parts = &*column.parts;
    with_scratch(|Scratch { plan, ranks, .. }| {
        ranks.start(1, rposs, parts.cardinality.min(rposs.len() as u64) as usize);
        let image = column.image()?;
        decode_vids(1, &|_| Some(parts), image.as_deref(), &ranks.sorted, &mut ranks.vids, plan)?;
        ranks.rank(0, false);
        Ok(ranks.distinct.iter().zip(&ranks.uses).map(|(&vid, &n)| (vid, u64::from(n))).collect())
    })
}

/// [`Column::encoded_rows`] of one column (`rposs` not empty): phase (a),
/// back in the caller's row order, over the whole dictionary — a resident
/// column's image, or a paged one's chain read in key order straight from
/// the store.
pub(crate) fn encoded_rows(column: &Column, rposs: &[u64]) -> CoreResult<EncodedRows> {
    let parts = &*column.parts;
    let image = column.image()?;
    let vids = with_scratch(|Scratch { plan, ranks, .. }| {
        ascending(rposs, &mut ranks.sorted, &mut ranks.order);
        let mut vids = vec![0; rposs.len()];
        decode_vids(1, &|_| Some(parts), image.as_deref(), &ranks.sorted, &mut vids, plan)?;
        if ranks.order.is_empty() {
            return Ok(vids);
        }
        CoreResult::Ok(ranks.order.iter().map(|&k| vids[k as usize]).collect())
    })?;
    let dict = match image {
        Some(image) => image.dict.to_in_memory()?,
        None => parts.dict.materialize_all_direct()?,
    };
    EncodedRows::new(dict, vids)
}

/// Phase (a): the identifier at every row of `sorted` (ascending, not
/// empty) for each of the `m` columns `part` names (paged ones share a
/// pool), column `j`'s to `vids[j * n..][..n]`, after one bounds check of
/// the greatest row. A column copies its rows where they are its
/// identifiers; else a resident one (`m` is 1) decodes its `image` in one
/// [`decode_rows`], and a paged column pins its pages in waves, one
/// [`decode_rows`] a page. A width-0 column has no pages: its identifiers
/// are 0.
fn decode_vids<'a>(
    m: usize,
    part: &impl Fn(usize) -> Option<&'a ColumnParts>,
    image: Option<&Image>,
    sorted: &[u64],
    vids: &mut [u64],
    plan: &mut Plan,
) -> CoreResult<()> {
    let (n, last) = (sorted.len(), sorted[sorted.len() - 1]);
    let Plan { tasks, waves, .. } = plan;
    tasks.clear();
    let mut pool = None;
    debug_assert!(image.is_none() || m == 1, "an image is one column's");
    for j in 0..m {
        let Some(c) = part(j) else { continue };
        if last >= c.len {
            return Err(CoreError::RowOutOfBounds { rpos: last, len: c.len });
        }
        let out = &mut vids[j * n..][..n];
        match (&c.rows, image) {
            (StoredRows::Identity { .. }, _) => out.copy_from_slice(sorted),
            (StoredRows::Plain { .. }, Some(image)) => image.decode_rows(sorted, out),
            (StoredRows::Plain { data, .. }, None) if data.rows_per_page() == 0 => out.fill(0),
            (StoredRows::Plain { data, .. }, None) => {
                plan_pages(tasks, j, n, |lo| {
                    let (page, first, hi) = page_of_run(sorted, lo, data.rows_per_page());
                    (data.page_key(page), first, hi)
                });
                pool = Some(&c.pool);
            }
        }
    }
    let Some(pool) = pool else { return Ok(()) };
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            if let Some(ColumnParts { rows: StoredRows::Plain { data, .. }, .. }) = part(t.col) {
                let out = &mut vids[t.col * n..][t.lo..t.hi];
                decode_rows(Packed::Bytes(page), data.width(), t.first, &sorted[t.lo..t.hi], out);
            }
            Ok(())
        },
    )
}

/// [`ColumnRead::values_by_vid`] of one column, the values appended in the
/// identifiers' order: a paged column's phases (b) and (c), a resident
/// column's keys read off its image. Identifiers that do not ascend
/// strictly are looked up as a sorted, duplicate-free copy, each then
/// finding its value by bisection — so each distinct value is decoded once
/// and a repeated identifier shares it.
pub(crate) fn values_by_vid(column: &Column, vids: &[u64]) -> CoreResult<Vec<Value>> {
    if !vids.is_sorted_by(|a, b| a < b) {
        let mut sorted = vids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let values = values_by_vid(column, &sorted)?;
        return Ok(vids.iter().map(|vid| values[sorted.partition_point(|d| d < vid)].clone()).collect());
    }
    let (c, image) = (&*column.parts, column.image()?);
    let mut out = Vec::with_capacity(vids.len());
    with_scratch(|Scratch { plan, .. }| {
        let Some(image) = image else {
            let table = Values::Table(&mut out);
            return values_by_vid_paged(&c.pool, 1, &|_| Some(c), |_| vids, plan, table);
        };
        let mut keys = image.dict.keys(&mut plan.raw);
        for &vid in vids {
            out.push(c.value_of(&mut keys, vid)?);
        }
        Ok(())
    })?;
    Ok(out)
}

/// A large dictionary entry whose off-page pieces are still to be appended.
struct Large {
    col: usize,
    /// Where the entry's value goes in the values table.
    at: usize,
    bytes: Vec<u8>,
    /// Length of the complete entry.
    total: u64,
}

/// One off-page piece of a large dictionary entry still to be appended.
struct Piece {
    /// Index into the phase's large entries.
    large: usize,
    at: OverflowRef,
    key: PageKey,
}

/// Phases (b) and (c): the values of each of the `m` columns `part` names
/// at its `distinct` identifiers — ascending and duplicate-free, which is
/// helper-page and dictionary-page order — handed to `values`, column by
/// column in identifier order: appended to the values table, or added to
/// a one-column sum straight off its array pages. Each value is decoded
/// once.
pub(crate) fn values_by_vid_paged<'a, 'd>(
    pool: &BufferPool,
    m: usize,
    part: &impl Fn(usize) -> Option<&'a ColumnParts>,
    distinct: impl Fn(usize) -> &'d [u64],
    plan: &mut Plan,
    mut values: Values<'_>,
) -> CoreResult<()> {
    for j in 0..m {
        let Some(c) = part(j) else { continue };
        let d = distinct(j);
        debug_assert!(d.windows(2).all(|w| w[0] < w[1]), "identifiers ascend strictly");
        if let Some(&last) = d.last() {
            c.dict.check_vid(last)?;
        }
    }
    let Plan { tasks, waves, preload, dict_pages, acc, raw, large, pieces } = plan;

    // Phase (b): helper pages → dictionary page of every distinct
    // identifier, and where that page starts, for the dictionaries that
    // route by helper — an array dictionary's page is arithmetic, a
    // one-page dictionary's is page 0, starting at identifier 0.
    // First touch of a dictionary preloads its helper chains (§3.2.3) —
    // except the pages the phase is about to pin anyway.
    tasks.clear();
    preload.clear();
    let mut stride = 0;
    for j in 0..m {
        let Some(c) = part(j) else { continue };
        let d = distinct(j);
        if let Layout::Blocks(b) = c.dict.layout() {
            if b.routes_by_helper() && !d.is_empty() {
                plan_pages(tasks, j, d.len(), |lo| {
                    let (hp, last) = b.vid_helper_page(d[lo]);
                    let hi = lo + d[lo..].partition_point(|&vid| vid <= last);
                    (b.vid_helper_key(hp), 0, hi)
                });
                preload.extend(b.preload_pages());
                stride = stride.max(d.len());
            }
        }
    }
    // Column `j`'s dictionary pages are `[j * stride..][..distinct(j).len()]`.
    dict_pages.clear();
    dict_pages.resize(m * stride, (0, 0));
    preload.retain(|key| !tasks.iter().any(|t| t.key == *key));
    waves.for_each_page(pool, preload, |key| *key, |_, _| Ok(()))?;
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            if let Some(Layout::Blocks(b)) = part(t.col).map(|c| c.dict.layout()) {
                let d = distinct(t.col);
                for k in t.lo..t.hi {
                    dict_pages[t.col * stride + k] =
                        b.dict_page_on_helper(page, t.key.page_no, d[k]);
                }
            }
            Ok(())
        },
    )?;
    for t in tasks.iter() {
        if let Some(Layout::Blocks(b)) = part(t.col).map(|c| c.dict.layout()) {
            b.preload_landed();
        }
    }

    // Phase (c): dictionary pages → values. An array page's values are
    // decoded where they lie, one tight loop a page. The value-block
    // entries of a page are read by one walk through each block they
    // touch, stepped from slot to sorted slot in one buffer; an entry that
    // is whole on its page is decoded to its value from that buffer
    // (through one FSST buffer when the chain is coded), a large one takes
    // its place in the table and keeps a copy of its bytes until its
    // off-page pieces are appended, in order. Each task carries its page's
    // first identifier, which the page's header must repeat.
    large.clear();
    pieces.clear();
    tasks.clear();
    for j in 0..m {
        let Some(c) = part(j) else { continue };
        let d = distinct(j);
        match c.dict.layout() {
            Layout::Array(a) => plan_pages(tasks, j, d.len(), |lo| {
                let (page, first, hi) = page_of_run(d, lo, a.per_page());
                (a.page_key(page), first, hi)
            }),
            Layout::Blocks(b) if b.routes_by_helper() => {
                let routed = &dict_pages[j * stride..][..d.len()];
                plan_pages(tasks, j, d.len(), |lo| {
                    let (page, first) = routed[lo];
                    let hi = lo + routed[lo..].partition_point(|&(p, _)| p == page);
                    (b.dict_page_key(page), first, hi)
                })
            }
            Layout::Blocks(b) => plan_pages(tasks, j, d.len(), |_| (b.dict_page_key(0), 0, d.len())),
        }
    }
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            let Some(c) = part(t.col) else { return Ok(()) };
            let vids = &distinct(t.col)[t.lo..t.hi];
            let (b, table) = match (c.dict.layout(), &mut values) {
                (Layout::Array(a), Values::Table(table)) => {
                    return a.values_on(page, t.first, vids, c.data_type, Values::Table(table))
                }
                (Layout::Array(a), Values::Sum { uses, sum }) => {
                    let sink = Values::Sum { uses: &uses[t.lo..t.hi], sum };
                    return a.values_on(page, t.first, vids, c.data_type, sink);
                }
                (Layout::Blocks(b), Values::Table(table)) => (b, table),
                (Layout::Blocks(_), Values::Sum { .. }) => {
                    return Err(CoreError::Storage(StorageError::corrupt(
                        "a numeric column's dictionary is stored as value blocks",
                    )))
                }
            };
            let mut view = b.page_view(page, t.key.page_no, t.first)?;
            for &vid in vids {
                let entry = view.entry(vid, acc)?;
                if entry.spilled() {
                    pieces.extend(entry.offpage_refs().map(|at| Piece {
                        large: large.len(),
                        key: b.overflow_key(&at),
                        at,
                    }));
                    let total = entry.total_len();
                    large.push(Large { col: t.col, at: table.len(), bytes: acc.clone(), total });
                    table.push(Value::Integer(0));
                } else {
                    let key = b.decode_key(acc, entry.total_len(), raw)?;
                    table.push(Value::from_key(c.data_type, key)?);
                }
            }
            Ok(())
        },
    )?;
    waves.for_each_page(
        pool,
        pieces,
        |p| p.key,
        |p, page| append_piece(&mut large[p.large].bytes, &p.at, page),
    )?;
    pieces.clear();
    for l in large.drain(..) {
        let Some(c) = part(l.col) else { continue };
        if let (Layout::Blocks(b), Values::Table(table)) = (c.dict.layout(), &mut values) {
            table[l.at] = Value::from_key(c.data_type, b.decode_key(&l.bytes, l.total, raw)?)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnBuilder, DataType, LoadPolicy, PageConfig};
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;
    use std::sync::Arc;

    /// Distinct 40-byte printable strings: longer than `PageConfig::tiny`'s
    /// inline limit and too random to share prefixes, so every entry spills
    /// pieces to the overflow chain.
    fn random_strings(n: usize) -> Vec<Value> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut printable = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            char::from(b' ' + ((x >> 33) % 95) as u8)
        };
        let mut string = || (0..40).map(|_| printable()).collect::<String>().into();
        (0..n).map(|_| Value::Varchar(string())).collect()
    }

    /// `rank` on each of its paths — identifiers that ascend, a range of
    /// at most `DENSE_RANGE` identifiers a row (narrower and wider than the
    /// rows), and a wider one — against a sorted, deduplicated copy: the
    /// distinct identifiers ascend, the uses count each one's rows, and
    /// each rank points back at the row's identifier. Each column appends
    /// behind the one before; unranked, the identifiers are left as they
    /// are and the counts are the same.
    #[test]
    fn ranks_by_counting_by_order_and_by_sorting_agree_with_a_sort() {
        let n = 40u64;
        let cases: [(&str, Vec<u64>); 4] = [
            ("ascending", (0..n).map(|i| i / 3 + 7).collect()),
            ("dense", (0..n).map(|i| (i * 17) % 23 + 1000).collect()),
            ("dense at its widest", (0..n).map(|i| [5, 5 + DENSE_RANGE * n - 1][i as usize % 2]).collect()),
            ("sparse", (0..n).map(|i| (i * 7919) % 13 * 1_000_003).collect()),
        ];
        let (mut distinct, mut uses) = (vec![3, 9], vec![1, 1]);
        let (mut tally, mut marks) = (Vec::new(), Vec::new());
        for (what, vids) in cases {
            let mut want = vids.clone();
            want.sort_unstable();
            want.dedup();
            let start = distinct.len();
            let mut unranked = vids.clone();
            rank(&mut unranked, false, &mut distinct, &mut uses, &mut tally, &mut marks);
            assert_eq!(unranked, vids, "{what}: unranked");
            let counted = (distinct.split_off(start), uses.split_off(start));
            let mut ranked = vids.clone();
            tally.clear();
            rank(&mut ranked, true, &mut distinct, &mut uses, &mut tally, &mut marks);
            assert_eq!(!tally.is_empty(), what.starts_with("dense"), "{what}: counted");
            assert_eq!((distinct[start..].to_vec(), uses[start..].to_vec()), counted, "{what}: counts");
            assert_eq!(distinct[start..], want, "{what}: distinct");
            assert_eq!(uses.len(), distinct.len(), "{what}: a use count per identifier");
            for (k, &d) in want.iter().enumerate() {
                let rows = vids.iter().filter(|&&v| v == d).count() as u32;
                assert_eq!(uses[start + k], rows, "{what}: uses of {d}");
            }
            for (vid, r) in vids.iter().zip(&ranked) {
                assert_eq!(distinct[start + *r as usize], *vid, "{what}: rank of {vid}");
            }
            assert!(tally.len() as u64 <= DENSE_RANGE * n, "{what}: the tally is bounded by the rows");
        }
    }

    /// Every buffer of `scratch` with its capacity. Names each field, so a
    /// buffer added to [`Plan`] or [`Ranks`] must be added here too.
    fn capacities(scratch: &Scratch) -> [(&'static str, usize); 16] {
        let Scratch {
            plan: Plan { tasks, waves, preload, dict_pages, acc, raw, large, pieces },
            ranks: Ranks { n: _, sorted, order, vids, distinct, uses, spans, tally, marks },
        } = scratch;
        [
            ("tasks", tasks.capacity()),
            ("waves", waves.heap_bytes()),
            ("preload", preload.capacity()),
            ("dict_pages", dict_pages.capacity()),
            ("acc", acc.capacity()),
            ("raw", raw.capacity()),
            ("large", large.capacity()),
            ("pieces", pieces.capacity()),
            ("sorted", sorted.capacity()),
            ("order", order.capacity()),
            ("vids", vids.capacity()),
            ("distinct", distinct.capacity()),
            ("uses", uses.capacity()),
            ("spans", spans.capacity()),
            ("tally", tally.capacity()),
            ("marks", marks.capacity()),
        ]
    }

    /// A wide projection of many unsorted rows — over multi-page string
    /// dictionaries routed by helper pages, one FSST-coded, one whose
    /// entries spill off-page — grows every buffer of the scratch; settling frees them all. On a thread's
    /// own scratch, that projection leaves nothing behind while a point
    /// read's plan stays, within the keep limit.
    #[test]
    fn a_large_projection_frees_every_buffer_it_grew() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let n = 1500;
        let spilled = random_strings(n);
        let coded: Vec<Value> =
            (0..n).map(|i| Value::Varchar(format!("material-{:05}", i * 7 % 331).into())).collect();
        let numbers: Vec<Value> = (0..n as i64).map(|i| Value::Integer(i % 97)).collect();
        let build = |ty, values: &[Value]| {
            ColumnBuilder::new(ty)
                .policy(LoadPolicy::PageLoadable)
                .build(&pool, &PageConfig::tiny(), values)
                .unwrap()
                .column
        };
        let columns = [
            build(DataType::Varchar, &spilled),
            build(DataType::Varchar, &coded),
            build(DataType::Integer, &numbers),
        ];
        let values = [&spilled, &coded, &numbers];
        let which = [0, 1, 2, 0];
        // Descending, each row twice.
        let rposs: Vec<u64> = (0..2 * n as u64).map(|i| n as u64 - 1 - i / 2).collect();
        let expect = |rows: Rows| {
            assert_eq!(rows.len(), rposs.len());
            for (row, &rpos) in rows.into_rows().iter().zip(&rposs) {
                let want: Vec<Value> = which.iter().map(|&c| values[c][rpos as usize].clone()).collect();
                assert_eq!(row, &want, "row {rpos}");
            }
        };

        let mut scratch = Scratch::default();
        let mut rows = Rows::new(which.len(), rposs.len());
        let source = |j: usize| &columns[which[j]];
        scratch.run(which.len(), source, &rposs, &mut rows).unwrap();
        expect(rows);
        for (name, capacity) in capacities(&scratch) {
            assert!(capacity > 0, "{name} did not grow");
        }
        assert!(scratch.heap_bytes() > SCRATCH_KEEP);
        scratch.settle();
        assert_eq!(scratch.heap_bytes(), 0);
        for (name, capacity) in capacities(&scratch) {
            assert_eq!(capacity, 0, "{name} was kept");
        }

        let kept = || SCRATCH.with(|cell| cell.borrow().heap_bytes());
        let mut rows = Rows::new(which.len(), rposs.len());
        materialize(&columns, &which, &rposs, &mut rows).unwrap();
        expect(rows);
        assert_eq!(kept(), 0, "a large projection's scratch is freed");
        let mut row = Rows::new(which.len(), 1);
        materialize(&columns, &which, &[700], &mut row).unwrap();
        assert_eq!(row.get(0).unwrap()[0], spilled[700]);
        assert!((1..=SCRATCH_KEEP).contains(&kept()), "a point read's plan stays");
        pool.assert_no_live_pins("large projection");
    }
}

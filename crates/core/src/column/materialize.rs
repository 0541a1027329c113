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
//! * **(a)** data-vector pages of the row set → value identifiers,
//! * **(b)** `ipDict_ValueId` helper pages of the distinct identifiers →
//!   dictionary page numbers (the helper chains of a dictionary touched for
//!   the first time are preloaded here, §3.2.3) — for string dictionaries of
//!   more than one page only: a numeric dictionary's page is arithmetic on
//!   the identifier, a one-page dictionary's is page 0,
//! * **(c)** dictionary pages → values: a numeric dictionary's slot is the
//!   key; a string entry is decoded from its value block, then the overflow
//!   pages of the large ones are appended.
//!
//! Each phase plans its pages, pins them with
//! [`BufferPool::pin_many_into`] — the misses of a phase load as overlapped,
//! coalesced reads instead of serially — decodes straight from the returned
//! guards, and releases them before the next phase. This is the paper's
//! handle cache for batch lookups (§3.2.3) turned inside out: the pins of a
//! batch are taken together and held exactly as long as the batch reads
//! them. A phase larger than [`crate::waves::WAVE_PAGES`] is split into
//! waves so the pins a projection holds at once stay bounded whatever its
//! width — the wave driver the data-vector scan shares.
//!
//! The work is cut at its natural joint, and each half is an operation of
//! its own:
//!
//! * **rows → identifiers** (phase (a)), reduced either to *(identifier,
//!   count)* pairs ascending ([`ColumnRead::vid_counts`] — all an aggregate
//!   needs: `SUM` is Σ value × count, `MIN` / `MAX` are the first / last
//!   identifier because the dictionary preserves order) or to the distinct
//!   identifiers plus, for each, the rows that hold it (for a projection);
//! * **sorted distinct identifiers → values** (phases (b) and (c),
//!   [`ColumnRead::values_by_vid`]) — every distinct value is decoded once.
//!
//! A projection has one output, the caller's rows. Phase (c) hands each
//! decoded value to a **sink** that writes it into the rows holding its
//! identifier — cloned for all but the last of them, moved into the last,
//! so a value serving one row is never cloned. A single row is the same
//! code with one row per identifier. Resident columns write through the
//! same sink from their in-memory image: a row is one
//! `dict.key(data.get(rpos))`. A column whose rows are their identifiers
//! (a unique key stored in key order) has no data vector: phase (a) is a
//! copy of the rows, in either mode.
//!
//! The plan lives in flat buffers — identifiers, distinct lists, the rows
//! of each identifier and dictionary pages are one `columns × rows` vector
//! each, beside one task list, one key vector and one guard vector for
//! every phase and wave, and the entry and FSST buffers of phase (c). They
//! are the thread's [`Scratch`], reused by the next materialization on that
//! thread, so a warm point read allocates for its answer alone.
//! [`ColumnRead::get_values`] is the one-column case of the same code, and
//! a point read its one-row case — there is no other value path.

use super::paged::{ColumnParts, StoredRows};
use super::resident::ResidentColumn;
use super::{Column, EncodedRows};
use crate::dict::{append_piece, Layout};
use crate::waves::Waves;
use crate::{CoreError, CoreResult, Value};
use payg_encoding::prefix::OverflowRef;
use payg_storage::{BufferPool, PageKey};
use std::cell::RefCell;

/// Materializes the values of the columns `which` — indices into `columns`,
/// the columns of one fragment, which share the row positions — at `rposs`
/// (any order, duplicates allowed) into `rows`, one row per position: row
/// `i` is extended by one value per column of `which`, in that order, the
/// value at `rposs[i]`. Every row must have the same length on entry. Paged
/// columns are resolved together, phase by phase (see the module docs);
/// resident columns answer from memory.
///
/// # Panics
/// When `rows` and `rposs` differ in length.
pub fn materialize(
    columns: &[Column],
    which: &[usize],
    rposs: &[u64],
    rows: &mut [Vec<Value>],
) -> CoreResult<()> {
    assert_eq!(rows.len(), rposs.len(), "one row per position");
    let base = rows.first().map_or(0, Vec::len);
    for row in rows.iter_mut() {
        debug_assert_eq!(row.len(), base, "rows extend from one width");
        // Every slot is overwritten below: the fill allocates nothing.
        row.resize(base + which.len(), Value::Integer(0));
    }
    let source = |j: usize| Source::of(&columns[which[j]]);
    materialize_into(which.len(), source, rposs, &mut Rows { rows, base })
}

/// A projected column as late materialization reads it.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// Answered from its in-memory image.
    Resident(&'a ResidentColumn),
    /// Pinned page by page.
    Paged(&'a ColumnParts),
}

impl<'a> Source<'a> {
    fn of(column: &'a Column) -> Self {
        match column {
            Column::Resident(c) => Source::Resident(c),
            Column::Paged(c) => Source::Paged(c.parts()),
        }
    }
}

/// Where materialized values land: one slot per (row, column).
pub(crate) trait Slots {
    /// The slot of projected column `col` in the caller's row `row`.
    fn slot(&mut self, row: usize, col: usize) -> &mut Value;
}

/// The caller's rows, extended from `base` by the projected columns.
struct Rows<'a> {
    rows: &'a mut [Vec<Value>],
    base: usize,
}

impl Slots for Rows<'_> {
    fn slot(&mut self, row: usize, col: usize) -> &mut Value {
        &mut self.rows[row][self.base + col]
    }
}

/// One column's values, one per row.
impl Slots for [Value] {
    fn slot(&mut self, row: usize, _col: usize) -> &mut Value {
        &mut self[row]
    }
}

/// The materialization every value read runs: the `m` columns `source`
/// names, at `rposs` (any order, duplicates allowed), into `out`.
pub(crate) fn materialize_into<'a, S: Slots + ?Sized>(
    m: usize,
    source: impl Fn(usize) -> Source<'a>,
    rposs: &[u64],
    out: &mut S,
) -> CoreResult<()> {
    if rposs.is_empty() || m == 0 {
        return Ok(());
    }
    with_scratch(|scratch| scratch.run(m, source, rposs, out))
}

/// [`ColumnRead::get_values`] of one column: its values at `rposs`, in
/// that order.
pub(crate) fn get_values(column: Source<'_>, rposs: &[u64]) -> CoreResult<Vec<Value>> {
    let mut out = vec![Value::Integer(0); rposs.len()];
    materialize_into(1, |_| column, rposs, &mut out[..])?;
    Ok(out)
}

/// The rows' side of one materialization, in flat buffers with one stride
/// of `n` entries per column: column `j`'s entries are `[j * n..][..n]`.
#[derive(Default)]
struct Ranks {
    n: usize,
    /// The rows in ascending order — page order within each chain.
    sorted: Vec<u64>,
    /// `order[k]`: the caller's index of the k-th smallest row; empty when
    /// the caller's rows ascend.
    order: Vec<u32>,
    /// Each column's identifier at every row of `sorted`.
    vids: Vec<u64>,
    /// Each column's distinct identifiers, ascending (the first `lens[j]`
    /// of its stride).
    distinct: Vec<u64>,
    /// Each column's rows (caller indices) grouped by identifier.
    by_vid: Vec<u32>,
    /// `ends[k]`: where the rows of the column's k-th distinct identifier
    /// end in its stride of `by_vid` (they start at `ends[k - 1]`, or 0).
    ends: Vec<u32>,
    lens: Vec<usize>,
}

impl Ranks {
    /// Sizes every buffer once for `m` columns over the rows `rposs`.
    fn start(&mut self, m: usize, rposs: &[u64]) {
        let n = rposs.len();
        self.n = n;
        ascending(rposs, &mut self.sorted, &mut self.order);
        for buf in [&mut self.vids, &mut self.distinct] {
            buf.clear();
            buf.resize(m * n, 0);
        }
        for buf in [&mut self.by_vid, &mut self.ends] {
            buf.clear();
            buf.resize(m * n, 0);
        }
        self.lens.clear();
        self.lens.resize(m, 0);
    }

    /// Groups column `j`'s rows by identifier: its distinct identifiers,
    /// ascending, and the caller's rows of each — recorded while the
    /// distinct list is built, so writing a value to its rows is a slice,
    /// not a search.
    fn rank(&mut self, j: usize) {
        let n = self.n;
        let vids = &self.vids[j * n..][..n];
        let by_vid = &mut self.by_vid[j * n..][..n];
        let (distinct, ends) = (&mut self.distinct[j * n..][..n], &mut self.ends[j * n..][..n]);
        for (k, slot) in by_vid.iter_mut().enumerate() {
            *slot = k as u32;
        }
        by_vid.sort_unstable_by_key(|&k| vids[k as usize]);
        let mut len = 0;
        for (i, &k) in by_vid.iter().enumerate() {
            let vid = vids[k as usize];
            if len == 0 || distinct[len - 1] != vid {
                distinct[len] = vid;
                len += 1;
            }
            ends[len - 1] = i as u32 + 1;
        }
        if !self.order.is_empty() {
            for k in by_vid.iter_mut() {
                *k = self.order[*k as usize];
            }
        }
        self.lens[j] = len;
    }

    /// Column `j`'s distinct identifiers, ascending.
    fn distinct(&self, j: usize) -> &[u64] {
        &self.distinct[j * self.n..][..self.lens[j]]
    }

    /// The sink: writes `value`, column `j`'s `k`-th distinct value, into
    /// every row holding it — moved into the last of them.
    fn put<S: Slots + ?Sized>(&self, out: &mut S, j: usize, k: usize, value: Value) {
        let ends = &self.ends[j * self.n..];
        let lo = if k == 0 { 0 } else { ends[k - 1] as usize };
        let rows = &self.by_vid[j * self.n..][lo..ends[k] as usize];
        if let Some((&last, rest)) = rows.split_last() {
            for &row in rest {
                *out.slot(row as usize, j) = value.clone();
            }
            *out.slot(last as usize, j) = value;
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
    dict_pages: Vec<u64>,
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
    /// [`materialize_into`] on these buffers.
    fn run<'a, S: Slots + ?Sized>(
        &mut self,
        m: usize,
        source: impl Fn(usize) -> Source<'a>,
        rposs: &[u64],
        out: &mut S,
    ) -> CoreResult<()> {
        let Scratch { plan, ranks } = self;
        ranks.start(m, rposs);
        let n = ranks.n;
        // Resident columns: both halves over the image, one column at a time.
        for j in 0..m {
            let Source::Resident(c) = source(j) else {
                continue;
            };
            let image = c.image()?;
            let vids = &mut ranks.vids[j * n..][..n];
            for (vid, &rpos) in vids.iter_mut().zip(&ranks.sorted) {
                *vid = c.vid_at(&image, rpos)?;
            }
            ranks.rank(j);
            let mut keys = image.dict().cursor(&mut plan.raw);
            for k in 0..ranks.lens[j] {
                ranks.put(out, j, k, c.value_of(&mut keys, ranks.distinct[j * n + k])?);
            }
        }
        // Paged columns, pool by pool: a batched pin addresses one pool, and
        // columns of a fragment share theirs.
        for lead in 0..m {
            let Source::Paged(first) = source(lead) else {
                continue;
            };
            let pool = &first.pool;
            let part = |j: usize| match source(j) {
                Source::Paged(c) if c.pool.same_pool(pool) => Some(c),
                _ => None,
            };
            if (0..lead).any(|j| part(j).is_some()) {
                continue; // resolved with an earlier column of its pool
            }
            decode_vids(pool, m, &part, &ranks.sorted, &mut ranks.vids, plan)?;
            for j in (0..m).filter(|&j| part(j).is_some()) {
                ranks.rank(j);
            }
            let ranks = &*ranks;
            values_by_vid_paged(
                pool,
                m,
                &part,
                |j| ranks.distinct(j),
                plan,
                |j, k, value| ranks.put(out, j, k, value),
            )?;
        }
        Ok(())
    }

    /// Heap bytes the buffers hold (their capacities). Every buffer is
    /// named: a field added to [`Plan`] or [`Ranks`] does not compile until
    /// it is counted here.
    fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            std::mem::size_of::<T>() * v.capacity()
        }
        let Scratch {
            plan: Plan { tasks, waves, preload, dict_pages, acc, raw, large, pieces },
            ranks: Ranks { n: _, sorted, order, vids, distinct, by_vid, ends, lens },
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
            + bytes(by_vid)
            + bytes(ends)
            + bytes(lens)
    }

    /// Ends a materialization, however it ended: drops the large entries
    /// (an error leaves their bytes behind), then frees every buffer when
    /// they hold more than [`SCRATCH_KEEP`].
    fn settle(&mut self) {
        self.plan.large.clear();
        self.plan.pieces.clear();
        if self.heap_bytes() > SCRATCH_KEEP {
            *self = Scratch::default();
        }
    }
}

/// Most heap bytes a thread keeps in its [`Scratch`] between
/// materializations: a point read's or a short range's plan stays, while a
/// large projection's is freed when it ends. The kept bytes are the
/// thread's, not a resource of the pool: resman does not charge them, so a
/// footprint leaves out up to this much per thread that has materialized.
const SCRATCH_KEEP: usize = 64 << 10;

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
/// (rows in phase (a), distinct identifiers after) live on page `key`.
struct PageTask {
    col: usize,
    key: PageKey,
    lo: usize,
    hi: usize,
}

/// Plans `col`'s pages for a phase: splits its `n` work items — whose page
/// numbers `page_of` yields in nondecreasing order — into one task per page,
/// addressed by `key_of`.
fn plan_pages(
    tasks: &mut Vec<PageTask>,
    col: usize,
    n: usize,
    page_of: impl Fn(usize) -> u64,
    key_of: impl Fn(u64) -> PageKey,
) {
    let mut lo = 0;
    while lo < n {
        let page = page_of(lo);
        let mut hi = lo + 1;
        while hi < n && page_of(hi) == page {
            hi += 1;
        }
        tasks.push(PageTask { col, key: key_of(page), lo, hi });
        lo = hi;
    }
}

/// Fills `sorted` with the rows in ascending order — page order within
/// each chain — and, when that is not the caller's order, `order` with the
/// caller's index of each (`order[k]` for the k-th smallest row); `order`
/// stays empty when the rows ascend.
fn ascending(rposs: &[u64], sorted: &mut Vec<u64>, order: &mut Vec<u32>) {
    sorted.clear();
    order.clear();
    if rposs.is_sorted() {
        sorted.extend_from_slice(rposs);
    } else {
        order.extend(0..rposs.len() as u32);
        order.sort_unstable_by_key(|&i| rposs[i as usize]);
        sorted.extend(order.iter().map(|&i| rposs[i as usize]));
    }
}

/// Identifiers → `(identifier, count)` pairs, ascending by identifier.
pub(crate) fn count_runs(mut vids: Vec<u64>) -> Vec<(u64, u64)> {
    vids.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for vid in vids {
        match runs.last_mut() {
            Some((last, count)) if *last == vid => *count += 1,
            _ => runs.push((vid, 1)),
        }
    }
    runs
}

/// Phase (a): data-vector pages → the identifier at every row of `sorted`
/// (ascending, non-empty) for each of the `m` columns `part` names: column
/// `j`'s identifiers go to `vids[j * n..][..n]` for the `n` rows. A column
/// whose rows are their identifiers pins nothing: the rows are copied.
/// Width-0 vectors have no pages; their identifiers stay 0.
fn decode_vids<'a>(
    pool: &BufferPool,
    m: usize,
    part: &impl Fn(usize) -> Option<&'a ColumnParts>,
    sorted: &[u64],
    vids: &mut [u64],
    plan: &mut Plan,
) -> CoreResult<()> {
    let n = sorted.len();
    let Plan { tasks, waves, .. } = plan;
    tasks.clear();
    for j in 0..m {
        let Some(c) = part(j) else { continue };
        if sorted[n - 1] >= c.len {
            return Err(CoreError::RowOutOfBounds { rpos: sorted[n - 1], len: c.len });
        }
        match &c.rows {
            StoredRows::Identity { .. } => vids[j * n..][..n].copy_from_slice(sorted),
            StoredRows::Plain { data, .. } => {
                let rows_per_page = data.rows_per_page();
                if rows_per_page > 0 {
                    let key_of = |page| data.page_key(page);
                    plan_pages(tasks, j, n, |k| sorted[k] / rows_per_page, key_of);
                }
            }
        }
    }
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            if let Some(StoredRows::Plain { data, .. }) = part(t.col).map(|c| &c.rows) {
                let out = &mut vids[t.col * n..][t.lo..t.hi];
                data.decode_on_page(page, &sorted[t.lo..t.hi], out);
            }
            Ok(())
        },
    )
}

/// Phase (a) of one paged column over rows in any order: its identifiers
/// at the rows in ascending order, handed to `f` with the caller's index of
/// each (see [`ascending`]).
fn with_vids_paged<R>(
    c: &ColumnParts,
    rposs: &[u64],
    f: impl FnOnce(Vec<u64>, &[u32]) -> R,
) -> CoreResult<R> {
    with_scratch(|Scratch { plan, ranks }| {
        ascending(rposs, &mut ranks.sorted, &mut ranks.order);
        let mut vids = vec![0; rposs.len()];
        decode_vids(&c.pool, 1, &|_| Some(c), &ranks.sorted, &mut vids, plan)?;
        Ok(f(vids, &ranks.order))
    })
}

/// [`ColumnRead::vid_counts`] of a paged column: phase (a), then the
/// identifiers sorted and run-length counted.
pub(crate) fn vid_counts_paged(c: &ColumnParts, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
    if rposs.is_empty() {
        return Ok(Vec::new());
    }
    with_vids_paged(c, rposs, |vids, _| count_runs(vids))
}

/// [`Column::encoded_rows`] of a paged column: phase (a) in waves, back in
/// the caller's row order, over the dictionary read in key order straight
/// from the store (`rposs` is not empty).
pub(crate) fn encoded_rows_paged(c: &ColumnParts, rposs: &[u64]) -> CoreResult<EncodedRows> {
    let vids = with_vids_paged(c, rposs, |vids, order| {
        if order.is_empty() {
            return vids;
        }
        let mut out = vec![0; vids.len()];
        for (&i, vid) in order.iter().zip(vids) {
            out[i as usize] = vid;
        }
        out
    })?;
    EncodedRows::new(c.dict.materialize_all_direct()?, vids)
}

/// [`ColumnRead::values_by_vid`] of a paged column: phases (b) and (c) of
/// the one column, each value written to its identifier's slot.
pub(crate) fn values_of_paged(c: &ColumnParts, vids: &[u64]) -> CoreResult<Vec<Value>> {
    let mut out = vec![Value::Integer(0); vids.len()];
    with_scratch(|s| {
        values_by_vid_paged(
            &c.pool,
            1,
            &|_| Some(c),
            |_| vids,
            &mut s.plan,
            |_, k, value| out[k] = value,
        )
    })?;
    Ok(out)
}

/// A large dictionary entry whose off-page pieces are still to be appended.
struct Large {
    col: usize,
    /// Index of the entry among the column's distinct identifiers.
    entry: usize,
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
/// helper-page and dictionary-page order. Each value is decoded once and
/// handed to `put` with its column and its index among the column's
/// identifiers.
pub(crate) fn values_by_vid_paged<'a, 'd>(
    pool: &BufferPool,
    m: usize,
    part: &impl Fn(usize) -> Option<&'a ColumnParts>,
    distinct: impl Fn(usize) -> &'d [u64],
    plan: &mut Plan,
    mut put: impl FnMut(usize, usize, Value),
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
    // identifier, for the dictionaries that route by helper — an array
    // dictionary's page is arithmetic, a one-page dictionary's is page 0.
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
                let (page_of, key_of) = (|k| b.vid_helper_page(d[k]), |hp| b.vid_helper_key(hp));
                plan_pages(tasks, j, d.len(), page_of, key_of);
                preload.extend(b.preload_pages());
                stride = stride.max(d.len());
            }
        }
    }
    // Column `j`'s dictionary pages are `[j * stride..][..distinct(j).len()]`.
    dict_pages.clear();
    dict_pages.resize(m * stride, 0);
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

    // Phase (c): dictionary pages → values. An array slot is the key,
    // decoded where it lies. A value-block entry that is whole on its page
    // is decoded to its value straight from two scratch buffers (the
    // entry's bytes, and their decompression when the chain is FSST-coded);
    // a large one keeps its bytes until its off-page pieces are appended, in
    // order. Each value goes to `put` as soon as it is whole.
    large.clear();
    pieces.clear();
    tasks.clear();
    for j in 0..m {
        let Some(c) = part(j) else { continue };
        let d = distinct(j);
        match c.dict.layout() {
            Layout::Array(a) => {
                plan_pages(tasks, j, d.len(), |k| a.page_of(d[k]), |page| a.page_key(page))
            }
            Layout::Blocks(b) => {
                let page_of = |k: usize| {
                    if b.routes_by_helper() {
                        dict_pages[j * stride + k]
                    } else {
                        0
                    }
                };
                plan_pages(tasks, j, d.len(), page_of, |page| b.dict_page_key(page))
            }
        }
    }
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            let Some(c) = part(t.col) else { return Ok(()) };
            let vids = &distinct(t.col)[t.lo..t.hi];
            let b = match c.dict.layout() {
                Layout::Array(a) => {
                    for (k, &vid) in (t.lo..t.hi).zip(vids) {
                        put(t.col, k, Value::from_key(c.data_type, a.slot(page, vid)?)?);
                    }
                    return Ok(());
                }
                Layout::Blocks(b) => b,
            };
            let view = b.page_view(page, t.key.page_no)?;
            for (k, &vid) in (t.lo..t.hi).zip(vids) {
                let (overflow, total) = view.read(vid, acc)?;
                if overflow.is_empty() {
                    b.finish_key(acc, total, raw)?;
                    put(t.col, k, Value::from_key(c.data_type, acc)?);
                } else {
                    pieces.extend(overflow.into_iter().map(|at| Piece {
                        large: large.len(),
                        key: b.overflow_key(&at),
                        at,
                    }));
                    large.push(Large { col: t.col, entry: k, bytes: acc.clone(), total });
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
    for mut l in large.drain(..) {
        let Some(c) = part(l.col) else { continue };
        if let Layout::Blocks(b) = c.dict.layout() {
            b.finish_key(&mut l.bytes, l.total, raw)?;
        }
        put(l.col, l.entry, Value::from_key(c.data_type, &l.bytes)?);
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
        (0..n).map(|_| Value::Varchar((0..40).map(|_| printable()).collect())).collect()
    }

    /// Every buffer of `scratch` with its capacity. Names each field, so a
    /// buffer added to [`Plan`] or [`Ranks`] must be added here too.
    fn capacities(scratch: &Scratch) -> [(&'static str, usize); 15] {
        let Scratch {
            plan: Plan { tasks, waves, preload, dict_pages, acc, raw, large, pieces },
            ranks: Ranks { n: _, sorted, order, vids, distinct, by_vid, ends, lens },
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
            ("by_vid", by_vid.capacity()),
            ("ends", ends.capacity()),
            ("lens", lens.capacity()),
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
            (0..n).map(|i| Value::Varchar(format!("material-{:05}", i * 7 % 331))).collect();
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
        let expect = |rows: &[Vec<Value>]| {
            for (row, &rpos) in rows.iter().zip(&rposs) {
                let want: Vec<Value> = which.iter().map(|&c| values[c][rpos as usize].clone()).collect();
                assert_eq!(row, &want, "row {rpos}");
            }
        };

        let mut scratch = Scratch::default();
        let mut rows = vec![vec![Value::Integer(0); which.len()]; rposs.len()];
        let source = |j: usize| Source::of(&columns[which[j]]);
        scratch.run(which.len(), source, &rposs, &mut Rows { rows: &mut rows, base: 0 }).unwrap();
        expect(&rows);
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
        let mut rows = vec![Vec::new(); rposs.len()];
        materialize(&columns, &which, &rposs, &mut rows).unwrap();
        expect(&rows);
        assert_eq!(kept(), 0, "a large projection's scratch is freed");
        let mut row = vec![Vec::new()];
        materialize(&columns, &which, &[700], &mut row).unwrap();
        assert_eq!(row[0][0], spilled[700]);
        assert!((1..=SCRATCH_KEEP).contains(&kept()), "a point read's plan stays");
        pool.assert_no_live_pins("large projection");
    }
}

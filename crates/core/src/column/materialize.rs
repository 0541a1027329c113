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
//!   identifiers plus the **rank** of each row's identifier among them
//!   ([`distinct_ranks`], for a projection);
//! * **sorted distinct identifiers → values** (phases (b) and (c),
//!   [`ColumnRead::values_by_vid`]) — every distinct value is decoded once.
//!
//! A projection then fans the values out by rank, one `clone` per row — or,
//! of a single row, hands each column's one identifier to the second half as
//! it is: nothing to sort, rank or fan out. Its plan lives in flat buffers:
//! identifiers, distinct lists, ranks and dictionary pages are one
//! `columns × rows` vector each, and one task list, one key vector and one
//! guard vector ([`Scratch`]) serve every phase and wave.
//! [`ColumnRead::get_values`] on a paged column is the one-column case of
//! the same code, and a point read its one-row case — there is no other
//! value path; the resident column runs the same two steps over its
//! in-memory image.

use super::paged::ColumnParts;
use super::{Column, ColumnRead, EncodedRows};
use crate::dict::{append_piece, Layout};
use crate::waves::Waves;
use crate::{CoreError, CoreResult, Value};
use payg_encoding::prefix::OverflowRef;
use payg_storage::{BufferPool, PageKey};
use std::borrow::Cow;

/// Materializes the values at `rposs` (any order, duplicates allowed) for
/// every column of `columns` — the columns of one fragment, sharing the row
/// positions. Returns one vector per column, each in `rposs` order. Paged
/// columns are resolved together, phase by phase (see the module docs);
/// resident columns answer from memory.
pub fn materialize(columns: &[&Column], rposs: &[u64]) -> CoreResult<Vec<Vec<Value>>> {
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(columns.len());
    let mut paged: Vec<(usize, &ColumnParts)> = Vec::new();
    for (i, column) in columns.iter().enumerate() {
        out.push(match column {
            Column::Resident(c) => c.get_values(rposs)?,
            Column::Paged(c) => {
                paged.push((i, c.parts()));
                Vec::new()
            }
        });
    }
    // A batched pin addresses one pool: columns of a fragment share theirs,
    // anything else is resolved pool by pool.
    while let Some(&(_, first)) = paged.first() {
        let (same, rest): (Vec<_>, Vec<_>) =
            paged.into_iter().partition(|(_, p)| p.pool.same_pool(&first.pool));
        let parts: Vec<&ColumnParts> = same.iter().map(|&(_, p)| p).collect();
        for (&(i, _), values) in same.iter().zip(materialize_paged(&first.pool, &parts, rposs)?) {
            out[i] = values;
        }
        paged = rest;
    }
    Ok(out)
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

/// The buffers one projection plans and pins with, reused across its phases
/// and waves: the page tasks of the phase being planned, and the keys and
/// guards of the wave being pinned.
#[derive(Default)]
pub(crate) struct Scratch {
    tasks: Vec<PageTask>,
    waves: Waves,
}

/// The rows in ascending order — page order within each chain — and, when
/// that is not the caller's order, `order[k]`: the caller's index of the k-th
/// smallest row.
fn ascending(rposs: &[u64]) -> (Cow<'_, [u64]>, Option<Vec<u32>>) {
    if rposs.is_sorted() {
        return (Cow::Borrowed(rposs), None);
    }
    let mut order: Vec<u32> = (0..rposs.len() as u32).collect();
    order.sort_unstable_by_key(|&i| rposs[i as usize]);
    let sorted = order.iter().map(|&i| rposs[i as usize]).collect();
    (Cow::Owned(sorted), Some(order))
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

/// Writes the distinct identifiers of `vids`, ascending, to the front of
/// `distinct` and returns how many there are; `rank[k]` becomes the rank of
/// `vids[k]` among them — recorded while the distinct list is built, so
/// fanning values out to rows is an array index per row, not a search. All
/// three slices have one length; `by_vid` is sorting room.
pub(crate) fn distinct_ranks(
    vids: &[u64],
    by_vid: &mut Vec<u32>,
    distinct: &mut [u64],
    rank: &mut [u32],
) -> usize {
    by_vid.clear();
    by_vid.extend(0..vids.len() as u32);
    by_vid.sort_unstable_by_key(|&k| vids[k as usize]);
    let mut len = 0;
    for &k in by_vid.iter() {
        let vid = vids[k as usize];
        if len == 0 || distinct[len - 1] != vid {
            distinct[len] = vid;
            len += 1;
        }
        rank[k as usize] = (len - 1) as u32;
    }
    len
}

/// Phase (a): data-vector pages → the identifier at every row of `sorted`
/// (ascending, non-empty), in one buffer: column `c`'s identifiers are
/// `[c * n..(c + 1) * n]` for the `n` rows. Width-0 vectors have no pages;
/// their identifiers are all 0.
fn decode_vids(
    pool: &BufferPool,
    cols: &[&ColumnParts],
    sorted: &[u64],
    scratch: &mut Scratch,
) -> CoreResult<Vec<u64>> {
    let n = sorted.len();
    for c in cols {
        if sorted[n - 1] >= c.len {
            return Err(CoreError::RowOutOfBounds { rpos: sorted[n - 1], len: c.len });
        }
    }
    let mut vids = vec![0u64; cols.len() * n];
    let Scratch { tasks, waves } = scratch;
    tasks.clear();
    for (ci, c) in cols.iter().enumerate() {
        let rows_per_page = c.data.rows_per_page();
        if rows_per_page > 0 {
            plan_pages(tasks, ci, n, |k| sorted[k] / rows_per_page, |page| c.data.page_key(page));
        }
    }
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            let out = &mut vids[t.col * n..][t.lo..t.hi];
            cols[t.col].data.decode_on_page(page, &sorted[t.lo..t.hi], out);
            Ok(())
        },
    )?;
    Ok(vids)
}

/// [`ColumnRead::vid_counts`] of a paged column: phase (a), then the
/// identifiers sorted and run-length counted.
pub(crate) fn vid_counts_paged(c: &ColumnParts, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
    if rposs.is_empty() {
        return Ok(Vec::new());
    }
    let (sorted, _) = ascending(rposs);
    Ok(count_runs(decode_vids(&c.pool, &[c], &sorted, &mut Scratch::default())?))
}

/// [`Column::encoded_rows`] of a paged column: phase (a) in waves, back in
/// the caller's row order, over the dictionary read in key order straight
/// from the store (`rposs` is not empty).
pub(crate) fn encoded_rows_paged(c: &ColumnParts, rposs: &[u64]) -> CoreResult<EncodedRows> {
    let (sorted, order) = ascending(rposs);
    let mut vids = decode_vids(&c.pool, &[c], &sorted, &mut Scratch::default())?;
    if let Some(order) = order {
        let ascending = std::mem::replace(&mut vids, vec![0; rposs.len()]);
        for (&i, vid) in order.iter().zip(ascending) {
            vids[i as usize] = vid;
        }
    }
    EncodedRows::new(c.dict.materialize_all_direct()?, vids)
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

/// Phases (b) and (c): the values of each column's `distinct` identifiers —
/// ascending and duplicate-free, which is helper-page and dictionary-page
/// order — one vector per column, in `distinct` order.
pub(crate) fn values_by_vid_paged(
    pool: &BufferPool,
    cols: &[&ColumnParts],
    distinct: &[&[u64]],
    scratch: &mut Scratch,
) -> CoreResult<Vec<Vec<Value>>> {
    for (c, d) in cols.iter().zip(distinct) {
        debug_assert!(d.windows(2).all(|w| w[0] < w[1]), "identifiers ascend strictly");
        if let Some(&last) = d.last() {
            c.dict.check_vid(last)?;
        }
    }
    let Scratch { tasks, waves } = scratch;

    // Phase (b): helper pages → dictionary page of every distinct
    // identifier, for the dictionaries that route by helper — an array
    // dictionary's page is arithmetic, a one-page dictionary's is page 0.
    // First touch of a dictionary preloads its helper chains (§3.2.3) —
    // except the pages the phase is about to pin anyway.
    tasks.clear();
    let mut preload: Vec<PageKey> = Vec::new();
    for (ci, c) in cols.iter().enumerate() {
        let d = distinct[ci];
        if let Layout::Blocks(b) = c.dict.layout() {
            if b.routes_by_helper() && !d.is_empty() {
                let (page_of, key_of) = (|k| b.vid_helper_page(d[k]), |hp| b.vid_helper_key(hp));
                plan_pages(tasks, ci, d.len(), page_of, key_of);
                preload.extend(b.preload_pages());
            }
        }
    }
    // Column `c`'s dictionary pages are `[c * stride..][..distinct[c].len()]`.
    let stride = distinct.iter().map(|d| d.len()).max().unwrap_or(0);
    let mut dict_pages = vec![0u64; if tasks.is_empty() { 0 } else { cols.len() * stride }];
    preload.retain(|key| !tasks.iter().any(|t| t.key == *key));
    waves.for_each_page(pool, &preload, |key| *key, |_, _| Ok(()))?;
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            if let Layout::Blocks(b) = cols[t.col].dict.layout() {
                for k in t.lo..t.hi {
                    dict_pages[t.col * stride + k] =
                        b.dict_page_on_helper(page, t.key.page_no, distinct[t.col][k]);
                }
            }
            Ok(())
        },
    )?;
    for t in tasks.iter() {
        if let Layout::Blocks(b) = cols[t.col].dict.layout() {
            b.preload_landed();
        }
    }

    // Phase (c): dictionary pages → values. An array slot is the key,
    // decoded where it lies. A value-block entry that is whole on its page
    // is decoded to its value straight from two scratch buffers (the
    // entry's bytes, and their decompression when the chain is FSST-coded);
    // a large one keeps its bytes until its off-page pieces are appended, in
    // order.
    let mut values: Vec<Vec<Value>> =
        distinct.iter().map(|d| Vec::with_capacity(d.len())).collect();
    let mut large: Vec<Large> = Vec::new();
    let mut pieces: Vec<Piece> = Vec::new();
    let (mut acc, mut raw): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
    tasks.clear();
    for (ci, c) in cols.iter().enumerate() {
        let d = distinct[ci];
        match c.dict.layout() {
            Layout::Array(a) => {
                plan_pages(tasks, ci, d.len(), |k| a.page_of(d[k]), |page| a.page_key(page))
            }
            Layout::Blocks(b) => {
                let page_of =
                    |k: usize| if b.routes_by_helper() { dict_pages[ci * stride + k] } else { 0 };
                plan_pages(tasks, ci, d.len(), page_of, |page| b.dict_page_key(page))
            }
        }
    }
    waves.for_each_page(
        pool,
        tasks,
        |t| t.key,
        |t, page| {
            let c = cols[t.col];
            let vids = &distinct[t.col][t.lo..t.hi];
            let b = match c.dict.layout() {
                Layout::Array(a) => {
                    for &vid in vids {
                        values[t.col].push(Value::from_key(c.data_type, a.slot(page, vid)?)?);
                    }
                    return Ok(());
                }
                Layout::Blocks(b) => b,
            };
            let view = b.page_view(page, t.key.page_no)?;
            for (k, &vid) in (t.lo..t.hi).zip(vids) {
                let (overflow, total) = view.read(vid, &mut acc)?;
                if overflow.is_empty() {
                    b.finish_key(&mut acc, total, &mut raw)?;
                    values[t.col].push(Value::from_key(c.data_type, &acc)?);
                } else {
                    pieces.extend(overflow.into_iter().map(|at| Piece {
                        large: large.len(),
                        key: b.overflow_key(&at),
                        at,
                    }));
                    large.push(Large { col: t.col, entry: k, bytes: acc.clone(), total });
                    // The slot is filled once the pieces are in.
                    values[t.col].push(Value::Varchar(String::new()));
                }
            }
            Ok(())
        },
    )?;
    waves.for_each_page(
        pool,
        &pieces,
        |p| p.key,
        |p, page| append_piece(&mut large[p.large].bytes, &p.at, page),
    )?;
    for mut l in large {
        let c = cols[l.col];
        if let Layout::Blocks(b) = c.dict.layout() {
            b.finish_key(&mut l.bytes, l.total, &mut raw)?;
        }
        values[l.col][l.entry] = Value::from_key(c.data_type, &l.bytes)?;
    }
    Ok(values)
}

/// The phased late materialization of paged columns sharing `pool`: rows →
/// identifiers, distinct identifiers → values, values → rows by rank.
pub(crate) fn materialize_paged(
    pool: &BufferPool,
    cols: &[&ColumnParts],
    rposs: &[u64],
) -> CoreResult<Vec<Vec<Value>>> {
    let n = rposs.len();
    if n == 0 {
        return Ok(cols.iter().map(|_| Vec::new()).collect());
    }
    let mut scratch = Scratch::default();
    let (sorted, order) = ascending(rposs);
    let vids = decode_vids(pool, cols, &sorted, &mut scratch)?;
    if n == 1 {
        // One row: every column's identifier is its own distinct list and
        // its value the column's answer — nothing to sort, rank or fan out.
        let distinct: Vec<&[u64]> = vids.chunks(1).collect();
        return values_by_vid_paged(pool, cols, &distinct, &mut scratch);
    }
    // Column `c`'s distinct identifiers are the first `lens[c]` of its `n`
    // slots of `distinct`; its rows' ranks are its `n` slots of `ranks`.
    let mut distinct = vec![0u64; vids.len()];
    let mut ranks = vec![0u32; vids.len()];
    let mut by_vid = Vec::with_capacity(n);
    let lens: Vec<usize> = vids
        .chunks(n)
        .zip(distinct.chunks_mut(n))
        .zip(ranks.chunks_mut(n))
        .map(|((vids, distinct), ranks)| distinct_ranks(vids, &mut by_vid, distinct, ranks))
        .collect();
    let distinct: Vec<&[u64]> =
        distinct.chunks(n).zip(&lens).map(|(distinct, &len)| &distinct[..len]).collect();
    let values = values_by_vid_paged(pool, cols, &distinct, &mut scratch)?;

    // Back to the caller's row order: `pos[i]` is where the caller's i-th
    // row sits in ascending order.
    let pos: Option<Vec<u32>> = order.map(|order| {
        let mut pos = vec![0u32; n];
        for (k, &i) in order.iter().enumerate() {
            pos[i as usize] = k as u32;
        }
        pos
    });
    Ok(values
        .iter()
        .zip(ranks.chunks(n))
        .map(|(values, rank)| match &pos {
            None => fan_out(values, rank.iter().copied()),
            Some(pos) => fan_out(values, pos.iter().map(|&k| rank[k as usize])),
        })
        .collect())
}

/// One value per rank: `values[r]` cloned for every `r` of `ranks`.
pub(crate) fn fan_out(values: &[Value], ranks: impl Iterator<Item = u32>) -> Vec<Value> {
    ranks.map(|r| values[r as usize].clone()).collect()
}

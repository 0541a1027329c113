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
//!   the first time are preloaded here, §3.2.3),
//! * **(c)** dictionary pages → keys, then the overflow pages of the large
//!   ones → values.
//!
//! Each phase plans its pages, pins them with
//! [`BufferPool::pin_many`] — the misses of a phase load as overlapped,
//! coalesced reads instead of serially — decodes straight from the returned
//! guards, and releases them before the next phase. This is the paper's
//! handle cache for batch lookups (§3.2.3) turned inside out: the pins of a
//! batch are taken together and held exactly as long as the batch reads
//! them. A phase larger than [`WAVE_PAGES`] is split into waves so the pins
//! a projection holds at once stay bounded whatever its width.
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
//! A projection then fans the values out by rank, one `clone` per row.
//! [`ColumnRead::get_values`] on a paged column is the one-column case of
//! the same code, and the resident column runs the same two steps over its
//! in-memory image.

use super::paged::ColumnParts;
use super::{Column, ColumnRead};
use crate::dict::append_piece;
use crate::{CoreError, CoreResult, Value};
use payg_encoding::prefix::OverflowRef;
use payg_storage::{BufferPool, PageGuard, PageKey};
use std::borrow::Cow;

/// Most pages one wave pins (and loads) at once. A constant, sized so that
/// at the default 4 KiB page a wave (128 KiB) is at most a quarter of a
/// half-MiB paged-pool lower limit — the smallest pool the experiments run —
/// while a whole phase of a point `SELECT *` over a few dozen columns still
/// fits two waves. (24 was measured ~10 % slower on `cold_pressure`, with
/// the same footprint peak.)
pub const WAVE_PAGES: usize = 32;

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
/// (rows in phase (a), distinct identifiers after) live on page `page`.
struct PageTask {
    col: usize,
    page: u64,
    lo: usize,
    hi: usize,
}

/// Plans `col`'s pages for a phase: splits its `n` work items — whose page
/// numbers `page_of` yields in nondecreasing order — into one task per page.
fn plan_pages(tasks: &mut Vec<PageTask>, col: usize, n: usize, page_of: impl Fn(usize) -> u64) {
    let mut lo = 0;
    while lo < n {
        let page = page_of(lo);
        let mut hi = lo + 1;
        while hi < n && page_of(hi) == page {
            hi += 1;
        }
        tasks.push(PageTask { col, page, lo, hi });
        lo = hi;
    }
}

/// Runs one phase: pins the pages of `tasks` in near-equal waves of at most
/// [`WAVE_PAGES`] and hands each pinned page to `step`. A wave's guards are
/// released before the next wave is pinned.
fn for_each_page<T>(
    pool: &BufferPool,
    tasks: &[T],
    key: impl Fn(&T) -> PageKey,
    mut step: impl FnMut(&T, &PageGuard) -> CoreResult<()>,
) -> CoreResult<()> {
    if tasks.is_empty() {
        return Ok(());
    }
    let per_wave = tasks.len().div_ceil(tasks.len().div_ceil(WAVE_PAGES));
    let mut keys = Vec::with_capacity(per_wave);
    for wave in tasks.chunks(per_wave) {
        keys.clear();
        keys.extend(wave.iter().map(&key));
        let guards = pool.pin_many(&keys);
        for (task, guard) in wave.iter().zip(guards) {
            step(task, &guard.map_err(CoreError::Storage)?)?;
        }
    }
    Ok(())
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

/// The distinct identifiers of `vids`, ascending, and for every position of
/// `vids` the rank of its identifier among them — recorded while the
/// distinct list is built, so fanning values out to rows is an array index
/// per row, not a search.
pub(crate) fn distinct_ranks(vids: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let mut by_vid: Vec<u32> = (0..vids.len() as u32).collect();
    by_vid.sort_unstable_by_key(|&k| vids[k as usize]);
    let mut distinct: Vec<u64> = Vec::new();
    let mut rank = vec![0u32; vids.len()];
    for k in by_vid {
        let vid = vids[k as usize];
        if distinct.last() != Some(&vid) {
            distinct.push(vid);
        }
        rank[k as usize] = (distinct.len() - 1) as u32;
    }
    (distinct, rank)
}

/// Phase (a): data-vector pages → the identifier at every row of `sorted`
/// (ascending, non-empty), per column. Width-0 vectors have no pages; their
/// identifiers are all 0.
fn decode_vids(
    pool: &BufferPool,
    cols: &[&ColumnParts],
    sorted: &[u64],
) -> CoreResult<Vec<Vec<u64>>> {
    let n = sorted.len();
    for c in cols {
        if sorted[n - 1] >= c.len {
            return Err(CoreError::RowOutOfBounds { rpos: sorted[n - 1], len: c.len });
        }
    }
    let mut vids: Vec<Vec<u64>> = cols.iter().map(|_| vec![0u64; n]).collect();
    let mut tasks: Vec<PageTask> = Vec::new();
    for (ci, c) in cols.iter().enumerate() {
        let rows_per_page = c.data.rows_per_page();
        if rows_per_page > 0 {
            plan_pages(&mut tasks, ci, n, |k| sorted[k] / rows_per_page);
        }
    }
    for_each_page(
        pool,
        &tasks,
        |t| cols[t.col].data.page_key(t.page),
        |t, page| {
            cols[t.col].data.decode_on_page(page, &sorted[t.lo..t.hi], &mut vids[t.col][t.lo..t.hi]);
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
    let vids = decode_vids(&c.pool, &[c], &sorted)?.pop().unwrap_or_default();
    Ok(count_runs(vids))
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
    col: usize,
    /// Index into the phase's large entries.
    large: usize,
    at: OverflowRef,
}

/// Phases (b) and (c): the values of each column's `distinct` identifiers —
/// ascending and duplicate-free, which is helper-page and dictionary-page
/// order — one vector per column, in `distinct` order.
pub(crate) fn values_by_vid_paged(
    pool: &BufferPool,
    cols: &[&ColumnParts],
    distinct: &[&[u64]],
) -> CoreResult<Vec<Vec<Value>>> {
    for (c, d) in cols.iter().zip(distinct) {
        debug_assert!(d.windows(2).all(|w| w[0] < w[1]), "identifiers ascend strictly");
        if let Some(&last) = d.last() {
            c.dict.check_vid(last)?;
        }
    }

    // Phase (b): helper pages → dictionary page of every distinct
    // identifier. First touch of a dictionary preloads its helper chains
    // (§3.2.3) — except the pages the phase is about to pin anyway.
    let mut dict_pages: Vec<Vec<u64>> = distinct.iter().map(|d| vec![0u64; d.len()]).collect();
    let mut tasks: Vec<PageTask> = Vec::new();
    for (ci, c) in cols.iter().enumerate() {
        let d = distinct[ci];
        plan_pages(&mut tasks, ci, d.len(), |k| c.dict.vid_helper_page(d[k]));
    }
    let mut preload: Vec<PageKey> = cols.iter().flat_map(|c| c.dict.take_preload()).collect();
    preload.retain(|key| !tasks.iter().any(|t| cols[t.col].dict.vid_helper_key(t.page) == *key));
    for_each_page(pool, &preload, |key| *key, |_, _| Ok(()))?;
    for_each_page(
        pool,
        &tasks,
        |t| cols[t.col].dict.vid_helper_key(t.page),
        |t, page| {
            for k in t.lo..t.hi {
                dict_pages[t.col][k] =
                    cols[t.col].dict.dict_page_on_helper(page, t.page, distinct[t.col][k]);
            }
            Ok(())
        },
    )?;

    // Phase (c): dictionary pages → values. An entry that is whole on its
    // page is decoded to its value straight from two scratch buffers (the
    // entry's bytes, and their decompression when the chain is FSST-coded);
    // a large one keeps its bytes until its off-page pieces are appended, in
    // order.
    let mut values: Vec<Vec<Value>> =
        distinct.iter().map(|d| Vec::with_capacity(d.len())).collect();
    let mut large: Vec<Large> = Vec::new();
    let mut pieces: Vec<Piece> = Vec::new();
    let (mut acc, mut raw): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
    tasks.clear();
    for (ci, pages) in dict_pages.iter().enumerate() {
        plan_pages(&mut tasks, ci, pages.len(), |k| pages[k]);
    }
    for_each_page(
        pool,
        &tasks,
        |t| cols[t.col].dict.dict_page_key(t.page),
        |t, page| {
            let c = cols[t.col];
            let view = c.dict.page_view(page, t.page)?;
            for (k, &vid) in (t.lo..t.hi).zip(&distinct[t.col][t.lo..t.hi]) {
                let (overflow, total) = view.read(vid, &mut acc)?;
                if overflow.is_empty() {
                    c.dict.finish_key(&mut acc, total, &mut raw)?;
                    values[t.col].push(Value::from_key(c.data_type, &acc)?);
                } else {
                    pieces.extend(
                        overflow.into_iter().map(|at| Piece { col: t.col, large: large.len(), at }),
                    );
                    large.push(Large { col: t.col, entry: k, bytes: acc.clone(), total });
                    // The slot is filled once the pieces are in.
                    values[t.col].push(Value::Varchar(String::new()));
                }
            }
            Ok(())
        },
    )?;
    for_each_page(
        pool,
        &pieces,
        |p| cols[p.col].dict.overflow_key(&p.at),
        |p, page| append_piece(&mut large[p.large].bytes, &p.at, page),
    )?;
    for mut l in large {
        let c = cols[l.col];
        c.dict.finish_key(&mut l.bytes, l.total, &mut raw)?;
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
    let (sorted, order) = ascending(rposs);
    let vids = decode_vids(pool, cols, &sorted)?;
    let (distinct, ranks): (Vec<Vec<u64>>, Vec<Vec<u32>>) =
        vids.iter().map(|v| distinct_ranks(v)).unzip();
    let distinct: Vec<&[u64]> = distinct.iter().map(Vec::as_slice).collect();
    let values = values_by_vid_paged(pool, cols, &distinct)?;
    if n == 1 {
        return Ok(values);
    }

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
        .zip(&ranks)
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

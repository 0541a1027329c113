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
//! [`ColumnRead::get_values`] on a paged column is the one-column case of
//! the same code.

use super::paged::ColumnParts;
use super::{Column, ColumnRead};
use crate::dict::DictEntry;
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

/// One off-page piece of a large dictionary entry still to be appended.
struct Piece {
    col: usize,
    /// Index of the entry among the column's distinct identifiers.
    entry: usize,
    at: OverflowRef,
}

/// The phased late materialization of paged columns sharing `pool`.
pub(crate) fn materialize_paged(
    pool: &BufferPool,
    cols: &[&ColumnParts],
    rposs: &[u64],
) -> CoreResult<Vec<Vec<Value>>> {
    let n = rposs.len();
    if n == 0 {
        return Ok(cols.iter().map(|_| Vec::new()).collect());
    }
    // Everything below works in ascending-row order (page order within each
    // chain); `order[k]` is the caller's index of the k-th smallest row.
    let order: Option<Vec<u32>> = (!rposs.is_sorted()).then(|| {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| rposs[i as usize]);
        order
    });
    let sorted: Cow<'_, [u64]> = match &order {
        None => Cow::Borrowed(rposs),
        Some(order) => Cow::Owned(order.iter().map(|&i| rposs[i as usize]).collect()),
    };
    for c in cols {
        if sorted[n - 1] >= c.len {
            return Err(CoreError::RowOutOfBounds { rpos: sorted[n - 1], len: c.len });
        }
    }

    // Phase (a): data-vector pages → identifiers (width-0 vectors have no
    // pages; their identifiers are all 0).
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

    // Each distinct identifier is looked up once, in ascending order —
    // which is helper-page and dictionary-page order.
    let distinct: Vec<Vec<u64>> = vids
        .iter()
        .map(|v| {
            let mut d = v.clone();
            if n > 1 {
                d.sort_unstable();
                d.dedup();
            }
            d
        })
        .collect();
    for (c, d) in cols.iter().zip(&distinct) {
        c.dict.check_vid(d[d.len() - 1])?;
    }

    // Phase (b): helper pages → dictionary page of every distinct
    // identifier. First touch of a dictionary preloads its helper chains
    // (§3.2.3) — except the pages the phase is about to pin anyway.
    let mut dict_pages: Vec<Vec<u64>> = distinct.iter().map(|d| vec![0u64; d.len()]).collect();
    tasks.clear();
    for (ci, c) in cols.iter().enumerate() {
        let d = &distinct[ci];
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

    // Phase (c): dictionary pages → entries, then the off-page pieces of
    // the large ones, appended in order.
    let mut entries: Vec<Vec<DictEntry>> =
        distinct.iter().map(|d| Vec::with_capacity(d.len())).collect();
    let mut pieces: Vec<Piece> = Vec::new();
    tasks.clear();
    for (ci, pages) in dict_pages.iter().enumerate() {
        plan_pages(&mut tasks, ci, pages.len(), |k| pages[k]);
    }
    for_each_page(
        pool,
        &tasks,
        |t| cols[t.col].dict.dict_page_key(t.page),
        |t, page| {
            for (k, &vid) in (t.lo..t.hi).zip(&distinct[t.col][t.lo..t.hi]) {
                let mut entry = cols[t.col].dict.entry_on_page(page, t.page, vid)?;
                pieces.extend(
                    std::mem::take(&mut entry.overflow)
                        .into_iter()
                        .map(|at| Piece { col: t.col, entry: k, at }),
                );
                entries[t.col].push(entry);
            }
            Ok(())
        },
    )?;
    for_each_page(
        pool,
        &pieces,
        |p| cols[p.col].dict.overflow_key(&p.at),
        |p, page| entries[p.col][p.entry].append_piece(&p.at, page),
    )?;

    // Back to the caller's row order.
    let sorted_pos: Option<Vec<u32>> = order.map(|order| {
        let mut pos = vec![0u32; n];
        for (k, &i) in order.iter().enumerate() {
            pos[i as usize] = k as u32;
        }
        pos
    });
    cols.iter()
        .zip(entries)
        .zip(vids.iter().zip(&distinct))
        .map(|((c, entries), (vids, distinct))| {
            let values: Vec<Value> = entries
                .into_iter()
                .map(|e| Value::from_key(c.data_type, &c.dict.finish_key(e)?))
                .collect::<CoreResult<_>>()?;
            if n == 1 {
                return Ok(values);
            }
            let value_at = |k: usize| values[distinct.partition_point(|&d| d < vids[k])].clone();
            Ok(match &sorted_pos {
                None => (0..n).map(value_at).collect(),
                Some(pos) => pos.iter().map(|&k| value_at(k as usize)).collect(),
            })
        })
        .collect()
}

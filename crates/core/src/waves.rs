//! Pinning a known page set in waves.
//!
//! A reader that knows its pages before it touches storage — a projection's
//! phase ([`crate::column::materialize`]), a scan's surviving pages
//! ([`crate::datavec::PagedDataVectorIterator`]) — pins them a **wave** at a
//! time through [`BufferPool::pin_many_into`]: the misses of a wave load as
//! overlapped, coalesced reads instead of serially, the reader works
//! straight from the returned guards, and the wave is released before the
//! next one is pinned, so the pins held at once stay bounded whatever the
//! size of the page set.

use crate::{CoreError, CoreResult};
use payg_storage::{BufferPool, PageGuard, PageKey, StorageResult};

/// Most pages one wave pins (and loads) at once. A constant, sized so that
/// at the default 4 KiB page a wave (128 KiB) is at most a quarter of a
/// half-MiB paged-pool lower limit — the smallest pool the experiments run —
/// while a whole phase of a point `SELECT *` over a few dozen columns still
/// fits two waves. (24 was measured ~10 % slower on `cold_pressure`, with
/// the same footprint peak.)
pub const WAVE_PAGES: usize = 32;

/// The key and guard buffers of the wave being pinned, reused from wave to
/// wave.
#[derive(Default)]
pub(crate) struct Waves {
    keys: Vec<PageKey>,
    guards: Vec<StorageResult<PageGuard>>,
}

impl Waves {
    /// Heap bytes of the two buffers (their capacities).
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<PageKey>() * self.keys.capacity()
            + std::mem::size_of::<StorageResult<PageGuard>>() * self.guards.capacity()
    }

    /// Pins the pages of `tasks` in near-equal waves of at most
    /// [`WAVE_PAGES`] and hands each pinned page to `step`, in task order. A
    /// wave's guards are released before the next wave is pinned. A page
    /// that fails to pin ends the run with its storage error: the tasks
    /// before it have been stepped, it and the ones after have not.
    pub(crate) fn for_each_page<T>(
        &mut self,
        pool: &BufferPool,
        tasks: &[T],
        key: impl Fn(&T) -> PageKey,
        mut step: impl FnMut(&T, &PageGuard) -> CoreResult<()>,
    ) -> CoreResult<()> {
        if tasks.is_empty() {
            return Ok(());
        }
        let per_wave = tasks.len().div_ceil(tasks.len().div_ceil(WAVE_PAGES));
        for wave in tasks.chunks(per_wave) {
            self.keys.clear();
            self.keys.extend(wave.iter().map(&key));
            pool.pin_many_into(&self.keys, &mut self.guards);
            // The drain releases every guard of the wave — stepped or, after
            // a failure, not — before the next wave is pinned.
            wave.iter()
                .zip(self.guards.drain(..))
                .try_for_each(|(task, guard)| step(task, &guard.map_err(CoreError::Storage)?))?;
        }
        Ok(())
    }
}

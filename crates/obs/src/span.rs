//! Hierarchical query spans — the flight-recorder half of the [`Tracer`].
//!
//! A [`Span`] is an RAII scope that records one timed region of a query:
//! the query itself, one worker's scan partition, a pin blocked behind an
//! in-flight load, one coalesced I/O batch, or one index traversal.
//! Span ids are allocated from the tracer's existing global sequence, so
//! ids, event sequence numbers, and I/O batch ids share one totally
//! ordered namespace. Opening a span on a disabled tracer is one relaxed
//! load returning a no-op guard — the same budget as [`Tracer::emit`].
//!
//! While a span is open it becomes the calling thread's *current* span:
//! every `Tracer::emit` on that thread tags its event with the span id, so
//! a drained event log can be grouped back under the query that caused it.
//! Crossing threads is explicit: capture a [`QueryCtx`] before spawning
//! and call [`QueryCtx::enter`] in the worker — thread locals do not
//! follow `std::thread::scope`.
//!
//! Closed spans land in a bounded side store on the tracer, *separate*
//! from the per-thread event rings. Events are high-rate and may be
//! overwritten under load; spans are low-rate (a handful per query), so
//! keeping them aside guarantees parent links stay resolvable even when
//! every event ring has wrapped.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::trace::Tracer;

/// Closed spans a tracer's side store holds before dropping new ones.
pub const SPAN_STORE_CAPACITY: usize = 65_536;

/// What a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One table query end to end.
    Query,
    /// One worker's partition of `par_count`, the split count behind
    /// `count_rows_par` — no query opens one (`detail` = first row).
    ScanPartition,
    /// A pin blocked behind another thread's in-flight load of the same
    /// page (`detail` = page number).
    PageWait,
    /// One coalesced physical read by the I/O stage (`detail` = pages
    /// covered). The span's id doubles as the batch id that
    /// `IoBatchIssued`/`IoCompleted` events carry in their `aux` field.
    IoBatch,
    /// One inverted-index traversal in a paged reader (`detail` = 1 for
    /// compressed-domain seeks, 0 for a decoded posting run).
    ChunkDispatch,
    /// One online delta merge of a partition (`detail` = partition index).
    Merge,
    /// A merge's freeze step: sealing the active delta and publishing the
    /// frozen version (`detail` = partition index).
    MergeFreeze,
    /// One column of a merge's side build: reading its encoded inputs,
    /// merging their dictionaries and writing its chains (`detail` = column
    /// index).
    MergeColumn,
    /// A merge's publish step: installing the new main, scheduling the old
    /// one's retirement and releasing the merged delta cells (`detail` =
    /// partition index).
    MergePublish,
}

impl SpanKind {
    /// Short stable name for rendering (text trees, Chrome traces).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::ScanPartition => "scan-partition",
            SpanKind::PageWait => "page-wait",
            SpanKind::IoBatch => "io-batch",
            SpanKind::ChunkDispatch => "chunk-dispatch",
            SpanKind::Merge => "merge",
            SpanKind::MergeFreeze => "merge-freeze",
            SpanKind::MergeColumn => "merge-column",
            SpanKind::MergePublish => "merge-publish",
        }
    }
}

/// One closed span: a timed region with a parent link into the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, allocated from the tracer's global sequence (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root span.
    pub parent: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Kind-specific payload (see [`SpanKind`]).
    pub detail: u64,
    /// Small per-thread ordinal (stable within the process) — lets
    /// exporters lane spans by thread without exposing OS thread ids.
    pub tid: u64,
    /// Nanoseconds since the tracer was created when the span opened.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created when the span closed.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall-clock duration of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// (tracer id, span id) of this thread's innermost open span.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((u64::MAX, 0)) };
    /// This thread's ordinal for span records (assigned on first span).
    static THREAD_ORD: Cell<u64> = const { Cell::new(0) };
}

fn thread_ordinal() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    THREAD_ORD.with(|c| {
        if c.get() == 0 {
            c.set(NEXT.get_or_init(|| AtomicU64::new(1)).fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// The calling thread's current span id for `tracer_id`, 0 when none or
/// when the innermost open span belongs to a different tracer.
pub(crate) fn current_for(tracer_id: u64) -> u64 {
    CURRENT.with(|c| {
        let (tid, span) = c.get();
        if tid == tracer_id {
            span
        } else {
            0
        }
    })
}

/// An open span scope. Dropping it closes the span: the record (with both
/// timestamps) lands in the tracer's side store and the thread's current
/// span reverts to whatever was active before. `#[must_use]` because a
/// span bound to `_` closes immediately and times nothing.
#[must_use = "binding a span to `_` drops it immediately and times nothing"]
#[derive(Debug)]
pub struct Span {
    /// `None` for the disabled-tracer no-op guard.
    tracer: Option<Tracer>,
    id: u64,
    parent: u64,
    /// The thread's previous `CURRENT` value, restored on drop.
    restore: (u64, u64),
    kind: SpanKind,
    detail: u64,
    start_ns: u64,
}

impl Span {
    /// The span's id (0 for the disabled no-op guard). Pass it across
    /// threads or into I/O requests to tag work with its originator.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn disabled() -> Span {
        Span {
            tracer: None,
            id: 0,
            parent: 0,
            restore: (u64::MAX, 0),
            kind: SpanKind::Query,
            detail: 0,
            start_ns: 0,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer.take() {
            CURRENT.with(|c| c.set(self.restore));
            let end_ns = tracer.now_ns();
            tracer.push_span(SpanRecord {
                id: self.id,
                parent: self.parent,
                kind: self.kind,
                detail: self.detail,
                tid: thread_ordinal(),
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// The query context carried across threads: the span id under which work
/// on another thread should parent itself. Capture it with
/// [`QueryCtx::current`] *before* spawning workers, move it into the
/// closure, and open child spans with [`QueryCtx::enter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCtx {
    span: u64,
}

impl QueryCtx {
    /// Captures the calling thread's current span for `tracer` (the
    /// no-op context when the tracer is disabled or no span is open).
    pub fn current(tracer: &Tracer) -> QueryCtx {
        QueryCtx { span: tracer.current_span() }
    }

    /// A context with no parent — children opened through it are roots.
    pub fn root() -> QueryCtx {
        QueryCtx { span: 0 }
    }

    /// The captured span id (0 = none).
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Opens a child span parented to the captured span, making it the
    /// calling thread's current span for the guard's lifetime.
    pub fn enter(&self, tracer: &Tracer, kind: SpanKind, detail: u64) -> Span {
        tracer.span_with_parent(kind, self.span, detail)
    }
}

impl Tracer {
    /// Opens a span parented to the calling thread's current span. When
    /// the tracer is disabled this is one relaxed load returning a no-op
    /// guard (id 0), matching the [`Tracer::emit`] budget.
    pub fn span(&self, kind: SpanKind, detail: u64) -> Span {
        if !self.enabled() {
            return Span::disabled();
        }
        let parent = current_for(self.tracer_id());
        self.open_span(kind, parent, detail)
    }

    /// Opens a span with an explicit parent id (0 = root) — the
    /// cross-thread form: the parent was captured on another thread via
    /// [`Span::id`] or [`QueryCtx`].
    pub fn span_with_parent(&self, kind: SpanKind, parent: u64, detail: u64) -> Span {
        if !self.enabled() {
            return Span::disabled();
        }
        self.open_span(kind, parent, detail)
    }

    fn open_span(&self, kind: SpanKind, parent: u64, detail: u64) -> Span {
        // Ids come from the shared event sequence; skip 0, which means
        // "no span" in event tags and parent links.
        let mut id = self.alloc_seq();
        if id == 0 {
            id = self.alloc_seq();
        }
        let restore = CURRENT.with(|c| c.replace((self.tracer_id(), id)));
        Span {
            tracer: Some(self.clone()),
            id,
            parent,
            restore,
            kind,
            detail,
            start_ns: self.now_ns(),
        }
    }

    /// The calling thread's current span id for this tracer (0 when the
    /// tracer is disabled or no span is open). Use this to tag work
    /// handed to other threads (I/O requests, batch completions).
    pub fn current_span(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        current_for(self.tracer_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    #[test]
    fn disabled_span_is_noop() {
        let t = Tracer::new();
        let s = t.span(SpanKind::Query, 0);
        assert_eq!(s.id(), 0);
        drop(s);
        assert!(t.drain_spans().is_empty());
        assert_eq!(t.current_span(), 0);
    }

    #[test]
    fn nesting_sets_parents_and_restores_current() {
        let t = Tracer::new();
        t.enable();
        let q = t.span(SpanKind::Query, 0);
        let qid = q.id();
        assert_eq!(t.current_span(), qid);
        {
            let p = t.span(SpanKind::ScanPartition, 7);
            assert_eq!(t.current_span(), p.id());
            let w = t.span(SpanKind::PageWait, 3);
            drop(w);
            assert_eq!(t.current_span(), p.id(), "drop restores the parent scope");
        }
        assert_eq!(t.current_span(), qid);
        drop(q);
        assert_eq!(t.current_span(), 0);

        let spans = t.drain_spans();
        assert_eq!(spans.len(), 3);
        let query = spans.iter().find(|s| s.kind == SpanKind::Query).unwrap();
        let part = spans.iter().find(|s| s.kind == SpanKind::ScanPartition).unwrap();
        let wait = spans.iter().find(|s| s.kind == SpanKind::PageWait).unwrap();
        assert_eq!(query.parent, 0);
        assert_eq!(part.parent, query.id);
        assert_eq!(wait.parent, part.id);
        assert_eq!(part.detail, 7);
        assert!(wait.start_ns >= part.start_ns);
        assert!(query.end_ns >= part.end_ns);
        assert!(t.drain_spans().is_empty(), "drain empties the store");
    }

    #[test]
    fn events_are_tagged_with_the_current_span() {
        let t = Tracer::new();
        t.enable();
        let q = t.span(SpanKind::Query, 0);
        t.emit(EventKind::PagePinned, 1, 2, 0);
        drop(q);
        t.emit(EventKind::PagePinned, 1, 3, 0);
        let evs = t.drain();
        assert_eq!(evs.len(), 2);
        assert_ne!(evs[0].span, 0, "emit inside a span carries its id");
        assert_eq!(evs[1].span, 0, "emit outside any span is untagged");
    }

    #[test]
    fn query_ctx_carries_parent_across_threads() {
        let t = Tracer::new();
        t.enable();
        let q = t.span(SpanKind::Query, 0);
        let ctx = QueryCtx::current(&t);
        assert_eq!(ctx.span(), q.id());
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    assert_eq!(t.current_span(), 0, "thread locals do not cross threads");
                    let s = ctx.enter(&t, SpanKind::ScanPartition, i);
                    t.emit(EventKind::PagePinned, 0, i, 0);
                    drop(s);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let qid = q.id();
        drop(q);
        let spans = t.drain_spans();
        let parts: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::ScanPartition).collect();
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|s| s.parent == qid));
        let evs = t.drain();
        assert!(evs.iter().all(|e| parts.iter().any(|s| s.id == e.span)));
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let t = Tracer::new();
        t.enable();
        for _ in 0..8 {
            let s = t.span(SpanKind::ChunkDispatch, 0);
            assert_ne!(s.id(), 0);
        }
        let spans = t.drain_spans();
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn two_tracers_keep_separate_current_spans() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.enable();
        b.enable();
        let sa = a.span(SpanKind::Query, 0);
        assert_eq!(b.current_span(), 0, "b's events must not adopt a's span");
        b.emit(EventKind::PagePinned, 0, 0, 0);
        assert_eq!(b.drain()[0].span, 0);
        drop(sa);
    }
}

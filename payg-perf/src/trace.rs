//! Benchmark-side spans: recorded around the calls into each layer, kept in
//! memory, written out when the run ends.
//!
//! A client op is the tree `op` → `table.session_open` / `table.execute`;
//! `store.read` / `store.append` spans come from [`crate::probe_store`] and
//! run on whatever thread made the call — usually an I/O-stage worker, so
//! they carry no parent and are attributed to the wall clock through
//! [`union_ns`] instead. A span's self time is its duration minus the part
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped, never grown into.
pub const SPAN_CAP: usize = 60_000;

/// One timed interval. `id == 0` marks a parentless store span; client spans
/// number from 1 and share `op` across one request's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (unique among client spans; 0 for store spans).
    pub id: u32,
    /// Parent span id, 0 for none.
    pub parent: u32,
    /// The op (request) this span belongs to, 0 for none.
    pub op: u32,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Small per-thread ordinal.
    pub thread: u32,
    /// Start, ns since the run's clock epoch.
    pub start_ns: u64,
    /// End, ns since the run's clock epoch.
    pub end_ns: u64,
}

/// The run's time base, shared by client and store spans.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// `at` as ns since the epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.0).as_nanos() as u64
    }
}

/// A small stable ordinal for the calling thread.
pub fn thread_no() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NO.with(|n| *n)
}

/// The in-memory span buffer of one run.
#[derive(Default)]
pub struct TraceBuf {
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
    next_id: u32,
    next_op: u32,
}

impl TraceBuf {
    /// Records one client op as its three-span tree.
    pub fn op(&mut self, clock: &Clock, t: [Instant; 4]) {
        if self.spans.len() + 3 > SPAN_CAP {
            self.dropped += 3;
            return;
        }
        self.next_op += 1;
        let (op, thread, root) = (self.next_op, thread_no(), self.next_id + 1);
        self.next_id += 3;
        let ns = t.map(|at| clock.ns(at));
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op,
            name,
            thread,
            start_ns,
            end_ns,
        };
        self.spans.push(span(root, 0, "op", ns[0], ns[3]));
        self.spans
            .push(span(root + 1, root, "table.session_open", ns[0], ns[1]));
        self.spans
            .push(span(root + 2, root, "table.execute", ns[1], ns[2]));
    }

    /// Appends parentless spans (from the store), up to the cap.
    pub fn extend(&mut self, spans: Vec<Span>) {
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.dropped += spans.len().saturating_sub(room) as u64;
        self.spans.extend(spans.into_iter().take(room));
    }
}

/// Total self time per span name: duration minus covered child time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = if s.id == 0 {
            0
        } else {
            child_ns.get(&s.id).copied().unwrap_or(0)
        };
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Length of the union of `[start, end)` intervals — the wall-clock time
/// during which at least one of them was open.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut open_until) = (0u64, 0u64);
    for (start, end) in intervals {
        let start = start.max(open_until);
        if end > start {
            total += end - start;
            open_until = end;
        }
    }
    total
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, buf: &TraceBuf) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"dropped\":{},\"self_ns\":{{",
        buf.dropped
    )?;
    let selfs = self_times(&buf.spans);
    for (i, (name, ns)) in selfs.iter().enumerate() {
        writeln!(w, "{}\"{name}\":{ns}", if i == 0 { "" } else { "," })?;
    }
    writeln!(w, "}},\"spans\":[")?;
    for (i, s) in buf.spans.iter().enumerate() {
        writeln!(
            w,
            "{}{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            s.id, s.parent, s.op, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_union_merges_overlaps() {
        let sp = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op: 1,
            name,
            thread: 1,
            start_ns,
            end_ns,
        };
        let spans = [
            sp(1, 0, "op", 0, 100),
            sp(2, 1, "a", 0, 30),
            sp(3, 1, "b", 30, 90),
            sp(0, 0, "io", 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!((st["op"], st["a"], st["b"], st["io"]), (10, 30, 60, 10));
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40), (32, 35)]), 30);
    }
}

//! EXPLAIN ANALYZE: the static scan plan annotated with what actually
//! happened, reconstructed from the query flight recorder.
//!
//! [`Table::explain_analyze`] runs a query with the pool's [`payg_obs::Tracer`]
//! enabled, under a fresh `query` span. Afterwards it drains the recorder and
//! folds three sources into one report:
//!
//! * the **static plan** — [`Table::scan_plan`] as it stood before execution
//!   (per-partition [`ScanPath`]), annotated per store chain with the pins,
//!   cold loads, waits, I/O traffic and retries the chain actually saw;
//! * the **span tree** — query → page-wait / io-batch / chunk-dispatch, each
//!   with wall-clock nanoseconds and a thread lane;
//! * **page provenance** — which I/O batches this query *initiated* (the
//!   `IoBatchIssued` event's span belongs to the query tree) versus merely
//!   *joined* (its pages rode a coalesced read another query started).
//!
//! The report renders as a text tree ([`ExplainAnalyze::to_text`]), as JSON
//! ([`ExplainAnalyze::to_json`]), and as a Chrome `trace_event` array
//! ([`ExplainAnalyze::to_chrome_trace`]) loadable in `about://tracing`.
//!
//! The recorder is drained on entry and read back on exit, so the report is
//! exact when nothing else drives the same pool concurrently — the same
//! exclusivity [`Table::execute_profiled`] already assumes. The tracer's
//! previous enabled state is restored on return, success or error.

use crate::query::{Query, QueryResult};
use crate::table::Table;
use crate::TableResult;
use payg_core::ScanPath;
use payg_obs::{names, EventKind, ObsSnapshot, PageEvent, ScanProfile, SpanKind, SpanRecord};
use std::collections::{BTreeMap, HashSet};

/// What one store chain actually did during the measured execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainActuals {
    /// The store chain id.
    pub chain: u64,
    /// Pool pins handed out for this chain's pages (`PagePinned`).
    pub pins: u64,
    /// Pages read from the store (`PageLoaded`) — the cold half.
    pub cold_loads: u64,
    /// Pins that blocked behind another thread's in-flight load.
    pub waits: u64,
    /// Fetch requests submitted to the cold-path I/O stage.
    pub io_submitted: u64,
    /// Fetch requests the I/O stage completed.
    pub io_completed: u64,
    /// Load attempts re-issued after a transient fault.
    pub retries: u64,
}

impl ChainActuals {
    /// Pins served by an already-resident frame: pins that neither loaded
    /// nor waited (saturating — a pin both waits and is counted once).
    pub fn warm_pins(&self) -> u64 {
        self.pins.saturating_sub(self.cold_loads + self.waits)
    }

    fn is_zero(&self) -> bool {
        self.pins == 0
            && self.cold_loads == 0
            && self.waits == 0
            && self.io_submitted == 0
            && self.io_completed == 0
            && self.retries == 0
    }
}

/// One chain of one column in the annotated plan.
#[derive(Debug, Clone)]
pub struct ChainExplain {
    /// The column the chain belongs to.
    pub column: String,
    /// The chain's role within the column (`data`, `dict*`, `index`).
    pub role: &'static str,
    /// What the chain actually did.
    pub actuals: ChainActuals,
}

/// One partition of the annotated plan.
#[derive(Debug, Clone)]
pub struct PartitionExplain {
    /// Partition ordinal.
    pub partition: usize,
    /// The static scan path [`Table::scan_plan`] chose before execution.
    pub path: ScanPath,
    /// Chains with observed activity (the filter column's chains are always
    /// listed, active or not, so a fully-pruned partition is visible).
    pub chains: Vec<ChainExplain>,
}

/// The full EXPLAIN ANALYZE report. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// Static plan, one entry per partition, annotated with actuals.
    pub partitions: Vec<PartitionExplain>,
    /// The registry-delta profile of the execution (pages pinned, pruned,
    /// chunks, kernel dispatch width, cold/warm split, io-stage batching).
    pub profile: ScanProfile,
    /// Every span the recorder closed during execution, sorted by id.
    pub spans: Vec<SpanRecord>,
    /// The root `query` span's id.
    pub root: u64,
    /// Every page event the recorder captured during execution, in global
    /// order.
    pub events: Vec<PageEvent>,
    /// I/O batches whose physical read this query's tree initiated.
    pub batches_initiated: u64,
    /// Distinct I/O batches this query's pages rode without initiating
    /// (coalesced reads started on behalf of other work).
    pub batches_joined: u64,
    /// The registry delta spanning the execution (for reconciliation).
    pub delta: ObsSnapshot,
}

impl ExplainAnalyze {
    /// Span ids reachable from the root `query` span (the query's tree).
    /// Spans are id-sorted and parents allocate before children, so one
    /// forward pass resolves the whole tree.
    pub fn tree(&self) -> HashSet<u64> {
        let mut tree = HashSet::new();
        tree.insert(self.root);
        for s in &self.spans {
            if s.parent != 0 && tree.contains(&s.parent) {
                tree.insert(s.id);
            }
        }
        tree
    }

    /// Checks the drained events against the registry delta: every traced
    /// occurrence must reconcile 1:1 with the counter that measures it.
    /// Returns the first mismatch as `Err` — exact only when nothing else
    /// drove the pool during the measured window.
    pub fn check_consistency(&self) -> Result<(), String> {
        let count = |k: EventKind| self.events.iter().filter(|e| e.kind == k).count() as u64;
        let checks = [
            (names::POOL_LOADS, count(EventKind::PageLoaded)),
            (names::POOL_LOAD_WAITS, count(EventKind::SingleFlightWait)),
            (names::POOL_LOAD_RETRIES, count(EventKind::LoadRetried)),
            (names::POOL_IO_SUBMITTED, count(EventKind::IoSubmitted)),
            (names::POOL_IO_COMPLETIONS, count(EventKind::IoCompleted)),
            // Every physical read is either a coalesced batch or a retry's
            // solo re-read.
            (
                names::POOL_IO_PHYSICAL_READS,
                count(EventKind::IoBatchIssued) + count(EventKind::LoadRetried),
            ),
            (names::POOL_QUARANTINE_INSERTS, count(EventKind::PageQuarantined)),
        ];
        for (name, traced) in checks {
            let counted = self.delta.counter(name);
            if counted != traced {
                return Err(format!("{name}: registry delta {counted} != {traced} traced events"));
            }
        }
        Ok(())
    }

    /// Renders the report as a text tree (plan first, then the span tree).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let p = &self.profile;
        out.push_str(&format!(
            "EXPLAIN ANALYZE  wall={}  cold={} warm={} pruned={} chunks={} matches={}\n",
            fmt_ns(p.elapsed_ns),
            p.cold_loads,
            p.warm_hits,
            p.pages_pruned,
            p.chunks_scanned,
            p.bitmap_matches
        ));
        for part in &self.partitions {
            out.push_str(&format!(
                "├─ partition {}: path={:?} kernel_width={}\n",
                part.partition, part.path, self.profile.dispatch_width
            ));
            for (i, c) in part.chains.iter().enumerate() {
                let branch = if i + 1 == part.chains.len() { "└─" } else { "├─" };
                let a = &c.actuals;
                out.push_str(&format!(
                    "│   {branch} {}/{} chain#{}: pins={} cold={} warm={} waits={} \
                     io_sub={} io_done={} retries={}\n",
                    c.column,
                    c.role,
                    a.chain,
                    a.pins,
                    a.cold_loads,
                    a.warm_pins(),
                    a.waits,
                    a.io_submitted,
                    a.io_completed,
                    a.retries
                ));
            }
        }
        out.push_str(&format!(
            "├─ io: batches initiated={} joined={} coalesced_pages={}\n",
            self.batches_initiated, self.batches_joined, p.io_coalesced_pages
        ));
        out.push_str("└─ spans:\n");
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push(s);
        }
        if let Some(roots) = children.get(&self.root).cloned() {
            if let Some(root) = self.spans.iter().find(|s| s.id == self.root) {
                out.push_str(&format!("   └─ {}\n", fmt_span(root)));
                render_spans(&mut out, &children, &roots, "      ");
            }
        } else if let Some(root) = self.spans.iter().find(|s| s.id == self.root) {
            out.push_str(&format!("   └─ {}\n", fmt_span(root)));
        }
        out
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        for part in &self.partitions {
            let chains: Vec<String> = part
                .chains
                .iter()
                .map(|c| {
                    let a = &c.actuals;
                    format!(
                        "{{\"column\": \"{}\", \"role\": \"{}\", \"chain\": {}, \
                         \"pins\": {}, \"cold_loads\": {}, \"warm_pins\": {}, \"waits\": {}, \
                         \"io_submitted\": {}, \"io_completed\": {}, \"retries\": {}}}",
                        c.column,
                        c.role,
                        a.chain,
                        a.pins,
                        a.cold_loads,
                        a.warm_pins(),
                        a.waits,
                        a.io_submitted,
                        a.io_completed,
                        a.retries
                    )
                })
                .collect();
            parts.push(format!(
                "{{\"partition\": {}, \"path\": \"{:?}\", \"chains\": [{}]}}",
                part.partition,
                part.path,
                chains.join(", ")
            ));
        }
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"kind\": \"{}\", \"detail\": {}, \
                     \"tid\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent,
                    s.kind.name(),
                    s.detail,
                    s.tid,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"plan\": [{}], \"profile\": {}, \
             \"io\": {{\"batches_initiated\": {}, \"batches_joined\": {}}}, \
             \"root\": {}, \"spans\": [{}]}}",
            parts.join(", "),
            self.profile.to_json(),
            self.batches_initiated,
            self.batches_joined,
            self.root,
            spans.join(", ")
        )
    }

    /// Renders the span tree as a Chrome `trace_event` JSON array —
    /// complete (`"ph": "X"`) events laned by thread ordinal, timestamps
    /// in microseconds. Save to a file and open in `about://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"payg\", \"ph\": \"X\", \
                     \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"id\": {}, \"parent\": {}, \"detail\": {}}}}}",
                    s.kind.name(),
                    s.start_ns / 1_000,
                    s.start_ns % 1_000,
                    s.duration_ns() / 1_000,
                    s.duration_ns() % 1_000,
                    s.tid,
                    s.id,
                    s.parent,
                    s.detail
                )
            })
            .collect();
        format!("[{}]", events.join(", "))
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{}.{:02}ms", ns / 1_000_000, (ns % 1_000_000) / 10_000)
    } else {
        format!("{}.{:01}us", ns / 1_000, (ns % 1_000) / 100)
    }
}

fn fmt_span(s: &SpanRecord) -> String {
    format!("{}({}) {} [t{}]", s.kind.name(), s.detail, fmt_ns(s.duration_ns()), s.tid)
}

fn render_spans(
    out: &mut String,
    children: &BTreeMap<u64, Vec<&SpanRecord>>,
    nodes: &[&SpanRecord],
    indent: &str,
) {
    for (i, s) in nodes.iter().enumerate() {
        let last = i + 1 == nodes.len();
        out.push_str(&format!("{indent}{} {}\n", if last { "└─" } else { "├─" }, fmt_span(s)));
        if let Some(kids) = children.get(&s.id) {
            let deeper = format!("{indent}{}", if last { "   " } else { "│  " });
            render_spans(out, children, kids, &deeper);
        }
    }
}

impl Table {
    /// Executes `q` with the flight recorder on and returns the result
    /// alongside the full [`ExplainAnalyze`] report. The pool's tracer is
    /// drained on entry (stale events from earlier work are discarded) and
    /// its enabled state is restored on return. Exact when nothing else
    /// drives the same pool concurrently.
    pub fn explain_analyze(&self, q: &Query) -> TableResult<(QueryResult, ExplainAnalyze)> {
        // One snapshot for the whole report: the plan, the execution and
        // the annotation all see the same pinned version even when a merge
        // publishes mid-run.
        let session = self.session()?;
        // The plan as it stands *before* execution.
        let plan = session.scan_plan(q)?;
        let tracer = self.registry().tracer().clone();
        let was_enabled = tracer.enabled();
        tracer.drain();
        tracer.drain_spans();
        tracer.enable();

        let before = ObsSnapshot::collect(self.registry());
        let started = std::time::Instant::now();
        let root_span = tracer.span(SpanKind::Query, 0);
        let root = root_span.id();
        let result = session.execute(q);
        drop(root_span);
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let after = ObsSnapshot::collect(self.registry());

        if !was_enabled {
            tracer.disable();
        }
        let events = tracer.drain();
        let spans = tracer.drain_spans();
        let result = result?;

        let delta = ObsSnapshot::delta(&after, &before);
        let mut profile = ScanProfile::from_delta(&delta);
        profile.elapsed_ns = elapsed_ns;

        let mut report = ExplainAnalyze {
            partitions: Vec::new(),
            profile,
            spans,
            root,
            events,
            batches_initiated: 0,
            batches_joined: 0,
            delta,
        };

        // Provenance: a batch is *initiated* by this query when the
        // IoBatchIssued event is tagged with a span in the query's tree,
        // *joined* when our completions name a batch issued outside it.
        let tree = report.tree();
        let issued_here: HashSet<u64> = report
            .events
            .iter()
            .filter(|e| e.kind == EventKind::IoBatchIssued && tree.contains(&e.span))
            .map(|e| e.aux)
            .collect();
        report.batches_initiated = issued_here.len() as u64;
        report.batches_joined = report
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::IoCompleted
                    && tree.contains(&e.span)
                    && e.aux != 0
                    && !issued_here.contains(&e.aux)
            })
            .map(|e| e.aux)
            .collect::<HashSet<u64>>()
            .len() as u64;

        // Per-chain actuals, grouped straight off the event log.
        let mut by_chain: BTreeMap<u64, ChainActuals> = BTreeMap::new();
        for e in &report.events {
            let a = by_chain.entry(e.chain).or_insert(ChainActuals {
                chain: e.chain,
                ..ChainActuals::default()
            });
            match e.kind {
                EventKind::PagePinned => a.pins += 1,
                EventKind::PageLoaded => a.cold_loads += 1,
                EventKind::SingleFlightWait => a.waits += 1,
                EventKind::IoSubmitted => a.io_submitted += 1,
                EventKind::IoCompleted => a.io_completed += 1,
                EventKind::LoadRetried => a.retries += 1,
                _ => {}
            }
        }

        // Annotate the static plan: every active chain of every column,
        // plus the filter column's chains even when idle (a fully-pruned
        // or quarantine-skipped partition should still show its plan row).
        let filter_col = match &q.filter {
            Some((name, _)) => Some(self.schema().column_index(name)?),
            None => None,
        };
        for (pi, p) in session.partitions().iter().enumerate() {
            let mut chains = Vec::new();
            for (ci, spec) in self.schema().columns().iter().enumerate() {
                for (role, chain) in p.main_frag().column(ci).chains() {
                    let actuals = by_chain
                        .get(&chain)
                        .copied()
                        .unwrap_or(ChainActuals { chain, ..ChainActuals::default() });
                    if Some(ci) == filter_col || !actuals.is_zero() {
                        chains.push(ChainExplain { column: spec.name.clone(), role, actuals });
                    }
                }
            }
            report.partitions.push(PartitionExplain { partition: pi, path: plan[pi], chains });
        }

        Ok((result, report))
    }
}

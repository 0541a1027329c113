//! EXPLAIN ANALYZE: the static scan plan annotated with what actually
//! happened, folded from the query's own span tree.
//!
//! [`Table::explain_analyze`] runs a query under a fresh `query` span while
//! it holds a [`payg_obs::Recording`] on the pool's tracer. Afterwards it
//! takes out that span's tree — the closed spans under the root and the
//! events tagged with any of them ([`payg_obs::Tracer::take_tree`]) — and
//! folds every number of the report from it:
//!
//! * the **static plan** — [`crate::Snapshot::scan_plan`] as it stood before execution
//!   (per-partition [`ScanPath`]), annotated per store chain with the pins,
//!   cold loads, waits, I/O traffic and retries the chain actually saw, and
//!   with the bit width the scan kernel ran at;
//! * the **scan work** — pages pruned by their summaries, chunks scanned
//!   and matches, from the data-vector scans' `DataScan` events;
//! * the **span tree** — query → page-wait / io-batch / chunk-dispatch, each
//!   with wall-clock nanoseconds and a thread lane (the root's duration is
//!   the report's wall time);
//! * **page provenance** — which I/O batches this query *initiated* (the
//!   `IoBatchIssued` event's span belongs to the query tree) versus merely
//!   *joined* (its pages rode a coalesced read another query started).
//!
//! Nothing outside the tree enters the report and nothing outside it leaves
//! the tracer, so the report is exact while other sessions drive the same
//! pool, drain the tracer themselves or run their own `explain_analyze`.
//! The recording ends when the call returns, success or error, and never
//! touches the tracer's user flag.
//!
//! The report renders as a text tree ([`ExplainAnalyze::to_text`]), as JSON
//! ([`ExplainAnalyze::to_json`]), and as a Chrome `trace_event` array
//! ([`ExplainAnalyze::to_chrome_trace`]) loadable in `about://tracing`.

use crate::query::{Query, QueryResult};
use crate::table::Table;
use crate::TableResult;
use payg_core::column::ColumnRead;
use payg_core::ScanPath;
use payg_encoding::BitWidth;
use payg_obs::{names, EventKind, ObsSnapshot, PageEvent, SpanKind, SpanRecord};
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

    /// Counts one event of `kind` (kinds that are not a chain's pool
    /// traffic are ignored).
    fn add(&mut self, kind: EventKind) {
        match kind {
            EventKind::PagePinned => self.pins += 1,
            EventKind::PageLoaded => self.cold_loads += 1,
            EventKind::SingleFlightWait => self.waits += 1,
            EventKind::IoSubmitted => self.io_submitted += 1,
            EventKind::IoCompleted => self.io_completed += 1,
            EventKind::LoadRetried => self.retries += 1,
            _ => {}
        }
    }

    fn is_zero(&self) -> bool {
        *self == ChainActuals { chain: self.chain, ..ChainActuals::default() }
    }
}

/// One chain of one column in the annotated plan.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The static scan path [`crate::Snapshot::scan_plan`] chose before execution.
    pub path: ScanPath,
    /// Bit width the data-vector scan kernel ran at on this partition's
    /// main fragment (0 = no kernel scan).
    pub kernel_width: u32,
    /// Chains with observed activity (the filter column's chains are always
    /// listed, active or not, so a fully-pruned partition is visible).
    pub chains: Vec<ChainExplain>,
}

/// The full EXPLAIN ANALYZE report. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// Static plan, one entry per partition, annotated with actuals.
    pub partitions: Vec<PartitionExplain>,
    /// The query's spans — the root and every span under it — sorted by id.
    pub spans: Vec<SpanRecord>,
    /// The root `query` span's id.
    pub root: u64,
    /// The events tagged with a span of the tree, in global order.
    pub events: Vec<PageEvent>,
    /// Wall-clock duration of the root span in nanoseconds.
    pub wall_ns: u64,
    /// Data-vector pages the scans skipped by their (min, max) summaries.
    pub pages_pruned: u64,
    /// 64-value chunks the scan kernels evaluated.
    pub chunks_scanned: u64,
    /// Rows the data-vector scans matched.
    pub matches: u64,
    /// I/O batches whose physical read this query's tree initiated.
    pub batches_initiated: u64,
    /// Distinct I/O batches this query's pages rode without initiating
    /// (coalesced reads started on behalf of other work).
    pub batches_joined: u64,
    /// Pages covered by the multi-page reads this query's tree initiated.
    pub coalesced_pages: u64,
}

impl ExplainAnalyze {
    /// The pool traffic of the whole tree, every chain summed (`chain` is
    /// 0).
    pub fn totals(&self) -> ChainActuals {
        let mut t = ChainActuals::default();
        for e in &self.events {
            t.add(e.kind);
        }
        t
    }

    /// Checks the tree's events against `delta`, the registry delta its
    /// caller collected around a solo run: every traced occurrence must
    /// reconcile 1:1 with the counter that measures it. Returns the first
    /// mismatch as `Err`. The counters also count any other work on the
    /// pool, so only a solo run can be checked.
    pub fn check_consistency(&self, delta: &ObsSnapshot) -> Result<(), String> {
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
            (names::POOL_IO_COALESCED, self.coalesced_pages),
            (names::POOL_QUARANTINE_INSERTS, count(EventKind::PageQuarantined)),
        ];
        for (name, traced) in checks {
            let counted = delta.counter(name);
            if counted != traced {
                return Err(format!("{name}: registry delta {counted} != {traced} traced"));
            }
        }
        Ok(())
    }

    /// Renders the report as a text tree (plan first, then the span tree).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let t = self.totals();
        out.push_str(&format!(
            "EXPLAIN ANALYZE  wall={}  cold={} warm={} pruned={} chunks={} matches={}\n",
            fmt_ns(self.wall_ns),
            t.cold_loads,
            t.warm_pins(),
            self.pages_pruned,
            self.chunks_scanned,
            self.matches
        ));
        for part in &self.partitions {
            out.push_str(&format!(
                "├─ partition {}: path={:?} kernel_width={}\n",
                part.partition, part.path, part.kernel_width
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
            self.batches_initiated, self.batches_joined, self.coalesced_pages
        ));
        out.push_str("└─ spans:\n");
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push(s);
        }
        if let Some(root) = self.spans.iter().find(|s| s.id == self.root) {
            out.push_str(&format!("   └─ {}\n", fmt_span(root)));
            if let Some(kids) = children.get(&self.root) {
                render_spans(&mut out, &children, kids, "      ");
            }
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
                "{{\"partition\": {}, \"path\": \"{:?}\", \"kernel_width\": {}, \"chains\": [{}]}}",
                part.partition,
                part.path,
                part.kernel_width,
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
        let t = self.totals();
        format!(
            "{{\"plan\": [{}], \
             \"scan\": {{\"wall_ns\": {}, \"pins\": {}, \"cold_loads\": {}, \"warm_pins\": {}, \
             \"pages_pruned\": {}, \"chunks_scanned\": {}, \"matches\": {}}}, \
             \"io\": {{\"batches_initiated\": {}, \"batches_joined\": {}, \"coalesced_pages\": {}}}, \
             \"root\": {}, \"spans\": [{}]}}",
            parts.join(", "),
            self.wall_ns,
            t.pins,
            t.cold_loads,
            t.warm_pins(),
            self.pages_pruned,
            self.chunks_scanned,
            self.matches,
            self.batches_initiated,
            self.batches_joined,
            self.coalesced_pages,
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
    /// Executes `q` under its own recording of the pool's tracer and
    /// returns the result alongside the [`ExplainAnalyze`] report folded
    /// from the query's span tree. Exact under concurrency: other sessions'
    /// work never enters the report, and their trace stays in the tracer.
    pub fn explain_analyze(&self, q: &Query) -> TableResult<(QueryResult, ExplainAnalyze)> {
        // One snapshot for the whole report: the plan, the execution and
        // the annotation all see the same pinned version even when a merge
        // publishes mid-run.
        let session = self.session()?;
        // The plan as it stands *before* execution.
        let plan = session.scan_plan(q)?;
        let tracer = self.registry().tracer();
        let _recording = tracer.record();
        let root_span = tracer.span(SpanKind::Query, 0);
        let root = root_span.id();
        let result = session.execute(q);
        drop(root_span);
        let (events, spans) = tracer.take_tree(root);
        let result = result?;

        let mut report = ExplainAnalyze {
            partitions: Vec::new(),
            wall_ns: spans.iter().find(|s| s.id == root).map_or(0, SpanRecord::duration_ns),
            spans,
            root,
            events: Vec::new(),
            pages_pruned: 0,
            chunks_scanned: 0,
            matches: 0,
            batches_initiated: 0,
            batches_joined: 0,
            coalesced_pages: 0,
        };

        // One pass over the tree's events: per-chain pool traffic, scan
        // work, and the batches the tree issued (every event here belongs
        // to the query, so each IoBatchIssued is a batch it *initiated*).
        let mut by_chain: BTreeMap<u64, ChainActuals> = BTreeMap::new();
        let mut scanned: HashSet<u64> = HashSet::new();
        let mut issued: HashSet<u64> = HashSet::new();
        for e in &events {
            match e.kind {
                EventKind::DataScan => {
                    report.pages_pruned += e.page_no;
                    report.chunks_scanned += e.bytes;
                    report.matches += e.aux;
                    scanned.insert(e.chain);
                }
                EventKind::IoBatchIssued => {
                    issued.insert(e.aux);
                    if e.bytes > 1 {
                        report.coalesced_pages += e.bytes;
                    }
                }
                kind => by_chain
                    .entry(e.chain)
                    .or_insert(ChainActuals { chain: e.chain, ..ChainActuals::default() })
                    .add(kind),
            }
        }
        report.batches_initiated = issued.len() as u64;
        // Joined: completions of the tree's requests naming a batch issued
        // outside it.
        report.batches_joined = events
            .iter()
            .filter(|e| e.kind == EventKind::IoCompleted && e.aux != 0 && !issued.contains(&e.aux))
            .map(|e| e.aux)
            .collect::<HashSet<u64>>()
            .len() as u64;
        report.events = events;

        // Annotate the static plan: every active chain of every column,
        // plus the filter column's chains even when idle (a fully-pruned
        // or quarantine-skipped partition should still show its plan row).
        let filter_col = match &q.filter {
            Some((name, _)) => Some(self.schema().column_index(name)?),
            None => None,
        };
        for (pi, p) in session.partitions().iter().enumerate() {
            let mut chains = Vec::new();
            let mut kernel_width = 0;
            for (ci, spec) in self.schema().columns().iter().enumerate() {
                let column = p.main_frag().column(ci);
                for (role, chain) in column.chains() {
                    if role == "data" && scanned.contains(&chain) {
                        kernel_width = BitWidth::for_cardinality(column.cardinality()).bits();
                    }
                    let actuals = by_chain
                        .get(&chain)
                        .copied()
                        .unwrap_or(ChainActuals { chain, ..ChainActuals::default() });
                    if Some(ci) == filter_col || !actuals.is_zero() {
                        chains.push(ChainExplain { column: spec.name.clone(), role, actuals });
                    }
                }
            }
            report.partitions.push(PartitionExplain {
                partition: pi,
                path: plan[pi],
                kernel_width,
                chains,
            });
        }

        Ok((result, report))
    }
}

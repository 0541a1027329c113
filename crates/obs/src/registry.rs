//! The metric registry: named counters, gauges, and histograms with
//! whole-system snapshots and Prometheus/JSON export.
//!
//! Registration (first use of a name) takes a mutex; after that callers
//! hold `Arc` handles and every increment is a single relaxed atomic op.
//! Metrics are keyed by `(name, labels)` so instance-scoped series (one
//! pool, one shard) coexist under one base name; snapshot accessors sum
//! across labels by default.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle. Cloning is cheap and clones
/// share the same underlying cell.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A new counter starting at zero, detached from any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` and returns the counter's new value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.cell.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A gauge handle: a value that can move both ways (bytes resident,
/// resources registered). Cloning is cheap and clones share the cell.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A new gauge starting at zero, detached from any registry.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under racing subtractions is NOT
    /// guaranteed; pair adds and subs).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct RegistryInner {
    // Keyed by (base name, rendered label block) — e.g.
    // ("pool_shard_hits", "{pool=\"0\",shard=\"3\"}"); unlabeled metrics
    // use an empty label block. BTreeMap keeps exports deterministic.
    metrics: Mutex<BTreeMap<(String, String), Metric>>,
    tracer: Tracer,
}

/// A shared registry of named metrics plus the system's [`Tracer`].
///
/// Cloning is cheap (`Arc`); all clones observe the same metrics. Distinct
/// registries are fully independent, so tests that each build their own
/// [`Registry`] (usually via a fresh `ResourceManager`) never share state.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a label block: `[("shard", "3")]` -> `{shard="3"}`.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// A new, empty registry with its own (disabled) tracer.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                metrics: Mutex::new(BTreeMap::new()),
                tracer: Tracer::new(),
            }),
        }
    }

    /// The registry's page-lifecycle tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], make: impl FnOnce() -> Metric) -> Metric {
        let key = (name.to_string(), label_block(labels));
        let mut map = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert_with(make).clone()
    }

    /// The counter registered under `name` (creating it on first use).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// The counter under `name` with a label set, e.g.
    /// `counter_labeled("pool_shard_hits", &[("shard", "3")])`.
    ///
    /// # Panics
    /// If the `(name, labels)` pair is registered as a different kind.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            m => panic!("metric `{name}` is a {}, not a counter", m.kind()),
        }
    }

    /// The gauge registered under `name` (creating it on first use).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_labeled(name, &[])
    }

    /// The gauge under `name` with a label set.
    ///
    /// # Panics
    /// If the `(name, labels)` pair is registered as a different kind.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            m => panic!("metric `{name}` is a {}, not a gauge", m.kind()),
        }
    }

    /// The histogram registered under `name` (creating it on first use).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_labeled(name, &[])
    }

    /// The histogram under `name` with a label set.
    ///
    /// # Panics
    /// If the `(name, labels)` pair is registered as a different kind.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            m => panic!("metric `{name}` is a {}, not a histogram", m.kind()),
        }
    }

    /// Allocates a small unique instance number for `kind` within this
    /// registry (used to label per-pool metric series). Numbers start at 0.
    pub fn next_instance(&self, kind: &str) -> u64 {
        // Backed by a hidden counter; names starting with "__" are skipped
        // by snapshots and exporters.
        self.counter(&format!("__instances_{kind}")).add(1) - 1
    }

    /// Captures every (non-hidden) metric's current value, plus a
    /// [`crate::names::TRACE_DROPPED`] counter row reflecting the tracer's
    /// ring-overflow drop counts (only once events have been dropped, so
    /// quiet registries stay empty).
    pub fn snapshot(&self) -> ObsSnapshot {
        let map = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<MetricEntry> = map
            .iter()
            .filter(|((name, _), _)| !name.starts_with("__"))
            .map(|((name, labels), m)| MetricEntry {
                name: name.clone(),
                labels: labels.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        drop(map);
        let dropped = self.inner.tracer.dropped();
        if dropped > 0 {
            entries.push(MetricEntry {
                name: crate::names::TRACE_DROPPED.to_string(),
                labels: String::new(),
                value: MetricValue::Counter(dropped),
            });
            entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        }
        ObsSnapshot { entries }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry").field("metrics", &map.len()).finish()
    }
}

/// One metric's captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram's buckets (boxed: a snapshot is ~0.5 KiB, far larger
    /// than the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One `(name, labels, value)` row of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MetricEntry {
    name: String,
    labels: String,
    value: MetricValue,
}

impl MetricEntry {
    fn id(&self) -> String {
        format!("{}{}", self.name, self.labels)
    }
}

/// A point-in-time capture of a whole [`Registry`] — every counter, gauge,
/// and histogram — mergeable, diffable, and exportable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    entries: Vec<MetricEntry>,
}

impl ObsSnapshot {
    /// Captures `registry`'s current state (alias of [`Registry::snapshot`]).
    pub fn collect(registry: &Registry) -> ObsSnapshot {
        registry.snapshot()
    }

    /// Number of metric series captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all counter series named `name` (across label sets). Returns
    /// 0 for unknown names.
    pub fn counter(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Sum of all gauge series named `name`. Returns 0 for unknown names.
    pub fn gauge(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// All histogram series named `name`, merged across label sets.
    /// Returns an empty histogram for unknown names.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for e in self.entries.iter().filter(|e| e.name == name) {
            if let MetricValue::Histogram(h) = &e.value {
                out.merge(h);
            }
        }
        out
    }

    /// The change since `earlier` (a previous snapshot of the same
    /// registry): counters and histograms subtract (saturating), gauges
    /// keep this snapshot's (current) value.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let prev = earlier
                    .entries
                    .iter()
                    .find(|p| p.name == e.name && p.labels == e.labels);
                let value = match (&e.value, prev.map(|p| &p.value)) {
                    (MetricValue::Counter(v), Some(MetricValue::Counter(p))) => {
                        MetricValue::Counter(v.saturating_sub(*p))
                    }
                    (MetricValue::Histogram(v), Some(MetricValue::Histogram(p))) => {
                        MetricValue::Histogram(Box::new(v.delta(p)))
                    }
                    (v, _) => v.clone(),
                };
                MetricEntry { name: e.name.clone(), labels: e.labels.clone(), value }
            })
            .collect();
        ObsSnapshot { entries }
    }

    /// Renders in the Prometheus text exposition format. Histograms emit
    /// cumulative `_bucket{le="..."}` series up to the highest non-empty
    /// bucket plus `+Inf`, and `_sum`/`_count` rows.
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_name = "";
        for e in &self.entries {
            if e.name != last_name {
                let kind = match &e.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
                last_name = &e.name;
            }
            match &e.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", e.name, e.labels, v);
                }
                MetricValue::Histogram(h) => {
                    let inner = e.labels.trim_start_matches('{').trim_end_matches('}');
                    let sep = if inner.is_empty() { "" } else { "," };
                    let top = h.max_bucket().map(|i| i + 1).unwrap_or(0);
                    let mut cum = 0u64;
                    for i in 0..top {
                        cum += h.bucket(i);
                        let _ = writeln!(
                            out,
                            "{}_bucket{{{}{}le=\"{}\"}} {}",
                            e.name,
                            inner,
                            sep,
                            HistogramSnapshot::bucket_bound(i),
                            cum
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{{}{}le=\"+Inf\"}} {}", e.name, inner, sep, h.count());
                    let _ = writeln!(out, "{}_sum{} {}", e.name, e.labels, h.sum());
                    let _ = writeln!(out, "{}_count{} {}", e.name, e.labels, h.count());
                }
            }
        }
        out
    }

    /// Renders as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` where
    /// histograms carry count/sum/p50/p90/p99 and their non-empty buckets
    /// as `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for e in &self.entries {
            let id = esc(&e.id());
            match &e.value {
                MetricValue::Counter(v) => {
                    let sep = if counters.is_empty() { "" } else { ", " };
                    let _ = write!(counters, "{sep}\"{id}\": {v}");
                }
                MetricValue::Gauge(v) => {
                    let sep = if gauges.is_empty() { "" } else { ", " };
                    let _ = write!(gauges, "{sep}\"{id}\": {v}");
                }
                MetricValue::Histogram(h) => {
                    let sep = if hists.is_empty() { "" } else { ", " };
                    let mut buckets = String::new();
                    for i in 0..=h.max_bucket().unwrap_or(0) {
                        if h.bucket(i) > 0 {
                            let bsep = if buckets.is_empty() { "" } else { ", " };
                            let _ = write!(
                                buckets,
                                "{bsep}[{}, {}]",
                                HistogramSnapshot::bucket_bound(i),
                                h.bucket(i)
                            );
                        }
                    }
                    let _ = write!(
                        hists,
                        "{sep}\"{id}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{buckets}]}}",
                        h.count(),
                        h.sum(),
                        h.percentile(0.50),
                        h.percentile(0.90),
                        h.percentile(0.99),
                    );
                }
            }
        }
        format!("{{\"counters\": {{{counters}}}, \"gauges\": {{{gauges}}}, \"histograms\": {{{hists}}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.inc();
        b.inc();
        // One cell behind both handles.
        assert_eq!((a.get(), b.get()), (2, 2));
        assert_eq!(reg.snapshot().counter("c"), 2);
        // Labeled series are distinct from the unlabeled one.
        let l = reg.counter_labeled("c", &[("shard", "0")]);
        l.add(5);
        assert_eq!((l.get(), a.get()), (5, 2));
        assert_eq!(reg.snapshot().counter("c"), 7, "accessor sums across labels");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn gauge_and_histogram_roundtrip() {
        let reg = Registry::new();
        reg.gauge("g").set(41);
        reg.gauge("g").add(2);
        reg.gauge("g").sub(1);
        reg.histogram("h").record(100);
        let s = reg.snapshot();
        assert_eq!(s.gauge("g"), 42);
        assert_eq!(s.histogram("h").count(), 1);
    }

    #[test]
    fn next_instance_counts_up_and_stays_hidden() {
        let reg = Registry::new();
        assert_eq!(reg.next_instance("pool"), 0);
        assert_eq!(reg.next_instance("pool"), 1);
        assert_eq!(reg.next_instance("other"), 0);
        assert!(reg.snapshot().is_empty(), "__ names are hidden");
        assert!(!reg.snapshot().to_json().contains("__instances"));
    }

    #[test]
    fn snapshot_surfaces_tracer_ring_overflow() {
        let reg = Registry::new();
        assert!(reg.snapshot().is_empty(), "no drops, no synthetic row");
        let t = reg.tracer().clone();
        t.enable();
        for i in 0..(crate::TRACE_RING_CAPACITY as u64 + 5) {
            t.emit(crate::EventKind::PagePinned, 0, i, 0);
        }
        let s = reg.snapshot();
        assert_eq!(s.counter(crate::names::TRACE_DROPPED), 5);
        assert!(s.to_prometheus_text().contains("trace_dropped 5"));
        // Drain keeps the drop counts, so the row is monotonic and
        // delta-friendly.
        t.drain();
        assert_eq!(reg.snapshot().counter(crate::names::TRACE_DROPPED), 5);
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        c.add(10);
        g.set(100);
        let before = reg.snapshot();
        c.add(5);
        g.set(70);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("c"), 5);
        assert_eq!(d.gauge("g"), 70);
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter_labeled("hits", &[("shard", "0")]).add(3);
        reg.histogram("lat").record(5);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE hits counter"), "{text}");
        assert!(text.contains("hits{shard=\"0\"} 3"), "{text}");
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_bucket{le=\"7\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("lat_sum 5"), "{text}");
        assert!(text.contains("lat_count 1"), "{text}");
    }

    #[test]
    fn json_shape() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(9);
        reg.histogram("h").record(3);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"c\": 7"), "{json}");
        assert!(json.contains("\"g\": 9"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("[3, 1]"), "{json}");
    }
}

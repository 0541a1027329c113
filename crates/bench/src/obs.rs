//! Embedding `payg-obs` registry snapshots into the `BENCH_*.json`
//! reports: one `"obs"` object per report carrying the pool hit rate,
//! eviction counters and pin-latency percentiles.

use payg_obs::{names, ObsSnapshot};

/// Renders `snap` as the report's `"obs"` JSON object. `indent` is the
/// whitespace prefix of the object's lines (the closing brace is not
/// newline-terminated so the caller controls the trailing comma).
pub fn obs_json(snap: &ObsSnapshot, indent: &str) -> String {
    let hits = snap.counter(names::POOL_SHARD_HITS);
    let misses = snap.counter(names::POOL_SHARD_MISSES);
    let pins = hits + misses;
    let hit_rate = if pins == 0 { 0.0 } else { hits as f64 / pins as f64 };
    let pin_ns = snap.histogram(names::POOL_PIN_NS);
    let load_ns = snap.histogram(names::POOL_LOAD_NS);
    let entries = [
        format!("\"pool_hits\": {hits}"),
        format!("\"pool_misses\": {misses}"),
        format!("\"pool_hit_rate\": {hit_rate:.4}"),
        format!("\"pool_loads\": {}", snap.counter(names::POOL_LOADS)),
        format!("\"pool_load_waits\": {}", snap.counter(names::POOL_LOAD_WAITS)),
        format!(
            "\"proactive_evictions\": {}",
            snap.counter(names::RESMAN_PROACTIVE_EVICTIONS)
        ),
        format!(
            "\"reactive_evictions\": {}",
            snap.counter(names::RESMAN_REACTIVE_EVICTIONS)
        ),
        format!(
            "\"weighted_evictions\": {}",
            snap.counter(names::RESMAN_WEIGHTED_EVICTIONS)
        ),
        format!("\"evicted_bytes\": {}", snap.counter(names::RESMAN_EVICTED_BYTES)),
        format!("\"pin_ns_p50\": {}", pin_ns.percentile(0.50)),
        format!("\"pin_ns_p99\": {}", pin_ns.percentile(0.99)),
        format!("\"load_ns_p50\": {}", load_ns.percentile(0.50)),
        format!("\"load_ns_p99\": {}", load_ns.percentile(0.99)),
        format!("\"io_submitted\": {}", snap.counter(names::POOL_IO_SUBMITTED)),
        format!("\"io_coalesced\": {}", snap.counter(names::POOL_IO_COALESCED)),
        format!("\"io_completions\": {}", snap.counter(names::POOL_IO_COMPLETIONS)),
        format!("\"io_physical_reads\": {}", snap.counter(names::POOL_IO_PHYSICAL_READS)),
        format!("\"trace_dropped\": {}", snap.counter(names::TRACE_DROPPED)),
    ];
    let body = entries
        .iter()
        .map(|e| format!("{indent}  {e}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{indent}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use payg_obs::Registry;

    #[test]
    fn obs_json_reports_hit_rate_and_percentiles() {
        let r = Registry::new();
        r.counter_labeled(names::POOL_SHARD_HITS, &[("pool", "0"), ("shard", "0")]).add(3);
        r.counter_labeled(names::POOL_SHARD_MISSES, &[("pool", "0"), ("shard", "0")]).inc();
        let h = r.histogram_labeled(names::POOL_PIN_NS, &[("pool", "0")]);
        for v in [100, 200, 4000, 50_000] {
            h.record(v);
        }
        let snap = ObsSnapshot::collect(&r);
        let json = obs_json(&snap, "  ");
        assert!(json.contains("\"pool_hit_rate\": 0.7500"), "{json}");
        assert!(json.contains("\"pin_ns_p50\": 255"), "{json}");
        assert!(json.contains("\"pin_ns_p99\": 65535"), "{json}");
        assert!(json.contains("\"load_ns_p50\": 0"), "cold histogram empty here: {json}");
        assert!(json.contains("\"io_physical_reads\": 0"), "{json}");
        assert!(json.contains("\"trace_dropped\": 0"), "{json}");
        assert!(!json.contains(",\n  }"), "no trailing comma: {json}");
    }
}

//! From rounds, samples and probe costs to the named metrics of
//! `BENCHMARK.json`.

use crate::api::{PoolLimits, PoolMetrics};
use crate::layers::{Probes, WIDTHS};
use crate::ops::{Op, Shape};
use crate::probe_store::StoreCounters;
use crate::report::{median, quantile, Metric};
use crate::setup::SetupStats;
use std::time::Instant;

pub(crate) const MIB: f64 = 1024.0 * 1024.0;

/// How a round is watched (and, for `Twin`, on which table it runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Per-op latencies only: the rounds every timing metric comes from.
    Plain,
    /// Benchmark-side spans on.
    Spans,
    /// The library's tracer on.
    Tracer,
    /// A plain round on the resident twin.
    Twin,
}

/// Counter movement and client-blocked time of one round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Round {
    pub mode: Mode,
    pub ops: u64,
    pub busy_ns: u64,
    pub pool: PoolMetrics,
    pub io: StoreCounters,
    /// Wall time with at least one store read open (`Spans` rounds).
    pub read_union_ns: u64,
}

/// Per-op samples and implied work of the rounds that record them.
#[derive(Default)]
pub(crate) struct Lat {
    pub all_ns: Vec<u64>,
    /// `all_ns.len()` at the end of each recorded round.
    round_ends: Vec<usize>,
    execute_ns: [Vec<u64>; 8],
    session_open_ns: u64,
    ops: u64,
    rows: u64,
    point_cells: u64,
    range_cells: u64,
    scan_ops: u64,
    scan_rows: u64,
    /// Symbols scanned, `[kernel kind][nearest probe width]`.
    scan_symbols: [[u64; 3]; 3],
}

impl Lat {
    /// Marks the end of a round: latency blocks are made of whole rounds.
    pub fn end_round(&mut self) {
        if self.round_ends.last() != Some(&self.all_ns.len()) {
            self.round_ends.push(self.all_ns.len());
        }
    }

    /// Records one op from its four timestamps (start, session open,
    /// executed, session dropped).
    pub fn record(&mut self, op: &Op, t: &[Instant; 4]) {
        self.all_ns.push((t[3] - t[0]).as_nanos() as u64);
        self.execute_ns[op.shape as usize].push((t[2] - t[1]).as_nanos() as u64);
        self.session_open_ns += (t[1] - t[0]).as_nanos() as u64;
        self.ops += 1;
        self.rows += u64::from(op.rows);
        if op.rows <= 1 {
            self.point_cells += u64::from(op.cells);
        } else {
            self.range_cells += u64::from(op.cells);
        }
        // Every op without a scan starts with one index probe instead.
        if let Some(scan) = op.scan {
            self.scan_ops += 1;
            self.scan_rows += scan.rows;
            let w = (0..WIDTHS.len())
                .min_by_key(|&i| WIDTHS[i].abs_diff(scan.width))
                .unwrap_or(0);
            self.scan_symbols[scan.kind as usize][w] += scan.rows;
        }
    }
}

/// Largest resource-manager figures seen after any op.
#[derive(Default, Clone, Copy)]
pub(crate) struct Peaks {
    pub total: usize,
    pub paged: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The share of a run's rounds (for rates) or latency blocks (for
/// percentiles) taken to have run undisturbed. The reference sandbox is a few
/// vCPUs of a shared host that, for seconds to minutes at a time, runs
/// memory-bound code up to 1.7x slower; nothing ever makes a round faster than
/// the code allows. So a timing is read off the fast end of the run: the rate
/// one round in ten reaches, the latency one block in ten stays under — which
/// repeats from run to run where the run's median follows the neighbours.
const UNDISTURBED: f64 = 0.1;

/// The `q`-quantile of `xs`, interpolated between neighbours; 0 for none.
fn at_quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let pos = q * xs.len().saturating_sub(1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    match (xs.get(lo), xs.get(hi)) {
        (Some(a), Some(b)) => a + (b - a) * (pos - lo as f64),
        _ => 0.0,
    }
}

/// Ops per second of client-blocked time that the fastest tenth of the
/// `mode` rounds reach.
fn undisturbed_rate(rounds: &[Round], mode: Mode) -> f64 {
    at_quantile(rates(rounds, mode), 1.0 - UNDISTURBED)
}

/// The `q`-quantile of per-op latency, µs, that the fastest tenth of the
/// latency blocks stay under.
fn undisturbed_latency_us(lat: &Lat, q: f64) -> f64 {
    at_quantile(block_quantiles(lat, q), UNDISTURBED) / 1e3
}

fn rates(rounds: &[Round], mode: Mode) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| r.mode == mode && r.busy_ns > 0)
        .map(|r| r.ops as f64 * 1e9 / r.busy_ns as f64)
        .collect()
}

fn sorted(mut xs: Vec<u64>) -> Vec<u64> {
    xs.sort_unstable();
    xs
}

fn p50_us(samples_ns: &[u64]) -> f64 {
    quantile(&sorted(samples_ns.to_vec()), 0.5) / 1e3
}

/// Fewest ops in a latency block: the smallest sample whose 99th percentile
/// still has ten samples beyond it.
const BLOCK: usize = 1_000;

/// The `q`-quantile of per-op latency of each block, a block being as many
/// whole consecutive rounds as hold [`BLOCK`] ops (where rounds replay one op
/// list, every block then holds the same ops). A tail shorter than a block
/// joins the last one; without round marks all samples are one block.
fn block_quantiles(lat: &Lat, q: f64) -> Vec<f64> {
    let mut blocks: Vec<&[u64]> = Vec::new();
    let mut start = 0;
    for &end in &lat.round_ends {
        if end - start >= BLOCK {
            blocks.push(&lat.all_ns[start..end]);
            start = end;
        }
    }
    match blocks.last_mut() {
        Some(last) => *last = &lat.all_ns[start - last.len()..],
        None => blocks.push(&lat.all_ns),
    }
    blocks
        .iter()
        .map(|b| quantile(&sorted(b.to_vec()), q))
        .collect()
}

/// The spread of the plain rounds' rates inside one run.
pub(crate) fn rounds_note(rounds: &[Round]) -> String {
    let rates = rates(rounds, Mode::Plain);
    let at = |q: f64| at_quantile(rates.clone(), q);
    format!(
        "plain rounds: {} at min/q1/median/q3/max {:.0}/{:.0}/{:.0}/{:.0}/{:.0} ops/s",
        rates.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// What one set-up after the other cost.
pub(crate) fn setups_note(setups: &[SetupStats]) -> String {
    let each: Vec<String> = setups
        .iter()
        .map(|s| {
            let (insert_s, merge_s) = (s.insert_s, s.merge_ms / 1e3);
            format!(
                "{:.2} s (insert {insert_s:.2} s, merge {merge_s:.2} s)",
                s.total_s
            )
        })
        .collect();
    format!("set-ups: {}", each.join(", "))
}

/// Insert-rate and merge-time samples of a run's write side.
pub(crate) struct Ingest {
    /// Rows per second of each timed insert batch.
    pub rows_per_s: Vec<f64>,
    /// Each `delta_merge_all`, ms.
    pub merge_ms: Vec<f64>,
}

impl Ingest {
    /// The set-ups' bulk loads: where the timed phase does not write,
    /// building the table *is* the ingest.
    pub fn of_setups(setups: &[SetupStats]) -> Self {
        Ingest {
            rows_per_s: setups
                .iter()
                .flat_map(|s| &s.batch_rows_per_s)
                .copied()
                .collect(),
            merge_ms: setups.iter().map(|s| s.merge_ms).collect(),
        }
    }
}

/// The six end-to-end metrics.
pub(crate) fn end_to_end(
    setups: &[SetupStats],
    rounds: &[Round],
    lat: &Lat,
    peaks: Peaks,
    disk_per_user: f64,
) -> Vec<Metric> {
    // Likewise the fastest set-up: with a handful of samples, the minimum.
    let setup_s = at_quantile(setups.iter().map(|s| s.total_s).collect(), 0.0);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", undisturbed_rate(rounds, Mode::Plain), "1/s"),
        metric("op_p50_us", undisturbed_latency_us(lat, 0.50), "us"),
        metric("op_p99_us", undisturbed_latency_us(lat, 0.99), "us"),
        metric("footprint_peak_mib", peaks.total as f64 / MIB, "MiB"),
        metric("disk_bytes_per_user_byte", disk_per_user, "ratio"),
    ]
}

/// Raw inputs of the per-layer metrics; whatever a workload does not
/// exercise stays zero and is printed as such.
pub(crate) struct LayerInputs<'a> {
    pub rounds: &'a [Round],
    pub lat: &'a Lat,
    pub peaks: Peaks,
    pub twin: Option<(&'a Lat, Peaks)>,
    pub probes: &'a Probes,
    pub ingest: &'a Ingest,
    pub read_samples_ns: &'a [u64],
    pub append_samples_ns: &'a [u64],
    /// Bytes appended to the store per byte of user data.
    pub write_amplification: f64,
    pub sessions_rejected: u64,
    pub limits: Option<PoolLimits>,
    /// `(proactive, reactive, evicted bytes)` during the timed phase.
    pub evictions: (u64, u64, u64),
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub(crate) fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let (p, l) = (x.probes, x.lat);
    // Totals over the rounds of the given modes.
    let total = |modes: &[Mode], f: &dyn Fn(&Round) -> u64| -> f64 {
        let rounds = x.rounds.iter().filter(|r| modes.contains(&r.mode));
        rounds.map(f).sum::<u64>() as f64
    };
    // Counters do not depend on how a round is watched: all but the twin's.
    let sum = |f: &dyn Fn(&Round) -> u64| total(&[Mode::Plain, Mode::Spans, Mode::Tracer], f);
    let ops = sum(&|r| r.ops);
    let per_op = |f: &dyn Fn(&Round) -> u64| ratio(sum(f), ops);
    let pins = sum(&|r| r.pool.hits + r.pool.misses);
    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit| m.push(metric(name, value, unit));

    // table.*: spans around the calls.
    let per_lat_op = |v: u64| ratio(v as f64, l.ops as f64);
    put("table.session_open_ns", per_lat_op(l.session_open_ns), "ns");
    for shape in Shape::ALL {
        let name = format!("table.execute_us.{}", shape.tag());
        put(&name, p50_us(&l.execute_ns[shape as usize]), "us");
    }
    put(
        "table.rows_materialized_per_op",
        per_lat_op(l.rows),
        "count",
    );
    let insert_ns = ratio(1e9, median(x.ingest.rows_per_s.clone()));
    put("table.insert_ns_per_row", insert_ns, "ns");
    put("table.merge_ms", median(x.ingest.merge_ms.clone()), "ms");
    put(
        "table.sessions_rejected",
        x.sessions_rejected as f64,
        "count",
    );

    // core.* and encoding.*: isolated probes.
    put("core.dict_find_by_value_us", p.dict_find_by_value_us, "us");
    put("core.dict_value_by_vid_us", p.dict_value_by_vid_us, "us");
    put("core.index_probe_us", p.index_probe_us, "us");
    put("core.get_values_ns_per_row", p.get_values_ns_per_row, "ns");
    put("core.scan_ns_per_row", p.scan_ns_per_row, "ns");
    put("core.scan_ns_per_row_par2", p.scan_ns_per_row_par2, "ns");
    put("core.scan_over_kernel", p.scan_over_kernel, "ratio");
    for (k, kind) in ["eq", "range", "inset"].iter().enumerate() {
        for (w, width) in WIDTHS.iter().enumerate() {
            let name = format!("encoding.kernel_{kind}_ns_per_symbol.w{width}");
            put(&name, p.kernel[k][w], "ns");
        }
    }
    for (w, width) in WIDTHS.iter().enumerate() {
        let name = format!("encoding.mget_ns_per_symbol.w{width}");
        put(&name, p.mget[w], "ns");
    }
    put(
        "encoding.dict_bytes_over_raw",
        p.dict_bytes_over_raw,
        "ratio",
    );
    put(
        "encoding.postings_bits_per_row",
        p.postings_bits_per_row,
        "bits",
    );

    // pool.* and iostage.*: the pool's own counters over the timed rounds.
    put("pool.pins_per_op", ratio(pins, ops), "count");
    put("pool.hit_rate", ratio(sum(&|r| r.pool.hits), pins), "frac");
    put("pool.loads_per_op", per_op(&|r| r.pool.loads), "count");
    put(
        "pool.load_waits_per_op",
        per_op(&|r| r.pool.load_waits),
        "count",
    );
    put("pool.contended", sum(&|r| r.pool.contended), "count");
    put("pool.warm_pin_ns", p.warm_pin_ns, "ns");
    put("pool.cold_pin_us", p.cold_pin_us, "us");
    let completions = sum(&|r| r.pool.io_completions);
    let physical = sum(&|r| r.pool.io_physical_reads);
    let coalesced = sum(&|r| r.pool.io_coalesced);
    put(
        "iostage.submitted_per_op",
        per_op(&|r| r.pool.io_submitted),
        "count",
    );
    put(
        "iostage.pages_per_physical_read",
        ratio(completions, physical),
        "count",
    );
    put(
        "iostage.coalesced_frac",
        ratio(coalesced, completions),
        "frac",
    );
    put("iostage.shed", sum(&|r| r.pool.io_shed), "count");

    // store.*: in situ, from the ProbeStore.
    let pages_read = sum(&|r| r.io.pages_read);
    let busy_frac = ratio(sum(&|r| r.io.read_ns), sum(&|r| r.busy_ns));
    put(
        "store.read_calls_per_op",
        per_op(&|r| r.io.read_calls),
        "count",
    );
    put("store.pages_read_per_op", ratio(pages_read, ops), "count");
    put("store.bytes_read_per_op", per_op(&|r| r.io.bytes_read), "B");
    put("store.read_us_p50", p50_us(x.read_samples_ns), "us");
    put("store.busy_frac", busy_frac, "frac");
    put(
        "store.reread_frac",
        ratio(sum(&|r| r.io.rereads), pages_read),
        "frac",
    );
    put("store.append_us_p50", p50_us(x.append_samples_ns), "us");
    put(
        "store.bytes_written_per_user_byte",
        x.write_amplification,
        "ratio",
    );

    // resman.*
    let over_limit = x.limits.map_or(0.0, |limits| {
        (x.peaks.paged as f64 / limits.upper_bytes as f64 - 1.0).max(0.0)
    });
    put("resman.paged_peak_mib", x.peaks.paged as f64 / MIB, "MiB");
    put("resman.over_limit_peak_frac", over_limit, "frac");
    put("resman.proactive_evictions", x.evictions.0 as f64, "count");
    put("resman.reactive_evictions", x.evictions.1 as f64, "count");
    put("resman.evicted_mib", x.evictions.2 as f64 / MIB, "MiB");

    // The cost of watching: the same rounds with the library tracer on, and
    // with the benchmark's own spans on.
    let plain_rate = undisturbed_rate(x.rounds, Mode::Plain);
    let overhead = |mode| {
        let rate = undisturbed_rate(x.rounds, mode);
        if rate > 0.0 {
            plain_rate / rate - 1.0
        } else {
            0.0
        }
    };
    put(
        "obs.tracer_on_overhead_frac",
        overhead(Mode::Tracer),
        "frac",
    );
    put("bench.trace_overhead_frac", overhead(Mode::Spans), "frac");

    // attrib.*: counter × probe unit cost over the plain rounds' client time
    // (store: measured). Reported, not gated; the residual is what in-program
    // tracing has to explain.
    let plain = |f: &dyn Fn(&Round) -> u64| total(&[Mode::Plain], f);
    let spanned = |f: &dyn Fn(&Round) -> u64| total(&[Mode::Spans], f);
    let plain_busy = plain(&|r| r.busy_ns);
    let plain_pins = plain(&|r| r.pool.hits + r.pool.misses);
    let plain_loads = plain(&|r| r.pool.loads);
    let cells = (l.point_cells + l.range_cells) as f64;
    let mget8 = p.mget[1];
    let kernels: f64 = (0..3)
        .flat_map(|k| (0..3).map(move |w| (k, w)))
        .map(|(k, w)| l.scan_symbols[k][w] as f64 * p.kernel[k][w])
        .sum();
    let encoding_ns = kernels + cells * mget8;
    let pool_ns = plain_pins * p.warm_pin_ns
        + plain_loads * (p.cold_pin_us - p.cold_pin_store_us).max(0.0) * 1e3;
    let iterate_ns = if p.scan_over_kernel > 1.0 {
        p.scan_ns_per_row * (1.0 - 1.0 / p.scan_over_kernel)
    } else {
        0.0
    };
    let core_gross = (l.ops - l.scan_ops) as f64 * p.index_probe_us * 1e3
        + l.scan_ops as f64 * p.dict_find_by_value_us * 1e3
        + l.point_cells as f64 * p.dict_value_by_vid_us * 1e3
        + l.range_cells as f64 * (p.get_values_ns_per_row - mget8).max(0.0)
        + l.scan_rows as f64 * iterate_ns;
    // Every pin happens inside a core call: count it once, under pool.
    let core_ns = (core_gross - plain_pins * p.warm_pin_ns).max(0.0);
    // Per query, the table layer costs what a point query takes beyond its
    // one index probe; what it spends per materialized cell is not modelled.
    let table_ns = l.session_open_ns as f64
        + l.ops as f64 * (p.point_query_ns - p.index_probe_us * 1e3).max(0.0);
    let store_frac = ratio(spanned(&|r| r.read_union_ns), spanned(&|r| r.busy_ns)).min(1.0);
    let fracs = [
        ("attrib.store_frac", store_frac),
        ("attrib.pool_frac", ratio(pool_ns, plain_busy)),
        ("attrib.encoding_frac", ratio(encoding_ns, plain_busy)),
        ("attrib.core_frac", ratio(core_ns, plain_busy)),
        ("attrib.table_frac", ratio(table_ns, plain_busy)),
    ];
    for (name, frac) in fracs {
        put(name, frac, "frac");
    }
    let explained: f64 = fracs.iter().map(|(_, f)| f).sum();
    put("attrib.unexplained_frac", 1.0 - explained, "frac");

    // The resident twin, where the workload has one.
    let own_p50 = undisturbed_latency_us(l, 0.5);
    let own_peak = x.peaks.total as f64 / MIB;
    let (twin_p50, twin_peak) = x.twin.map_or((0.0, 0.0), |(lat, peaks)| {
        (undisturbed_latency_us(lat, 0.5), peaks.total as f64 / MIB)
    });
    put("twin.op_p50_us", twin_p50, "us");
    put("twin.footprint_peak_mib", twin_peak, "MiB");
    put(
        "twin.paged_over_resident_time",
        ratio(own_p50, twin_p50),
        "ratio",
    );
    put(
        "twin.paged_over_resident_mem",
        ratio(own_peak, twin_peak),
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat_of(rounds: &[&[u64]]) -> Lat {
        let mut lat = Lat::default();
        for r in rounds {
            lat.all_ns.extend_from_slice(r);
            lat.end_round();
        }
        lat
    }

    #[test]
    fn latency_blocks_are_whole_rounds_of_at_least_a_thousand_ops() {
        // 600-op rounds pair up; the odd one out joins the last block.
        let (fast, slow) = (vec![10u64; 600], vec![1_000u64; 600]);
        let lat = lat_of(&[&fast, &fast, &slow, &slow, &fast]);
        assert_eq!(block_quantiles(&lat, 0.5), vec![10.0, 1_000.0]);
        assert_eq!(block_quantiles(&lat, 0.99), vec![10.0, 1_000.0]);
        // Too few ops for one block, or no round marks: one pooled block.
        assert_eq!(block_quantiles(&lat_of(&[&fast]), 0.5), vec![10.0]);
        assert_eq!(block_quantiles(&Lat::default(), 0.5), vec![0.0]);
    }

    #[test]
    fn timings_are_read_off_the_undisturbed_end_of_a_run() {
        assert_eq!(at_quantile(vec![], 0.9), 0.0);
        assert_eq!(at_quantile(vec![4.0, 1.0, 3.0, 2.0, 5.0], 0.5), 3.0);
        assert_eq!(at_quantile(vec![1.0, 2.0], 0.9), 1.9);
        // Seven of ten blocks disturbed: the figure is still the quiet one.
        let (quiet, loud) = (vec![10_000u64; 1_000], vec![17_000u64; 1_000]);
        let mut rounds: Vec<&[u64]> = vec![&loud; 7];
        rounds.extend([&quiet[..]; 3]);
        assert_eq!(undisturbed_latency_us(&lat_of(&rounds), 0.5), 10.0);
    }
}

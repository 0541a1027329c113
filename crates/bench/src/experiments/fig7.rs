//! Fig. 7: counting through the paged inverted index.
//!
//! Workload `Q_num^count` — `SELECT COUNT(*) FROM T WHERE C_num = value` —
//! on `T_p^i` vs `T_b^i` (every column indexed): the count is answered from
//! the inverted index — from its directory pages alone (two entries per
//! vid); the Elias-Fano posting pages and their skip table ahead of the
//! directory in each chain are never touched. Paper result: smaller
//! footprint for the paged index; each search needs at most two page
//! accesses, so the overhead sits between the paged data vector (Fig. 4)
//! and the paged dictionary search (Fig. 6).

use crate::experiments::{common_memory_checks, run_query_stream};
use crate::report::ExperimentReport;
use crate::setup::{TableSet, Variant};
use crate::BenchConfig;

/// Regenerates Fig. 7.
pub fn run(cfg: &BenchConfig, tables: &TableSet) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7",
        "Q_num^count on T_p^i vs T_b^i: paged inverted index",
    );
    let stack = cfg.stack_cost.as_nanos() as u64;
    let run = run_query_stream(cfg, tables, Variant::BaseIndexed, Variant::PagedIndexed, |qg| {
        qg.q_num_count()
    });
    report.series_block(&run.series, "T_b^i", "T_p^i", stack);
    let _ = report.write_csv(&run.series);
    common_memory_checks(&mut report, &run, cfg);
    // Paper: at most two page accesses per index search, so the overhead
    // sits between the paged data vector (Fig. 4) and the dictionary-search
    // burst (Fig. 6).
    let s = run.series.summary(stack);
    report.check(
        format!("normalized mean ratio moderate ({:.2})", s.mean_norm),
        s.mean_norm < 2.5,
    );
    report
}

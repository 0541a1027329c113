//! Fig. 4: single reads of numeric columns through the paged data vector.
//!
//! Workload `Q_pk^num` — `SELECT C_num FROM T WHERE C_pk = value` for
//! random rows — on `T_p` vs `T_b`. Each query reads the PK index (resident
//! in both variants) plus one position of a numeric column's data vector.
//! Paper result: footprint drops from 8.2 GB to 3.6 GB; the paged footprint
//! grows as pieces are pulled in; run-time spikes appear whenever a new
//! piece loads, but the average ratio is only 1.07 — piecewise data-vector
//! access is nearly free for point reads.

use crate::experiments::{common_memory_checks, run_query_stream};
use crate::report::ExperimentReport;
use crate::setup::{TableSet, Variant};
use crate::BenchConfig;

/// Regenerates Fig. 4.
pub fn run(cfg: &BenchConfig, tables: &TableSet) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig4",
        "Q_pk^num on T_p vs T_b: paged data vector point reads",
    );
    let stack = cfg.stack_cost.as_nanos() as u64;
    let run = run_query_stream(cfg, tables, Variant::Base, Variant::Paged, |qg| qg.q_pk_num());
    report.series_block(&run.series, "T_b", "T_p", stack);
    let _ = report.write_csv(&run.series);
    common_memory_checks(&mut report, &run, cfg);
    let s = run.series.summary(stack);
    // Paper: the average end-to-end ratio stays close to 1 for
    // data-vector-only point reads (1.07 ± 0.29 reported).
    report.check(
        format!("normalized mean ratio close to 1 ({:.2}, paper: 1.07)", s.mean_norm),
        s.mean_norm < 1.8,
    );
    // Spikes exist: some queries that trigger piece loads are much slower
    // than the median.
    report.check(
        format!("load spikes visible (max {:.1} ≫ p50 {:.2})", s.max_ratio, s.p50_ratio),
        s.max_ratio > 4.0 * s.p50_ratio,
    );

    // The paper contrasts the one-time cost of a full column load with the
    // cost of loading a single piece (43.5 s vs 9.6 s on their testbed).
    // Measure the same contrast on a standalone column pair.
    {
        use payg_core::column::ColumnRead;
        use payg_core::{ColumnBuilder, DataType, LoadPolicy, Value};
        use payg_resman::ResourceManager;
        use payg_storage::{BufferPool, LatencyStore, MemStore};
        use std::sync::Arc;
        use std::time::Instant;
        let values: Vec<Value> =
            (0..cfg.rows.min(200_000) as i64).map(|i| Value::Integer(i % 10_000)).collect();
        let pool = BufferPool::new(
            Arc::new(LatencyStore::new(MemStore::new(), cfg.read_latency)),
            ResourceManager::new(),
        );
        let resident = ColumnBuilder::new(DataType::Integer)
            .policy(LoadPolicy::FullyResident)
            .build(&pool, &cfg.page_config(), &values)
            .unwrap()
            .column;
        let paged = ColumnBuilder::new(DataType::Integer)
            .policy(LoadPolicy::PageLoadable)
            .build(&pool, &cfg.page_config(), &values)
            .unwrap()
            .column;
        let t0 = Instant::now();
        resident.ensure_loaded().unwrap();
        let full_load = t0.elapsed();
        let t1 = Instant::now();
        let _ = paged.get_values(&[values.len() as u64 / 2]).unwrap();
        let piece_load = t1.elapsed();
        report.line(format!(
            "one-time load cost: full column {full_load:.1?} vs one piece {piece_load:.1?}              (paper: 43.5s vs 9.6s)"
        ));
        report.check(
            "full column load far more expensive than one piece",
            full_load > piece_load * 4,
        );
    }
    report
}

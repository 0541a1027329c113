//! Cold-data auditing: random single-row reads over a page-loadable table
//! vs the same table fully resident — the paper's Fig. 9 scenario as an
//! application.
//!
//! Run with: `cargo run --release --example cold_store_audit`

use page_as_you_go::core::{LoadPolicy, PageConfig};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, LatencyStore, MemStore};
use page_as_you_go::table::{PartitionSpec, Table};
use page_as_you_go::workload::{generate_rows, QueryGen, TableProfile};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build(profile: &TableProfile, policy: LoadPolicy) -> (Table, ResourceManager) {
    // A 120 µs page-read latency models cold storage (see DESIGN.md).
    let read_latency = Duration::from_micros(120);
    let store = LatencyStore::new(MemStore::new(), read_latency);
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(store), resman.clone());
    let table = Table::create(
        pool,
        PageConfig::default(),
        profile.schema(true).unwrap(),
        vec![PartitionSpec::single(policy)],
    )
    .unwrap();
    table.insert_all(generate_rows(profile)).unwrap();
    table.delta_merge_all().unwrap();
    table.unload_all();
    (table, resman)
}

fn main() {
    // An ERP-like archive slice: 30k rows, 13 columns, every column indexed.
    let profile = TableProfile::erp(30_000, 13, 1);
    println!("building the archive twice: fully resident vs page loadable …");
    let (resident, resident_rm) = build(&profile, LoadPolicy::FullyResident);
    let (paged, paged_rm) = build(&profile, LoadPolicy::PageLoadable);

    // The auditor samples 400 random business objects.
    let audits = 400;
    let mut qg = QueryGen::new(profile.clone(), 2024);
    let queries: Vec<_> = (0..audits).map(|_| qg.q_pk_star()).collect();

    for (name, table, rm) in [
        ("fully resident", &resident, &resident_rm),
        ("page loadable", &paged, &paged_rm),
    ] {
        let t0 = Instant::now();
        let mut first = Duration::ZERO;
        for (i, q) in queries.iter().enumerate() {
            let tq = Instant::now();
            let rows = table.execute(q).unwrap();
            std::hint::black_box(&rows);
            if i == 0 {
                first = tq.elapsed();
            }
        }
        println!(
            "{name:>15}: {audits} audits in {:>8.1?}  (first audit {:>8.1?}, footprint {:.2} MiB)",
            t0.elapsed(),
            first,
            rm.stats().total_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    println!(
        "\nthe resident archive pays one huge first-touch load per column and \
         keeps everything in memory;\nthe paged archive touches only the pages \
         the audited rows live on."
    );
}

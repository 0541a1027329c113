//! Builds the paper's table variants (Table 2).

use crate::BenchConfig;
use payg_core::LoadPolicy;
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, LatencyStore, MemStore};
use payg_table::{PartitionSpec, Table};
use payg_workload::{gen, TableProfile};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The paper's table variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `T_b`: the base table, fully resident, PK index only.
    Base,
    /// `T_p`: all non-primary-key columns PAGE LOADABLE.
    Paged,
    /// `T_pp`: only the primary-key column PAGE LOADABLE.
    PagedPk,
    /// `T_b^i`: `T_b` with one inverted index per column.
    BaseIndexed,
    /// `T_p^i`: `T_p` with one inverted index per column.
    PagedIndexed,
}

impl Variant {
    /// The paper's notation for the variant.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "T_b",
            Variant::Paged => "T_p",
            Variant::PagedPk => "T_pp",
            Variant::BaseIndexed => "T_b^i",
            Variant::PagedIndexed => "T_p^i",
        }
    }

    fn with_indexes(self) -> bool {
        matches!(self, Variant::BaseIndexed | Variant::PagedIndexed)
    }

    fn partition_policy(self) -> LoadPolicy {
        match self {
            Variant::Base | Variant::BaseIndexed | Variant::PagedPk => LoadPolicy::FullyResident,
            Variant::Paged | Variant::PagedIndexed => LoadPolicy::PageLoadable,
        }
    }

    /// Per-column override for the PK (the PK stays resident in `T_p` and
    /// becomes the only paged column in `T_pp`).
    fn pk_policy(self) -> Option<LoadPolicy> {
        match self {
            Variant::Paged | Variant::PagedIndexed => Some(LoadPolicy::FullyResident),
            Variant::PagedPk => Some(LoadPolicy::PageLoadable),
            _ => None,
        }
    }
}

/// One built experiment table with its private resource manager (so memory
/// accounting never mixes between variants).
pub struct ExperimentTable {
    /// The paper's notation (`T_b`, `T_p`, …).
    pub label: &'static str,
    /// The table, merged and cold (nothing loaded).
    pub table: Table,
    /// Its resource manager; `stats().total_bytes` is the footprint metric.
    pub resman: ResourceManager,
}

impl ExperimentTable {
    /// Current memory footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.resman.stats().total_bytes as u64
    }

    /// Simulates a cold restart: unloads resident columns and drops pool
    /// frames.
    pub fn cold_restart(&self) {
        self.table.unload_all();
    }

    /// One-line buffer pool counter summary (cumulative over every
    /// experiment this variant served) — the sharded pool's observability
    /// rollup.
    pub fn pool_report(&self) -> String {
        let m = self.table.pool().metrics();
        let shards = self.table.pool().shard_metrics();
        let used = shards.iter().filter(|s| s.hits + s.misses > 0).count();
        format!(
            "{:<6} loads {:<9} hits {:<10} load-waits {:<6} lock contention {:<5} shards used {}/{}",
            self.label, m.loads, m.hits, m.load_waits, m.contended, used,
            shards.len()
        )
    }
}

/// Builds one variant of the generated table: insert everything (streamed,
/// row by row, to keep the build's peak memory flat), delta merge, then
/// cold-restart so measurements start from an empty memory state.
pub fn build_table(profile: &TableProfile, variant: Variant, cfg: &BenchConfig) -> ExperimentTable {
    let store = LatencyStore::new(MemStore::new(), cfg.read_latency);
    let resman = ResourceManager::new();
    let pool = BufferPool::new(Arc::new(store), resman.clone());
    let mut schema = profile.schema(variant.with_indexes()).expect("valid schema");
    if let Some(pk_policy) = variant.pk_policy() {
        // Rebuild the schema with the PK override applied.
        let mut cols = schema.columns().to_vec();
        cols[0].load_policy = Some(pk_policy);
        schema = payg_table::Schema::new(cols)
            .and_then(|s| s.with_primary_key(&profile.columns[0].name))
            .expect("valid schema");
    }
    let table = Table::create(
        pool,
        cfg.page_config(),
        schema,
        vec![PartitionSpec::single(variant.partition_policy())],
    )
    .expect("create table");
    for r in 0..profile.rows {
        let row = (0..profile.columns.len())
            .map(|c| gen::value_at(profile, c, r))
            .collect();
        table.insert(row).expect("insert row");
    }
    table.delta_merge_all().expect("delta merge");
    let t = ExperimentTable { label: variant.label(), table, resman };
    t.cold_restart();
    t
}

/// Lazily built, shared table variants: building the 33-column tables is
/// the expensive part of the suite, and `T_b` / `T_p^i` etc. are reused by
/// several experiments (with a cold restart in between).
pub struct TableSet {
    profile: TableProfile,
    cfg: BenchConfig,
    cells: Mutex<HashMap<Variant, Arc<ExperimentTable>>>,
}

impl TableSet {
    /// Creates the (empty) set for a configuration.
    pub fn new(cfg: &BenchConfig) -> Self {
        TableSet {
            profile: TableProfile::erp(cfg.rows, cfg.cols, cfg.seed),
            cfg: cfg.clone(),
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The dataset profile shared by every variant.
    pub fn profile(&self) -> &TableProfile {
        &self.profile
    }

    /// Returns the variant, building it on first use. The returned table is
    /// cold-restarted, ready for a fresh experiment.
    pub fn get(&self, variant: Variant) -> Arc<ExperimentTable> {
        let mut cells = self.cells.lock().expect("a table build panicked under the lock");
        let t = cells
            .entry(variant)
            .or_insert_with(|| {
                eprintln!("[setup] building {} …", variant.label());
                Arc::new(build_table(&self.profile, variant, &self.cfg))
            })
            .clone();
        drop(cells);
        t.cold_restart();
        t.resman.quiesce();
        t
    }

    /// Every variant built so far (label order), for end-of-run reporting.
    pub fn built(&self) -> Vec<Arc<ExperimentTable>> {
        let cells = self.cells.lock().expect("a table build panicked under the lock");
        let mut all: Vec<Arc<ExperimentTable>> = cells.values().cloned().collect();
        all.sort_by_key(|t| t.label);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payg_table::{Projection, Query};

    #[test]
    fn variants_build_and_answer_queries_identically() {
        let cfg = BenchConfig::smoke();
        let set = TableSet::new(&cfg);
        let base = set.get(Variant::Base);
        let paged = set.get(Variant::Paged);
        assert_eq!(base.footprint(), 0, "cold start");
        assert_eq!(paged.footprint(), 0, "cold start");
        let q = Query::full(Projection::Count);
        assert_eq!(base.table.execute(&q).unwrap().count(), cfg.rows);
        assert_eq!(paged.table.execute(&q).unwrap().count(), cfg.rows);
        // A point read touches columns: the resident variant loads whole
        // columns, the paged one only pages.
        let mut qg = payg_workload::QueryGen::new(set.profile().clone(), 1);
        let q = qg.q_pk_star();
        assert_eq!(base.table.execute(&q).unwrap(), paged.table.execute(&q).unwrap());
        assert!(base.footprint() > 0);
        assert!(paged.footprint() > 0);
        assert_eq!(
            base.resman.stats().paged_bytes, 0,
            "fully resident variant registers no paged resources"
        );
        // The set caches: a second get returns the same table, cold again.
        let again = set.get(Variant::Base);
        assert!(Arc::ptr_eq(&again, &base));
        assert_eq!(again.footprint(), 0, "cold restart on reuse");
    }
}

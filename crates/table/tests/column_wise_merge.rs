//! The delta merge's byte-identity oracle.
//!
//! A merge builds the new main one column at a time from the old main's
//! visible rows followed by every frozen cell's visible rows, in freeze
//! order. This test keeps its own `Vec<Row>` image of every fragment —
//! mirroring inserts, `update_rows` (delete, then re-insert into the active
//! delta) and aborted merges (which leave the active cell frozen) — and
//! checks that every chain of every merged column holds exactly the bytes a
//! `ColumnBuilder::build` over the image's rows writes: same chains in the
//! same roles, same descriptors, same pages. That pins the row order and
//! every byte a merge writes.

use payg_core::{ColumnBuilder, DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, ChainId, FaultPlan, FaultyStore, MemStore, PageKey, PageStore};
use payg_table::{ColumnSpec, PartitionSpec, Row, Schema, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const SEED: u64 = 0x5eed;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::indexed("grp", DataType::Integer),
        ColumnSpec::new("note", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("ratio", DataType::Double).with_load_policy(LoadPolicy::PageLoadable),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
}

/// Row `id`: a group of eight, and strings from empty to well past the
/// tiny configuration's 24-byte inline limit.
fn random_row(rng: &mut StdRng, id: i64) -> Row {
    let note = "n".repeat(rng.random_range(0..60usize)) + &rng.random_range(0..40u32).to_string();
    vec![
        Value::Integer(id),
        Value::Integer(rng.random_range(0..8i64)),
        Value::Varchar(note),
        Value::Decimal(rng.random_range(-500..500i64) as i128),
        Value::Double(rng.random_range(0..1_000i64) as f64 / 8.0),
    ]
}

/// The table's fragments as the test expects them: the main first, then
/// the frozen cells in freeze order, the active cell last. A deleted row is
/// `None`.
struct Image {
    fragments: Vec<Vec<Option<Row>>>,
}

impl Image {
    fn insert(&mut self, t: &Table, row: Row) {
        t.insert(row.clone()).unwrap();
        self.fragments.last_mut().unwrap().push(Some(row));
    }

    /// `update_rows("grp", = grp, "note", note)`: every matching row, in
    /// fragment and row order, is deleted and re-inserted, updated, into
    /// the active cell.
    fn update(&mut self, t: &Table, grp: i64, note: &str) {
        let grp = Value::Integer(grp);
        let note = Value::Varchar(note.into());
        let moved = t
            .update_rows("grp", &ValuePredicate::Eq(grp.clone()), "note", &note)
            .unwrap();
        let mut rows = Vec::new();
        for slot in self.fragments.iter_mut().flatten() {
            if slot.as_ref().is_some_and(|row| row[1] == grp) {
                rows.push(slot.take().unwrap());
            }
        }
        assert_eq!(moved, rows.len() as u64);
        for mut row in rows {
            row[2] = note.clone();
            self.fragments.last_mut().unwrap().push(Some(row));
        }
    }

    /// A merge killed at its first write: the active cell, when it holds
    /// rows, stays frozen and a fresh one takes over.
    fn abort_merge(&mut self, t: &Table, store: &FaultyStore<MemStore>) {
        store.set_plan(FaultPlan::EveryNthWrite(1));
        assert!(
            t.delta_merge_all().is_err(),
            "a merge that cannot write must abort"
        );
        store.set_plan(FaultPlan::None);
        if !self.fragments.last().unwrap().is_empty() {
            self.fragments.push(Vec::new());
        }
    }

    /// The rows a merge builds the new main from, in order.
    fn visible(&self) -> Vec<Row> {
        self.fragments.iter().flatten().flatten().cloned().collect()
    }

    /// A successful merge: the visible rows become the main.
    fn merge(&mut self, t: &Table) {
        let main = self.visible().into_iter().map(Some).collect();
        t.delta_merge_all().unwrap();
        self.fragments = vec![main, Vec::new()];
    }
}

/// Asserts that `got`'s chain in `store` holds the bytes of `want`'s chain
/// in `oracle`: page size, descriptor and every page.
fn assert_same_chain(
    store: &dyn PageStore,
    got: u64,
    oracle: &dyn PageStore,
    want: u64,
    what: &str,
) {
    let (got, want) = (ChainId(got), ChainId(want));
    let page_size = oracle.page_size(want).unwrap();
    assert_eq!(
        store.page_size(got).unwrap(),
        page_size,
        "{what}: page size"
    );
    assert_eq!(
        store.chain_descriptor(got).unwrap(),
        oracle.chain_descriptor(want).unwrap(),
        "{what}: descriptor"
    );
    let pages = oracle.chain_len(want).unwrap();
    assert_eq!(store.chain_len(got).unwrap(), pages, "{what}: pages");
    for page in 0..pages {
        assert_eq!(
            store.read_page(PageKey::new(got, page)).unwrap(),
            oracle.read_page(PageKey::new(want, page)).unwrap(),
            "{what}: page {page}"
        );
    }
}

/// A merged main with deletes, plus frozen cells with deletes of their
/// own, merges into chains byte-identical to column builds over the
/// expected rows — under both load policies, the paged one read cold.
#[test]
fn merged_chains_equal_column_builds_over_the_expected_rows() {
    for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let pool = BufferPool::new(
            Arc::clone(&store) as Arc<dyn PageStore>,
            ResourceManager::new(),
        );
        let config = PageConfig::tiny();
        let t = Table::create(pool, config, schema(), vec![PartitionSpec::single(policy)]).unwrap();
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut image = Image {
            fragments: vec![Vec::new(), Vec::new()],
        };
        let mut next_id = 0;
        let mut insert = |image: &mut Image, rng: &mut StdRng, n: i64| {
            for _ in 0..n {
                let row = random_row(rng, next_id);
                image.insert(&t, row);
                next_id += 1;
            }
        };

        insert(&mut image, &mut rng, 300);
        image.merge(&t);
        for grp in 1..=3 {
            // Delete from every fragment so far, then freeze what moved.
            image.update(&t, grp, &format!("moved-{grp}"));
            insert(&mut image, &mut rng, 40);
            if grp < 3 {
                image.abort_merge(&t, &store);
            }
        }
        let frozen = &image.fragments[1..image.fragments.len() - 1];
        assert_eq!(frozen.len(), 2, "two frozen cells");
        for fragment in &image.fragments[..3] {
            assert!(
                fragment.iter().any(Option::is_none),
                "the main and frozen cells have deletes"
            );
        }

        let expected = image.visible();
        if policy == LoadPolicy::PageLoadable {
            t.unload_all();
        }
        image.merge(&t);
        assert_eq!(t.visible_rows(), expected.len() as u64);

        let oracle = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let partitions = t.partitions();
        let main = partitions[0].main();
        for (c, spec) in t.schema().columns().iter().enumerate() {
            let values: Vec<Value> = expected.iter().map(|row| row[c].clone()).collect();
            let built = ColumnBuilder::new(spec.data_type)
                .policy(spec.load_policy.unwrap_or(policy))
                .with_index(spec.with_index)
                .build(&oracle, &config, &values)
                .unwrap()
                .column;
            let (got, want) = (main.column(c).chains(), built.chains());
            let roles = |chains: &[(&'static str, u64)]| -> Vec<&str> {
                chains.iter().map(|&(role, _)| role).collect()
            };
            assert_eq!(
                roles(&got),
                roles(&want),
                "{policy:?} {}: chain roles",
                spec.name
            );
            for (&(role, got), &(_, want)) in got.iter().zip(&want) {
                let what = format!("{policy:?} {} {role}", spec.name);
                assert_same_chain(store.as_ref(), got, oracle.store().as_ref(), want, &what);
            }
        }
    }
}

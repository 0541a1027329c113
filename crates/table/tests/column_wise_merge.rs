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

use payg_core::{
    ColumnBuilder, ColumnRead, DataType, LoadPolicy, PageConfig, Value, ValuePredicate,
};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, ChainId, FaultPlan, FaultyStore, MemStore, PageKey, PageStore};
use payg_table::{ColumnSpec, PartitionId, PartitionRange, PartitionSpec, Row, Schema, Table};
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

/// Every chain of every column of partition `pid`'s main holds the bytes a
/// `ColumnBuilder::build` over `expected` writes.
fn assert_main_equals_builds(
    t: &Table,
    pid: usize,
    store: &dyn PageStore,
    policy: LoadPolicy,
    expected: &[Row],
    what: &str,
) {
    let oracle = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    let partitions = t.partitions();
    let main = partitions[pid].main();
    assert_eq!(main.visible_rows(), expected.len() as u64, "{what}: rows");
    for (c, spec) in t.schema().columns().iter().enumerate() {
        let values: Vec<Value> = expected.iter().map(|row| row[c].clone()).collect();
        let built = ColumnBuilder::new(spec.data_type)
            .policy(spec.load_policy.unwrap_or(policy))
            .with_index(spec.with_index)
            .build(&oracle, t.page_config(), &values)
            .unwrap()
            .column;
        let (got, want) = (main.column(c).chains(), built.chains());
        let roles: Vec<_> = got.iter().map(|&(role, _)| role).collect();
        let want_roles: Vec<_> = want.iter().map(|&(role, _)| role).collect();
        assert_eq!(roles, want_roles, "{what} {}: chain roles", spec.name);
        for (&(role, got), &(_, want)) in got.iter().zip(&want) {
            let what = format!("{what} {} {role}", spec.name);
            assert_same_chain(store, got, oracle.store().as_ref(), want, &what);
        }
    }
}

/// The partition column: partition 0 takes `part < 1`, partition 1 the
/// rest, so moving a row to partition 1 deletes it from partition 0
/// without re-inserting it there.
const PART: usize = 1;
const GRP: usize = 2;
const NOTE: usize = 3;

fn partitioned_schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::new("part", DataType::Integer),
        ColumnSpec::indexed("grp", DataType::Integer),
        ColumnSpec::new("note", DataType::Varchar),
        ColumnSpec::new("amount", DataType::Decimal),
        ColumnSpec::new("ratio", DataType::Double).with_load_policy(LoadPolicy::PageLoadable),
        ColumnSpec::new("constant", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("part")
    .unwrap()
}

fn partitioned_table(store: &Arc<FaultyStore<MemStore>>, policy: LoadPolicy) -> Table {
    let pool = BufferPool::new(
        Arc::clone(store) as Arc<dyn PageStore>,
        ResourceManager::new(),
    );
    let spec = |name: &str, range| PartitionSpec {
        name: name.into(),
        range,
        ..PartitionSpec::single(policy)
    };
    let partitions = vec![
        spec("live", PartitionRange::Below(Value::Integer(1))),
        spec("sink", PartitionRange::AtLeast(Value::Integer(1))),
    ];
    Table::create(pool, PageConfig::tiny(), partitioned_schema(), partitions).unwrap()
}

/// The groups rows fall into, extremes included; group 2 is the only one
/// whose note is `doomed`.
const GROUPS: [i64; 6] = [i64::MIN, -1, 0, 1, 2, i64::MAX];

/// Row `id` of partition `part`, its other values picked by `k` from
/// edge-heavy palettes: signed zeros, NaN and infinities; `i128`
/// extremes; the empty string, strings sharing a 56-byte prefix, strings
/// of 25–100 bytes that spill past the 24-byte inline limit; and one
/// constant.
fn edge_row(id: i64, part: i64, k: usize) -> Row {
    let grp = GROUPS[k % GROUPS.len()];
    let note = match (grp, k % 5) {
        (2, _) => "doomed".to_string(),
        (_, 0) => String::new(),
        (_, 1) => "a".to_string(),
        (_, 2) => "shared-prefix-".repeat(4) + &(k % 3).to_string(),
        (_, 3) => "spill".repeat(5 + k % 16),
        _ => format!("n{}", k % 7),
    };
    let amount = [i128::MIN, i128::MAX, 0, -1, k as i128 * 1_000_000_007][k % 5];
    let ratio = [
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -f64::NAN,
        k as f64 / 3.0,
    ][k % 7];
    vec![
        Value::Integer(id),
        Value::Integer(part),
        Value::Integer(grp),
        Value::Varchar(note),
        Value::Decimal(amount),
        Value::Double(ratio),
        Value::Integer(7),
    ]
}

/// Both partitions' fragments as the test expects them (each an
/// [`Image`]), kept in step with the table.
struct Partitioned {
    parts: Vec<Image>,
}

impl Partitioned {
    fn new() -> Self {
        let image = || Image {
            fragments: vec![Vec::new(), Vec::new()],
        };
        Partitioned {
            parts: vec![image(), image()],
        }
    }

    fn route(row: &Row) -> usize {
        usize::from(row[PART] != Value::Integer(0))
    }

    fn insert(&mut self, t: &Table, row: Row) {
        t.insert(row.clone()).unwrap();
        self.parts[Self::route(&row)]
            .fragments
            .last_mut()
            .unwrap()
            .push(Some(row));
    }

    /// `update_rows` on `grp`: every matching row, in partition, fragment
    /// and row order, is deleted and re-inserted, updated, wherever it now
    /// routes.
    fn update(&mut self, t: &Table, grp: &ValuePredicate, set: usize, value: Value) {
        let name = &t.schema().columns()[set].name;
        let moved = t.update_rows("grp", grp, name, &value).unwrap();
        let mut rows = Vec::new();
        for slot in self
            .parts
            .iter_mut()
            .flat_map(|p| p.fragments.iter_mut().flatten())
        {
            if slot.as_ref().is_some_and(|row| grp.matches(&row[GRP])) {
                rows.push(slot.take().unwrap());
            }
        }
        assert_eq!(moved, rows.len() as u64);
        for mut row in rows {
            row[set] = value.clone();
            self.parts[Self::route(&row)]
                .fragments
                .last_mut()
                .unwrap()
                .push(Some(row));
        }
    }

    /// Whether a merge of partition `pid` has anything to do: frozen
    /// cells, rows in the active cell, or deletes in the main.
    fn dirty(&self, pid: usize) -> bool {
        let f = &self.parts[pid].fragments;
        f.len() > 2 || !f.last().unwrap().is_empty() || f[0].iter().any(Option::is_none)
    }

    /// A merge of `pid` killed at its first write, when it has anything
    /// to do: the active cell, when it holds rows, stays frozen.
    fn abort_merge(&mut self, t: &Table, store: &FaultyStore<MemStore>, pid: usize) {
        store.set_plan(FaultPlan::EveryNthWrite(1));
        let merged = t.delta_merge(PartitionId(pid));
        store.set_plan(FaultPlan::None);
        assert_eq!(
            merged.is_err(),
            self.dirty(pid),
            "partition {pid}: a dirty merge that cannot write aborts"
        );
        let fragments = &mut self.parts[pid].fragments;
        if !fragments.last().unwrap().is_empty() {
            fragments.push(Vec::new());
        }
    }

    /// A successful merge of `pid`, checked chain by chain against the
    /// column builds over the rows it must hold.
    fn merge(&mut self, t: &Table, store: &FaultyStore<MemStore>, pid: usize, what: &str) {
        let policy = t.partitions()[pid].spec().load_policy;
        if policy == LoadPolicy::PageLoadable {
            t.unload_all();
        }
        let expected = self.parts[pid].visible();
        t.delta_merge(PartitionId(pid)).unwrap();
        assert_main_equals_builds(t, pid, store, policy, &expected, what);
        self.parts[pid].fragments = vec![expected.into_iter().map(Some).collect(), Vec::new()];
    }
}

fn eq(grp: i64) -> ValuePredicate {
    ValuePredicate::Eq(Value::Integer(grp))
}

/// Edge values through every merge shape: a shrinking dictionary, a
/// merge with only main deletes, a fully deleted main with and without
/// new rows, and a frozen backlog — each merged chain byte-identical to a
/// column build over the expected rows, under both load policies.
#[test]
fn edge_values_merge_into_chains_equal_to_column_builds() {
    for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let t = partitioned_table(&store, policy);
        let mut m = Partitioned::new();
        let ids = [i64::MIN, i64::MAX].into_iter().chain(0..);
        let mut ids = ids.take(1_000);
        let mut insert = |m: &mut Partitioned, n: usize, part: i64| {
            for k in 0..n {
                m.insert(&t, edge_row(ids.next().unwrap(), part, k));
            }
        };
        let note_cardinality = |t: &Table| t.partitions()[0].main().column(NOTE).cardinality();

        insert(&mut m, 60, 0);
        m.merge(&t, &store, 0, &format!("{policy:?} first main"));
        let before = note_cardinality(&t);

        // Group 2's rows, the only ones noted `doomed`, leave partition 0:
        // its delta stays empty, its main has deletes, and `doomed` drops
        // out of the dictionary.
        m.update(&t, &eq(2), PART, Value::Integer(1));
        assert!(m.parts[0].fragments[1].is_empty());
        m.merge(&t, &store, 0, &format!("{policy:?} main deletes only"));
        assert_eq!(note_cardinality(&t), before - 1, "the dictionary shrinks");

        // A frozen backlog over a main with deletes.
        insert(&mut m, 25, 0);
        m.update(&t, &eq(0), NOTE, Value::Varchar(String::new()));
        m.abort_merge(&t, &store, 0);
        insert(&mut m, 25, 0);
        m.update(&t, &eq(i64::MIN), PART, Value::Integer(1));
        m.merge(&t, &store, 0, &format!("{policy:?} frozen backlog"));

        // Every row leaves partition 0: a fully deleted main, first with
        // an empty delta, then with new rows.
        let every = ValuePredicate::Between(Value::Integer(i64::MIN), Value::Integer(i64::MAX));
        m.update(&t, &every, PART, Value::Integer(1));
        assert!(m.parts[0].visible().is_empty());
        m.merge(&t, &store, 0, &format!("{policy:?} fully deleted main"));
        m.update(&t, &every, PART, Value::Integer(0));
        insert(&mut m, 10, 0);
        m.merge(&t, &store, 0, &format!("{policy:?} refilled main"));
        assert!(m.parts[1].visible().is_empty());
        m.merge(&t, &store, 1, &format!("{policy:?} emptied sink"));
    }
}

/// One operation of a random schedule.
#[derive(Debug, Clone)]
enum Op {
    Insert { rows: usize, part: i64 },
    SetNote { grp: i64, note: String },
    Delete { grp: i64 },
    Merge { pid: usize },
    AbortMerge { pid: usize },
}

/// Prints the seed and the operations run so far when the test panics.
struct Replay {
    seed: u64,
    ops: Vec<Op>,
}

impl Drop for Replay {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "column_wise_merge: seed {} failed after ops {:#?}",
                self.seed, self.ops
            );
        }
    }
}

/// Random inserts, `update_rows`, deletes (moves out of partition 0),
/// merges and aborted merges over a non-empty main: every merged chain is
/// byte-identical to a column build over the rows the merge must hold.
#[test]
fn random_schedules_merge_into_chains_equal_to_column_builds() {
    for seed in 0..16u64 {
        let policy = [LoadPolicy::FullyResident, LoadPolicy::PageLoadable][seed as usize % 2];
        let mut rng = StdRng::seed_from_u64(SEED ^ seed);
        let mut replay = Replay {
            seed,
            ops: Vec::new(),
        };
        let store = Arc::new(FaultyStore::new(MemStore::new(), FaultPlan::None));
        let t = partitioned_table(&store, policy);
        let mut m = Partitioned::new();
        let mut next_id = 0;
        let ops = std::iter::once(Op::Insert { rows: 80, part: 0 })
            .chain(std::iter::once(Op::Merge { pid: 0 }))
            .chain((0..24).map(|_| match rng.random_range(0..10u32) {
                0..=2 => Op::Insert {
                    rows: rng.random_range(1..30),
                    part: i64::from(rng.random_range(0..4u32) == 0),
                },
                3 | 4 => Op::SetNote {
                    grp: GROUPS[rng.random_range(0..GROUPS.len())],
                    note: format!("set-{}", rng.random_range(0..3u32)),
                },
                5 | 6 => Op::Delete {
                    grp: GROUPS[rng.random_range(0..GROUPS.len())],
                },
                7 | 8 => Op::Merge {
                    pid: usize::from(rng.random_range(0..4u32) == 0),
                },
                _ => Op::AbortMerge {
                    pid: usize::from(rng.random_range(0..4u32) == 0),
                },
            }))
            .chain([Op::Merge { pid: 0 }, Op::Merge { pid: 1 }])
            .collect::<Vec<_>>();
        for op in ops {
            replay.ops.push(op.clone());
            let what = format!("seed {seed} {policy:?} op {}", replay.ops.len() - 1);
            match op {
                Op::Insert { rows, part } => {
                    for _ in 0..rows {
                        let k = rng.random_range(0..1_000);
                        m.insert(&t, edge_row(next_id, part, k));
                        next_id += 1;
                    }
                }
                Op::SetNote { grp, note } => m.update(&t, &eq(grp), NOTE, Value::Varchar(note)),
                Op::Delete { grp } => m.update(&t, &eq(grp), PART, Value::Integer(1)),
                Op::Merge { pid } => m.merge(&t, &store, pid, &what),
                Op::AbortMerge { pid } => m.abort_merge(&t, &store, pid),
            }
        }
    }
}

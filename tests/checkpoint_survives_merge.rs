//! A checkpoint outlives the merges after it: a table on a `FileStore` is
//! merged and checkpointed (catalog C), then takes more rows and merges
//! again, which replaces every main fragment C names. Everything is then
//! dropped, as a process exit would, and C reopened: it still answers every
//! `Q_pk^*` and a count over its own rows like the reference executor,
//! under both load policies.

mod reference;

use page_as_you_go::core::{DataType, LoadPolicy, PageConfig, Value, ValuePredicate};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, FileStore};
use page_as_you_go::table::{ColumnSpec, PartitionSpec, Projection, Query, Row, Schema, Table};
use std::sync::Arc;

const ROWS: u64 = 1_000;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::indexed("material", DataType::Varchar),
        ColumnSpec::new("plant", DataType::Varchar),
        ColumnSpec::new("quantity", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("material")
    .unwrap()
}

fn row(i: u64) -> Row {
    vec![
        // Scattered, so the key column keeps a data vector and postings.
        Value::Varchar(format!("MAT-{:07}", (i * 7_919) % 1_000_003)),
        Value::Varchar(format!("plant-{:02}", i % 37)),
        Value::Integer((i * 31 % 1_000) as i64),
    ]
}

fn reopened_checkpoint_answers_after_the_next_merge(policy: LoadPolicy, tag: &str) {
    let dir = std::env::temp_dir()
        .join(format!("payg-checkpoint-merge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first: Vec<Row> = (0..ROWS).map(row).collect();

    // "First process": checkpoint, then more rows and another merge.
    let catalog = {
        let pool =
            BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::default(),
            schema(),
            vec![PartitionSpec::single(policy)],
        )
        .unwrap();
        t.insert_all(first.iter().cloned()).unwrap();
        t.delta_merge_all().unwrap();
        let catalog = t.checkpoint().unwrap();
        t.insert_all((ROWS..2 * ROWS).map(row)).unwrap();
        t.delta_merge_all().unwrap();
        assert_eq!(t.visible_rows(), 2 * ROWS);
        catalog
    };

    // "Second process": C still opens and answers over its own rows.
    let pool = BufferPool::new(Arc::new(FileStore::open(&dir).unwrap()), ResourceManager::new());
    let t = Table::open(pool, catalog).unwrap();
    let session = t.session().unwrap();
    let mut keys: Vec<Value> = first.iter().map(|r| r[0].clone()).collect();
    keys.extend([row(ROWS)[0].clone(), Value::Varchar("MAT-".into())]);
    for key in keys {
        let q = Query::filtered("material", ValuePredicate::Eq(key), Projection::All);
        reference::assert_answers(&session, &first, &q, tag);
    }
    reference::assert_answers(&session, &first, &Query::full(Projection::Count), tag);

    drop(session);
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_survives_the_next_merge() {
    reopened_checkpoint_answers_after_the_next_merge(LoadPolicy::PageLoadable, "paged");
    reopened_checkpoint_answers_after_the_next_merge(LoadPolicy::FullyResident, "resident");
}

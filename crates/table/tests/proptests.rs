//! Property-based tests for the table layer: delta merge and aging moves
//! preserve the visible row multiset; queries agree with brute force.

use payg_core::{DataType, KeyPredicate, LoadPolicy, PageConfig, Value, ValuePredicate};
use payg_resman::ResourceManager;
use payg_storage::{BufferPool, MemStore};
use payg_table::{
    ColumnSpec, PartitionRange, PartitionSpec, Projection, Query, QueryResult, Row, Schema, Table,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnSpec::new("id", DataType::Integer),
        ColumnSpec::new("tag", DataType::Varchar),
        ColumnSpec::new("temp", DataType::Integer),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
    .with_partition_column("temp")
    .unwrap()
}

fn table(policy: LoadPolicy) -> Table {
    let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
    Table::create(
        pool,
        PageConfig::tiny(),
        schema(),
        vec![
            PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(100))),
            {
                let mut c = PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(100)));
                c.load_policy = policy;
                c
            },
        ],
    )
    .unwrap()
}

fn row(id: i64, tag: u8, temp: i64) -> Row {
    vec![Value::Integer(id), Value::Varchar(format!("tag-{tag}").into()), Value::Integer(temp)]
}

/// Canonical multiset of visible rows, keyed by id.
fn visible(t: &Table) -> BTreeMap<i64, (Arc<str>, i64)> {
    let rows = t.execute(&Query::full(Projection::All)).unwrap().into_rows();
    rows.into_iter()
        .map(|r| match (&r[0], &r[1], &r[2]) {
            (Value::Integer(id), Value::Varchar(tag), Value::Integer(temp)) => {
                (*id, (tag.clone(), *temp))
            }
            other => panic!("{other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Inserts followed by any interleaving of delta merges never lose or
    /// duplicate rows, on either storage policy.
    #[test]
    fn merges_preserve_visible_rows(
        rows in prop::collection::vec((0i64..5_000, 0u8..6, 0i64..200), 1..120),
        merge_points in prop::collection::vec(any::<bool>(), 1..120),
        policy_paged in any::<bool>(),
    ) {
        let policy = if policy_paged { LoadPolicy::PageLoadable } else { LoadPolicy::FullyResident };
        let t = table(policy);
        let mut expected: BTreeMap<i64, (Arc<str>, i64)> = BTreeMap::new();
        for (i, &(id, tag, temp)) in rows.iter().enumerate() {
            // Make ids unique so the multiset is a map: disjoint per-row
            // ranges of width 5000.
            let id = i as i64 * 5_000 + id;
            t.insert(row(id, tag, temp)).unwrap();
            expected.insert(id, (format!("tag-{tag}").into(), temp));
            if merge_points.get(i).copied().unwrap_or(false) {
                t.delta_merge_all().unwrap();
            }
        }
        prop_assert_eq!(visible(&t), expected.clone());
        t.delta_merge_all().unwrap();
        prop_assert_eq!(visible(&t), expected);
    }

    /// Updates to the partition column relocate rows without losing any,
    /// and queries find the updated values afterwards.
    #[test]
    fn partition_moves_preserve_rows(
        seeds in prop::collection::vec((0u8..6, 0i64..200), 5..60),
        move_to_cold in prop::collection::vec(any::<bool>(), 5..60),
        merge_between in any::<bool>(),
    ) {
        let t = table(LoadPolicy::PageLoadable);
        for (i, &(tag, temp)) in seeds.iter().enumerate() {
            t.insert(row(i as i64, tag, temp)).unwrap();
        }
        if merge_between {
            t.delta_merge_all().unwrap();
        }
        let mut expected = visible(&t);
        for (i, &mv) in move_to_cold.iter().enumerate() {
            if !mv || i >= seeds.len() {
                continue;
            }
            let id = i as i64;
            let new_temp = 5i64; // cold range
            let n = t
                .update_rows(
                    "id",
                    &ValuePredicate::Eq(Value::Integer(id)),
                    "temp",
                    &Value::Integer(new_temp),
                )
                .unwrap();
            prop_assert_eq!(n, 1);
            expected.get_mut(&id).unwrap().1 = new_temp;
        }
        prop_assert_eq!(visible(&t), expected.clone());
        t.delta_merge_all().unwrap();
        prop_assert_eq!(visible(&t), expected);
    }

    /// Every filter shape agrees with brute-force evaluation over the rows.
    #[test]
    fn queries_agree_with_brute_force(
        seeds in prop::collection::vec((0u8..6, 0i64..200), 10..80),
        probe_tag in 0u8..6,
        lo in 0i64..200,
        span in 0i64..80,
    ) {
        let t = table(LoadPolicy::PageLoadable);
        let mut raw: Vec<Row> = Vec::new();
        for (i, &(tag, temp)) in seeds.iter().enumerate() {
            let r = row(i as i64, tag, temp);
            raw.push(r.clone());
            t.insert(r).unwrap();
        }
        t.delta_merge_all().unwrap();
        for pred in [
            ValuePredicate::Eq(Value::Varchar(format!("tag-{probe_tag}").into())),
            ValuePredicate::StartsWith("tag-".into()),
            ValuePredicate::StartsWith(format!("tag-{probe_tag}")),
        ] {
            let q = Query::filtered("tag", pred.clone(), Projection::Count);
            let expect = raw.iter().filter(|r| pred.matches(&r[1])).count() as u64;
            prop_assert_eq!(t.execute(&q).unwrap().count(), expect, "{:?}", pred);
        }
        let pred = ValuePredicate::Between(Value::Integer(lo), Value::Integer(lo + span));
        let q = Query::filtered("temp", pred.clone(), Projection::Count);
        let expect = raw.iter().filter(|r| pred.matches(&r[2])).count() as u64;
        prop_assert_eq!(t.execute(&q).unwrap().count(), expect);
    }

    /// Filtered `SUM` / `MIN` / `MAX` / `DISTINCT` — folded in the vid domain
    /// over each main fragment — ≡ the same fold over a plain `Vec<Row>`, on
    /// a two-partition table holding merged main rows, main rows deleted by
    /// an update, the updated rows live in the delta, and fresh delta rows;
    /// with the filter on the partition column (pruning) and off it.
    #[test]
    fn filtered_aggregates_agree_with_row_fold(
        seeds in prop::collection::vec((0u8..6, 0i64..200), 10..80),
        updated in prop::collection::vec(any::<bool>(), 10..80),
        fresh in prop::collection::vec((0u8..6, 0i64..200), 0..12),
        lo in 0i64..200,
        span in 0i64..120,
        policy_paged in any::<bool>(),
    ) {
        let policy = if policy_paged { LoadPolicy::PageLoadable } else { LoadPolicy::FullyResident };
        let t = table(policy);
        let mut model: Vec<Row> = Vec::new();
        for (i, &(tag, temp)) in seeds.iter().enumerate() {
            model.push(row(i as i64, tag, temp));
            t.insert(model[i].clone()).unwrap();
        }
        t.delta_merge_all().unwrap();
        // An update deletes the main row and re-inserts it into the delta.
        for (i, _) in updated.iter().enumerate().filter(|&(i, &u)| u && i < seeds.len()) {
            let id = ValuePredicate::Eq(Value::Integer(i as i64));
            let retagged = Value::Varchar("tag-updated".into());
            prop_assert_eq!(t.update_rows("id", &id, "tag", &retagged).unwrap(), 1);
            model[i][1] = retagged;
        }
        for (k, &(tag, temp)) in fresh.iter().enumerate() {
            model.push(row((seeds.len() + k) as i64, tag, temp));
            t.insert(model[seeds.len() + k].clone()).unwrap();
        }

        let by_key = |a: &&Value, b: &&Value| a.to_key().cmp(&b.to_key());
        for (filter_col, ci) in [("temp", 2usize), ("id", 0)] {
            let pred = ValuePredicate::Between(Value::Integer(lo), Value::Integer(lo + span));
            let matching: Vec<&Row> = model.iter().filter(|r| pred.matches(&r[ci])).collect();
            let run = |projection: Projection| {
                t.execute(&Query::filtered(filter_col, pred.clone(), projection)).unwrap()
            };
            for (name, c) in [("id", 0usize), ("temp", 2)] {
                let sum: i64 = matching
                    .iter()
                    .map(|r| match r[c] { Value::Integer(v) => v, _ => unreachable!() })
                    .sum();
                prop_assert_eq!(
                    run(Projection::Sum(name.into())),
                    QueryResult::Sum(Value::Integer(sum)),
                    "SUM({}) WHERE {}", name, filter_col
                );
            }
            for (name, c) in [("tag", 1usize), ("temp", 2)] {
                let values = || matching.iter().map(|r| &r[c]);
                prop_assert_eq!(
                    run(Projection::Min(name.into())),
                    QueryResult::Extreme(values().min_by(by_key).cloned()),
                    "MIN({}) WHERE {}", name, filter_col
                );
                prop_assert_eq!(
                    run(Projection::Max(name.into())),
                    QueryResult::Extreme(values().max_by(by_key).cloned()),
                    "MAX({}) WHERE {}", name, filter_col
                );
                let mut distinct: Vec<&Value> = values().collect();
                distinct.sort_by(by_key);
                distinct.dedup();
                let distinct: Vec<Row> = distinct.into_iter().map(|v| vec![v.clone()]).collect();
                prop_assert_eq!(
                    run(Projection::Distinct(name.into())).into_rows(),
                    distinct,
                    "DISTINCT {} WHERE {}", name, filter_col
                );
            }
        }
    }
}

/// A domain for the pruning property: few enough values that ranges,
/// predicates and rows meet often, with the edges of the type among them.
fn pruning_domain(strings: bool) -> (DataType, Vec<Value>) {
    if strings {
        let words = ["", "a", "ab", "abc", "b", "ba", "\u{10FFFF}", "a\u{10FFFF}"];
        (DataType::Varchar, words.map(Value::from).to_vec())
    } else {
        (DataType::Integer, [i64::MIN, -2, -1, 0, 1, 2, i64::MAX, 7].map(Value::Integer).to_vec())
    }
}

proptest! {
    /// Pruning is sound: whenever `pred` matches a value the range accepts,
    /// the range may match `pred` — over every range shape and every
    /// predicate shape, prefixes included.
    #[test]
    fn partition_pruning_is_sound(
        strings in any::<bool>(),
        range_kind in 0u8..4,
        ends in (0usize..8, 0usize..8),
        pred_kind in 0u8..4,
        picks in prop::collection::vec(0usize..8, 0..4),
    ) {
        let (ty, domain) = pruning_domain(strings);
        let at = |i: usize| domain[i].clone();
        let range = match range_kind {
            0 => PartitionRange::All,
            1 => PartitionRange::Below(at(ends.0)),
            2 => PartitionRange::AtLeast(at(ends.0)),
            _ => PartitionRange::Between(at(ends.0), at(ends.1)),
        };
        let (first, second) = (picks.first().map_or(0, |&i| i), picks.last().map_or(7, |&i| i));
        let pred = match (pred_kind, at(first)) {
            (0, v) => ValuePredicate::Eq(v),
            (1, v) => ValuePredicate::Between(v, at(second)),
            (2, _) => ValuePredicate::In(picks.iter().map(|&i| at(i)).collect()),
            (_, Value::Varchar(s)) => {
                ValuePredicate::StartsWith(s.chars().take(second % 3).collect())
            }
            (_, v) => ValuePredicate::Eq(v),
        };
        let bounds = range.bounds();
        let may_match = KeyPredicate::compile(&pred, ty).unwrap().overlaps(&bounds);
        for v in &domain {
            if pred.matches(v) && bounds.contains(&v.to_key()) {
                prop_assert!(may_match, "{:?} pruned {:?}, which holds {:?}", pred, range, v);
            }
        }
    }
}

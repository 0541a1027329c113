//! The reference executor: a fold over a plain `Vec<Row>` — no dictionary,
//! no page, no delta, no partition — that answers every [`Projection`]
//! under every `ValuePredicate` shape by `ValuePredicate::matches`, the
//! value-domain semantics. Root tests compare `Snapshot::execute` with it
//! through [`assert_answers`].

use page_as_you_go::core::{DataType, Value};
use page_as_you_go::table::{Projection, Query, QueryResult, Row, Rows, Schema, Snapshot};

/// The answer to `q` over `rows`, a table of `schema`. `DISTINCT` answers
/// in ascending key order, as the engine does; other rows are in the
/// model's order, and [`assert_answers`] compares them as a multiset. Row identifiers
/// are opaque, so the reference numbers the matching rows from 0.
///
/// # Panics
/// On an unknown column or a `SUM` over VARCHAR (the engine's typed
/// errors, which the reference does not model).
pub fn execute(schema: &Schema, rows: &[Row], q: &Query) -> QueryResult {
    let col = |name: &str| schema.column_index(name).unwrap();
    let matching: Vec<&Row> = match &q.filter {
        Some((name, pred)) => {
            let c = col(name);
            rows.iter().filter(|r| pred.matches(&r[c])).collect()
        }
        None => rows.iter().collect(),
    };
    let values = |name: &str| -> Vec<&Value> {
        let c = col(name);
        matching.iter().map(|r| &r[c]).collect()
    };
    let by_key = |a: &&Value, b: &&Value| a.to_key().cmp(&b.to_key());
    match &q.projection {
        Projection::All => QueryResult::Rows(Rows::from(matching.into_iter().cloned().collect::<Vec<_>>())),
        Projection::Columns(names) => {
            let cols: Vec<usize> = names.iter().map(|n| col(n)).collect();
            let project = |r: &&Row| cols.iter().map(|&c| r[c].clone()).collect();
            QueryResult::Rows(Rows::from(matching.iter().map(project).collect::<Vec<_>>()))
        }
        Projection::Count => QueryResult::Count(matching.len() as u64),
        Projection::RowIds => QueryResult::RowIds((0..matching.len() as u64).collect()),
        Projection::Sum(name) => {
            QueryResult::Sum(sum(schema.columns()[col(name)].data_type, &values(name)))
        }
        Projection::Min(name) => {
            QueryResult::Extreme(values(name).into_iter().min_by(by_key).cloned())
        }
        Projection::Max(name) => {
            QueryResult::Extreme(values(name).into_iter().max_by(by_key).cloned())
        }
        Projection::Distinct(name) => {
            let mut distinct = values(name);
            distinct.sort_by(by_key);
            distinct.dedup_by(|a, b| a.to_key() == b.to_key());
            QueryResult::Rows(Rows::from(distinct.into_iter().map(|v| vec![v.clone()]).collect::<Vec<_>>()))
        }
    }
}

/// `SUM` over `values` of a column of type `ty`: integers add in 128 bits
/// and widen to DECIMAL past `i64`, as the engine's sum does.
fn sum(ty: DataType, values: &[&Value]) -> Value {
    let exact = || {
        values.iter().map(|v| match v {
            Value::Integer(x) => i128::from(*x),
            Value::Decimal(x) => *x,
            other => panic!("not an exact number: {other:?}"),
        })
    };
    match ty {
        DataType::Integer => {
            let total: i128 = exact().sum();
            i64::try_from(total).map_or(Value::Decimal(total * 100), Value::Integer)
        }
        DataType::Decimal => Value::Decimal(exact().sum()),
        // From +0.0, like the engine's accumulator (`Iterator::sum` starts
        // from -0.0).
        DataType::Double => Value::Double(values.iter().fold(0.0, |acc, v| match v {
            Value::Double(x) => acc + x,
            other => panic!("not a double: {other:?}"),
        })),
        DataType::Varchar => panic!("SUM over a VARCHAR column"),
    }
}

/// A result in a form that compares exactly: every value as its type and
/// key (so NaN equals itself and -0.0 differs from 0.0), rows sorted unless
/// the projection orders them (`DISTINCT` answers in ascending key order),
/// and row identifiers by how many there are.
#[derive(Debug, PartialEq)]
enum Canonical {
    Rows(Vec<Vec<(DataType, Vec<u8>)>>),
    Count(u64),
    Value(Option<(DataType, Vec<u8>)>),
    RowIds(usize),
}

fn canonical(projection: &Projection, result: QueryResult) -> Canonical {
    let keyed = |v: &Value| (v.data_type(), v.to_key());
    match result {
        QueryResult::Rows(rows) => {
            let mut rows: Vec<Vec<_>> =
                rows.into_rows().iter().map(|r| r.iter().map(keyed).collect()).collect();
            if !matches!(projection, Projection::Distinct(_)) {
                rows.sort_by(|a, b| a.iter().map(|(_, k)| k).cmp(b.iter().map(|(_, k)| k)));
            }
            Canonical::Rows(rows)
        }
        QueryResult::Count(n) => Canonical::Count(n),
        QueryResult::Sum(v) => Canonical::Value(Some(keyed(&v))),
        QueryResult::Extreme(v) => Canonical::Value(v.as_ref().map(keyed)),
        QueryResult::RowIds(ids) => {
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), ids.len(), "row identifiers repeat: {ids:?}");
            Canonical::RowIds(ids.len())
        }
    }
}

/// Asserts that `session` answers `q` as the reference does over `rows`.
pub fn assert_answers(session: &Snapshot<'_>, rows: &[Row], q: &Query, when: &str) {
    let actual = session.execute(q).unwrap_or_else(|e| panic!("{when}: {q:?}: {e}"));
    let expected = execute(session.schema(), rows, q);
    let p = &q.projection;
    assert_eq!(canonical(p, actual), canonical(p, expected), "{when}: {q:?}");
}

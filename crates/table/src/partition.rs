//! Range partitioning (paper §4.2).
//!
//! Aging-aware tables are range partitioned on the temperature column: one
//! hot partition (default columns) plus cold partitions added with
//! `ADD PARTITION` (page-loadable columns, typically a higher unload
//! priority). A partition's range is encoded once into a key interval
//! ([`PartitionRange::bounds`]), so any column type can partition: routing
//! compares one row key against it, and pruning overlaps it with the
//! query's predicate compiled to keys (`KeyPredicate::overlaps`) — after
//! that compile has type-checked the predicate; "only the columns of
//! relevant partitions are touched" (§4.1).

use payg_core::{KeyRange, LoadPolicy, Value};
use payg_resman::Disposition;
use std::ops::Bound;

/// Identifies a partition within its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub usize);

/// The value range a partition accepts (on the partition column).
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionRange {
    /// Accepts everything (unpartitioned tables' single partition).
    All,
    /// Accepts values `< bound` (typical cold partition: old dates).
    Below(Value),
    /// Accepts values `>= bound` (typical hot partition: recent dates).
    AtLeast(Value),
    /// Accepts `lo <= value < hi`.
    Between(Value, Value),
}

impl PartitionRange {
    /// The range as one key interval: what routing and pruning compare
    /// against, encoded once per range rather than once per comparison.
    pub fn bounds(&self) -> KeyRange {
        let (lo, hi) = match self {
            PartitionRange::All => (Vec::new(), Bound::Unbounded),
            PartitionRange::Below(b) => (Vec::new(), Bound::Excluded(b.to_key())),
            PartitionRange::AtLeast(b) => (b.to_key(), Bound::Unbounded),
            PartitionRange::Between(lo, hi) => (lo.to_key(), Bound::Excluded(hi.to_key())),
        };
        KeyRange { lo, hi }
    }
}

/// Configuration of one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Human-readable name ("hot", "cold-2024", …).
    pub name: String,
    /// Accepted partition-column range.
    pub range: PartitionRange,
    /// Load policy of this partition's main-fragment columns.
    pub load_policy: LoadPolicy,
    /// Eviction disposition for fully-resident columns of this partition
    /// (cold default columns get a cheaper-to-evict disposition).
    pub disposition: Disposition,
}

impl PartitionSpec {
    /// A hot partition: fully resident, ordinary disposition.
    pub fn hot(name: impl Into<String>, range: PartitionRange) -> Self {
        PartitionSpec {
            name: name.into(),
            range,
            load_policy: LoadPolicy::FullyResident,
            disposition: Disposition::MidTerm,
        }
    }

    /// A cold partition: page loadable.
    pub fn cold(name: impl Into<String>, range: PartitionRange) -> Self {
        PartitionSpec {
            name: name.into(),
            range,
            load_policy: LoadPolicy::PageLoadable,
            disposition: Disposition::ShortTerm,
        }
    }

    /// A single catch-all partition for unpartitioned tables.
    pub fn single(load_policy: LoadPolicy) -> Self {
        PartitionSpec {
            name: "default".into(),
            range: PartitionRange::All,
            load_policy,
            disposition: Disposition::MidTerm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use payg_core::{DataType, KeyPredicate, ValuePredicate};

    fn accepts(range: &PartitionRange, v: Value) -> bool {
        range.bounds().contains(&v.to_key())
    }

    fn may_match(range: &PartitionRange, pred: ValuePredicate, ty: DataType) -> bool {
        KeyPredicate::compile(&pred, ty).unwrap().overlaps(&range.bounds())
    }

    #[test]
    fn ranges_accept_correctly() {
        let below = PartitionRange::Below(Value::Integer(10));
        assert!(accepts(&below, Value::Integer(9)));
        assert!(!accepts(&below, Value::Integer(10)));
        assert!(accepts(&below, Value::Integer(i64::MIN)));
        let atleast = PartitionRange::AtLeast(Value::Integer(10));
        assert!(accepts(&atleast, Value::Integer(10)));
        assert!(!accepts(&atleast, Value::Integer(9)));
        let between = PartitionRange::Between(Value::Integer(5), Value::Integer(10));
        assert!(accepts(&between, Value::Integer(5)));
        assert!(accepts(&between, Value::Integer(9)));
        assert!(!accepts(&between, Value::Integer(10)));
        assert!(accepts(&PartitionRange::All, Value::Varchar("anything".into())));
        assert!(accepts(&PartitionRange::Below(Value::Varchar("b".into())), Value::from("")));
    }

    #[test]
    fn pruning_on_predicates() {
        let int = DataType::Integer;
        let cold = PartitionRange::Below(Value::Integer(100));
        let hot = PartitionRange::AtLeast(Value::Integer(100));
        let eq_cold = ValuePredicate::Eq(Value::Integer(50));
        assert!(may_match(&cold, eq_cold.clone(), int));
        assert!(!may_match(&hot, eq_cold, int));
        let range_both = ValuePredicate::Between(Value::Integer(90), Value::Integer(110));
        assert!(may_match(&cold, range_both.clone(), int));
        assert!(may_match(&hot, range_both, int));
        let range_hot = ValuePredicate::Between(Value::Integer(100), Value::Integer(110));
        assert!(!may_match(&cold, range_hot.clone(), int));
        assert!(may_match(&hot, range_hot, int));
        let empty = ValuePredicate::Between(Value::Integer(10), Value::Integer(5));
        assert!(!may_match(&cold, empty.clone(), int));
        assert!(!may_match(&PartitionRange::All, empty, int));
        let in_pred = ValuePredicate::In(vec![Value::Integer(99), Value::Integer(150)]);
        assert!(may_match(&cold, in_pred.clone(), int));
        assert!(may_match(&hot, in_pred, int));
        assert!(!may_match(&hot, ValuePredicate::In(Vec::new()), int));
    }

    /// A prefix is the key interval `[p, successor(p))`, so it prunes a
    /// partition that interval misses (which the value-domain pruning this
    /// replaced never did) and keeps one it touches.
    #[test]
    fn a_prefix_prunes_the_partitions_its_interval_misses() {
        let vc = DataType::Varchar;
        let early = PartitionRange::Below(Value::from("m"));
        let late = PartitionRange::AtLeast(Value::from("m"));
        let prefix = |p: &str| ValuePredicate::StartsWith(p.into());
        assert!(may_match(&early, prefix("ab"), vc));
        assert!(!may_match(&late, prefix("ab"), vc));
        assert!(!may_match(&early, prefix("m"), vc));
        assert!(may_match(&late, prefix("m"), vc));
        // `[l, m)` ends where `late` starts; the empty prefix matches all.
        assert!(!may_match(&late, prefix("l"), vc));
        assert!(may_match(&early, prefix(""), vc) && may_match(&late, prefix(""), vc));
        let mid = PartitionRange::Between(Value::from("ca"), Value::from("cb"));
        assert!(may_match(&mid, prefix("c"), vc));
        assert!(may_match(&mid, prefix("ca\u{10FFFF}"), vc));
        assert!(!may_match(&mid, prefix("cb"), vc));
    }
}

//! Seeded op lists with known answers.
//!
//! The harness hands the engine only generated inputs: each [`Op`] is a
//! `Query` plus the answer the *generator* implies — a digest for row, rowid
//! and sum results, a count interval for `COUNT(*)` — computed without
//! touching the engine, so the oracle is independent of every layer under
//! test. Each op also carries its shape tag and the work it implies (rows
//! and cells materialized, symbols scanned), which the attribution multiplies
//! with probe unit costs.
//!
//! Three mixes: [`OpGen::table2_mix`] (the paper's Table 2 point queries,
//! equal shares, uniform keys), [`OpGen::scan_mix`] (`COUNT(*)` with `=` /
//! `BETWEEN` / `IN` on non-key columns plus `SUM … WHERE pk BETWEEN` at 1 %)
//! and [`OpGen::table3_mix`] (Table 3's `Q*` / `Q_sum` PK ranges at 0.01 % /
//! 0.1 % / 1 % interleaved with `Q_pk^*`).

use crate::api::{
    domain_index, domain_value, value_at, BitWidth, DataType, Projection, Query, QueryResult,
    TableProfile, Value, ValuePredicate,
};

/// The eight query shapes, by the paper's names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// `SELECT C_num WHERE pk = v`.
    QPkNum,
    /// `SELECT C_str WHERE pk = v`.
    QPkStr,
    /// `SELECT * WHERE pk = v`.
    QPkStar,
    /// `SELECT ROWID() WHERE pk = v`.
    QPkRid,
    /// `SELECT COUNT(*) WHERE C_num <pred>`.
    QNumCount,
    /// `SELECT COUNT(*) WHERE C_str <pred>`.
    QStrCount,
    /// `SELECT * WHERE pk BETWEEN a AND b`.
    RangeStar,
    /// `SELECT SUM(C_num) WHERE pk BETWEEN a AND b`.
    RangeSum,
}

impl Shape {
    /// Every shape, in metric order.
    pub const ALL: [Shape; 8] = [
        Shape::QPkNum,
        Shape::QPkStr,
        Shape::QPkStar,
        Shape::QPkRid,
        Shape::QNumCount,
        Shape::QStrCount,
        Shape::RangeStar,
        Shape::RangeSum,
    ];

    /// The tag used in metric names (`table.execute_us.<tag>`).
    pub fn tag(self) -> &'static str {
        match self {
            Shape::QPkNum => "q_pk_num",
            Shape::QPkStr => "q_pk_str",
            Shape::QPkStar => "q_pk_star",
            Shape::QPkRid => "q_pk_rid",
            Shape::QNumCount => "q_num_count",
            Shape::QStrCount => "q_str_count",
            Shape::RangeStar => "range_star",
            Shape::RangeSum => "range_sum",
        }
    }
}

/// The three predicate families a data-vector scan kernel serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// One identifier.
    Eq,
    /// A contiguous identifier range.
    Range,
    /// A small identifier set.
    InSet,
}

/// A full-column scan an op implies when its filter column has no index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scan {
    /// Bit width of the scanned data vector.
    pub width: u32,
    /// Kernel family.
    pub kind: KernelKind,
    /// Symbols scanned.
    pub rows: u64,
}

/// What a correct answer looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// [`digest`] of the exact result.
    Digest(u64),
    /// A count within `lo..=hi` (`lo == hi` unless rows are being ingested
    /// while the query runs).
    Count {
        /// Matches among the rows present before the run.
        lo: u64,
        /// Matches among all rows the run will ever hold.
        hi: u64,
    },
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Shape tag.
    pub shape: Shape,
    /// The query handed to `Snapshot::execute`.
    pub query: Query,
    /// The generator's answer.
    pub expect: Expect,
    /// Result rows the engine must materialize.
    pub rows: u32,
    /// Result cells (rows × projected columns) the engine must materialize.
    pub cells: u32,
    /// The scan the op runs when its filter column is unindexed.
    pub scan: Option<Scan>,
}

impl Op {
    /// True when `res` is the generator's answer.
    pub fn check(&self, res: &QueryResult) -> bool {
        match (self.expect, res) {
            (Expect::Count { lo, hi }, QueryResult::Count(n)) => (lo..=hi).contains(n),
            (Expect::Digest(d), res) => digest(res) == Some(d),
            _ => false,
        }
    }
}

const SEED_ROWS: u64 = 0x726f_7773;
const SEED_ROW: u64 = 0x0072_6f77;
const SEED_IDS: u64 = 0x0069_6473;
const SEED_SUM: u64 = 0x0073_756d;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn fold(h: u64, x: u64) -> u64 {
    mix(h.rotate_left(5) ^ x)
}

fn hash_value(v: &Value) -> u64 {
    let tag = match v.data_type() {
        DataType::Integer => 1,
        DataType::Decimal => 2,
        DataType::Double => 3,
        DataType::Varchar => 4,
    };
    v.to_key().iter().fold(tag, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Order-sensitive digest of a result; `None` for shapes no op produces.
pub fn digest(res: &QueryResult) -> Option<u64> {
    Some(match res {
        QueryResult::Rows(rows) => {
            rows.iter()
                .fold(fold(SEED_ROWS, rows.len() as u64), |h, row| {
                    fold(
                        h,
                        row.iter().fold(SEED_ROW, |rh, v| fold(rh, hash_value(v))),
                    )
                })
        }
        QueryResult::RowIds(ids) => ids
            .iter()
            .fold(fold(SEED_IDS, ids.len() as u64), |h, &id| fold(h, id)),
        QueryResult::Sum(v) => fold(SEED_SUM, hash_value(v)),
        QueryResult::Count(_) | QueryResult::Extreme(_) => return None,
    })
}

/// An independent seed for stream `stream` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// SplitMix64 sequence.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below the noise).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Raw bytes of one generated value — the "user bytes" denominators.
pub fn raw_len(v: &Value) -> u64 {
    match v {
        Value::Integer(_) | Value::Double(_) => 8,
        Value::Decimal(_) => 16,
        Value::Varchar(s) => s.len() as u64,
    }
}

/// Answers implied by the generator alone.
pub struct Oracle {
    /// The dataset (its `rows` is the most the table will ever hold).
    pub profile: TableProfile,
    /// Rows present before the run (`== profile.rows` unless ingesting).
    pub present_rows: u64,
    /// Per column, matches per domain index among the present rows.
    hist_lo: Vec<Vec<u32>>,
    /// Per column, matches per domain index among all rows.
    hist_hi: Vec<Vec<u32>>,
    /// Per non-key column, [`hash_value`] per domain index.
    value_hash: Vec<Vec<u64>>,
}

impl Oracle {
    /// Builds the lookup tables: one generator pass over rows × columns.
    pub fn new(profile: TableProfile, present_rows: u64) -> Self {
        let ncols = profile.columns.len();
        let mut hist_lo: Vec<Vec<u32>> = Vec::with_capacity(ncols);
        let mut hist_hi = Vec::with_capacity(ncols);
        let mut value_hash = Vec::with_capacity(ncols);
        for c in 0..ncols {
            if c == 0 {
                // The key is a permutation: every value occurs once.
                hist_lo.push(Vec::new());
                hist_hi.push(Vec::new());
                value_hash.push(Vec::new());
                continue;
            }
            let card = profile.columns[c].cardinality;
            let mut lo = vec![0u32; card as usize];
            for r in 0..present_rows {
                lo[domain_index(&profile, c, r) as usize] += 1;
            }
            let mut hi = lo.clone();
            for r in present_rows..profile.rows {
                hi[domain_index(&profile, c, r) as usize] += 1;
            }
            hist_lo.push(lo);
            hist_hi.push(hi);
            value_hash.push(
                (0..card)
                    .map(|i| hash_value(&domain_value(&profile, c, i)))
                    .collect(),
            );
        }
        Oracle {
            profile,
            present_rows,
            hist_lo,
            hist_hi,
            value_hash,
        }
    }

    fn cell_hash(&self, col: usize, row: u64) -> u64 {
        if col == 0 {
            hash_value(&domain_value(&self.profile, 0, row))
        } else {
            self.value_hash[col][domain_index(&self.profile, col, row) as usize]
        }
    }

    fn rows_digest(&self, rows: std::ops::Range<u64>, cols: &[usize]) -> u64 {
        rows.clone()
            .fold(fold(SEED_ROWS, rows.end - rows.start), |h, r| {
                fold(
                    h,
                    cols.iter()
                        .fold(SEED_ROW, |rh, &c| fold(rh, self.cell_hash(c, r))),
                )
            })
    }

    fn count(&self, col: usize, idxs: impl Iterator<Item = u64> + Clone) -> Expect {
        let sum = |h: &Vec<u32>| idxs.clone().map(|i| u64::from(h[i as usize])).sum();
        Expect::Count {
            lo: sum(&self.hist_lo[col]),
            hi: sum(&self.hist_hi[col]),
        }
    }

    /// The digest of `SELECT *` for `row` — the post-reopen sample check.
    pub fn star_digest(&self, row: u64) -> u64 {
        let all: Vec<usize> = (0..self.profile.columns.len()).collect();
        self.rows_digest(row..row + 1, &all)
    }
}

/// A column set visited in seed-shuffled round-robin: every op list draws
/// each column equally often, so what a list costs does not depend on how
/// many wide (expensive) columns the seed happened to pick.
struct Cycle {
    order: Vec<usize>,
    next: usize,
}

impl Cycle {
    fn new(mut cols: Vec<usize>, rng: &mut Rng) -> Self {
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Cycle {
            order: cols,
            next: 0,
        }
    }

    fn next(&mut self) -> usize {
        self.next += 1;
        self.order[(self.next - 1) % self.order.len()]
    }
}

/// Draws op lists over an [`Oracle`]'s dataset. Deterministic per seed.
pub struct OpGen<'a> {
    oracle: &'a Oracle,
    rng: Rng,
    all_cols: Vec<usize>,
    /// Projected or counted through an index: numeric, string.
    indexed: [Cycle; 2],
    /// Counted by a scan (a data vector exists: cardinality > 1).
    scanned: [Cycle; 2],
    /// Summed: INTEGER and DECIMAL.
    summed: Cycle,
}

const TABLE2: [Shape; 6] = [
    Shape::QPkNum,
    Shape::QPkStr,
    Shape::QPkStar,
    Shape::QPkRid,
    Shape::QNumCount,
    Shape::QStrCount,
];

impl<'a> OpGen<'a> {
    /// A generator over `oracle`'s dataset.
    pub fn new(oracle: &'a Oracle, seed: u64) -> Self {
        let cols = &oracle.profile.columns;
        let mut rng = Rng::new(seed);
        let mut of = |pred: &dyn Fn(DataType, u64) -> bool| {
            let set = (1..cols.len()).filter(|&c| pred(cols[c].data_type, cols[c].cardinality));
            Cycle::new(set.collect(), &mut rng)
        };
        let (num, text) = (|t| t != DataType::Varchar, |t| t == DataType::Varchar);
        OpGen {
            oracle,
            all_cols: (0..cols.len()).collect(),
            indexed: [of(&|t, _| num(t)), of(&|t, _| text(t))],
            scanned: [
                of(&|t, card| num(t) && card > 1),
                of(&|t, card| text(t) && card > 1),
            ],
            summed: of(&|t, _| matches!(t, DataType::Integer | DataType::Decimal)),
            rng,
        }
    }

    fn profile(&self) -> &'a TableProfile {
        &self.oracle.profile
    }

    fn name(&self, col: usize) -> String {
        self.profile().columns[col].name.clone()
    }

    fn key_row(&mut self) -> u64 {
        self.rng.below(self.oracle.present_rows)
    }

    fn pk_point(&mut self, shape: Shape) -> Op {
        let row = self.key_row();
        let pred = ValuePredicate::Eq(domain_value(self.profile(), 0, row));
        let (projection, expect, cells) = match shape {
            Shape::QPkStar => {
                let d = self.oracle.rows_digest(row..row + 1, &self.all_cols);
                (Projection::All, d, self.all_cols.len())
            }
            Shape::QPkRid => {
                // One unpartitioned main fragment: ROWID is the row position,
                // and merges keep insertion order.
                (Projection::RowIds, fold(fold(SEED_IDS, 1), row), 0)
            }
            _ => {
                let col = self.indexed[usize::from(shape == Shape::QPkStr)].next();
                let d = self.oracle.rows_digest(row..row + 1, &[col]);
                (Projection::Columns(vec![self.name(col)]), d, 1)
            }
        };
        Op {
            shape,
            query: Query::filtered(self.name(0), pred, projection),
            expect: Expect::Digest(expect),
            rows: 1,
            cells: cells as u32,
            scan: None,
        }
    }

    /// `COUNT(*) WHERE col <kind-predicate>`; `indexed` says whether the
    /// engine can answer from an inverted index instead of scanning.
    fn count(&mut self, shape: Shape, kind: KernelKind, indexed: bool) -> Op {
        let p = self.profile();
        let pools = if indexed {
            &mut self.indexed
        } else {
            &mut self.scanned
        };
        let col = pools[usize::from(shape == Shape::QStrCount)].next();
        let card = p.columns[col].cardinality;
        let value = |i: u64| domain_value(p, col, i);
        let (pred, expect) = match kind {
            KernelKind::Eq => {
                // A value some present row holds, so the count is nonzero.
                let idx = domain_index(p, col, self.key_row());
                (
                    ValuePredicate::Eq(value(idx)),
                    self.oracle.count(col, idx..idx + 1),
                )
            }
            KernelKind::Range => {
                // Domain values are monotone in their index for every type.
                let lo = self.rng.below(card);
                let hi = (lo + (card / 10).max(1) - 1).min(card - 1);
                (
                    ValuePredicate::Between(value(lo), value(hi)),
                    self.oracle.count(col, lo..hi + 1),
                )
            }
            KernelKind::InSet => {
                let mut idxs: Vec<u64> = (0..4).map(|_| self.rng.below(card)).collect();
                idxs.sort_unstable();
                idxs.dedup();
                let pred = ValuePredicate::In(idxs.iter().map(|&i| value(i)).collect());
                (pred, self.oracle.count(col, idxs.iter().copied()))
            }
        };
        Op {
            shape,
            query: Query::filtered(self.name(col), pred, Projection::Count),
            expect,
            rows: 0,
            cells: 0,
            scan: (!indexed).then(|| Scan {
                width: BitWidth::for_cardinality(card).bits(),
                kind,
                rows: self.oracle.present_rows,
            }),
        }
    }

    fn pk_range(&mut self, shape: Shape, selectivity: f64) -> Op {
        let p = self.profile();
        let rows = self.oracle.present_rows;
        let span = ((rows as f64 * selectivity).ceil() as u64).clamp(1, rows);
        let start = self.rng.below(rows - span + 1);
        let pred = ValuePredicate::Between(
            domain_value(p, 0, start),
            domain_value(p, 0, start + span - 1),
        );
        let (projection, expect, cells) = if shape == Shape::RangeStar {
            (
                Projection::All,
                self.oracle.rows_digest(start..start + span, &self.all_cols),
                span * self.all_cols.len() as u64,
            )
        } else {
            let col = self.summed.next();
            let mut sum = 0i128;
            for r in start..start + span {
                sum += match value_at(p, col, r) {
                    Value::Integer(v) => i128::from(v),
                    Value::Decimal(v) => v,
                    other => unreachable!("sum columns are INTEGER or DECIMAL, got {other:?}"),
                };
            }
            let total = match p.columns[col].data_type {
                DataType::Integer => Value::Integer(sum as i64),
                _ => Value::Decimal(sum),
            };
            (
                Projection::Sum(self.name(col)),
                fold(SEED_SUM, hash_value(&total)),
                span,
            )
        };
        Op {
            shape,
            query: Query::filtered(self.name(0), pred, projection),
            expect: Expect::Digest(expect),
            rows: span as u32,
            cells: cells as u32,
            scan: None,
        }
    }

    /// `n` ops of the paper's Table 2 mix in equal shares over uniform keys,
    /// against a table with an inverted index on every column.
    pub fn table2_mix(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| match TABLE2[i % TABLE2.len()] {
                s @ (Shape::QNumCount | Shape::QStrCount) => self.count(s, KernelKind::Eq, true),
                s => self.pk_point(s),
            })
            .collect()
    }

    /// `n` ops cycling `COUNT(*)` with `=` / `BETWEEN` / `IN` over numeric
    /// and string columns without an index, then `SUM(c) WHERE pk BETWEEN`
    /// at 1 %.
    pub fn scan_mix(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| match i % 7 {
                0 => self.count(Shape::QNumCount, KernelKind::Eq, false),
                1 => self.count(Shape::QStrCount, KernelKind::Eq, false),
                2 => self.count(Shape::QNumCount, KernelKind::Range, false),
                3 => self.count(Shape::QStrCount, KernelKind::Range, false),
                4 => self.count(Shape::QNumCount, KernelKind::InSet, false),
                5 => self.count(Shape::QStrCount, KernelKind::InSet, false),
                _ => self.pk_range(Shape::RangeSum, 0.01),
            })
            .collect()
    }

    /// `n` ops cycling Table 3's `Q*` and `Q_sum` PK ranges at 0.01 % /
    /// 0.1 % / 1 %, each followed by one `Q_pk^*`.
    pub fn table3_mix(&mut self, n: usize) -> Vec<Op> {
        const SEL: [f64; 3] = [0.0001, 0.001, 0.01];
        (0..n)
            .map(|i| {
                let k = i % 12;
                if k % 2 == 1 {
                    self.pk_point(Shape::QPkStar)
                } else if k < 6 {
                    self.pk_range(Shape::RangeStar, SEL[k / 2])
                } else {
                    self.pk_range(Shape::RangeSum, SEL[(k - 6) / 2])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_tagged() {
        let oracle = Oracle::new(TableProfile::erp(2_000, 17, 5), 2_000);
        let lists = |seed| {
            let mut g = OpGen::new(&oracle, seed);
            (g.table2_mix(12), g.scan_mix(14), g.table3_mix(24))
        };
        let (a, b) = (lists(9), lists(9));
        for (x, y) in
            a.0.iter()
                .chain(&a.1)
                .chain(&a.2)
                .zip(b.0.iter().chain(&b.1).chain(&b.2))
        {
            assert_eq!((x.shape, &x.query, x.expect), (y.shape, &y.query, y.expect));
        }
        assert_ne!(a.0[0].query, lists(10).0[0].query);
        assert!(a.0.iter().all(|o| o.scan.is_none()));
        assert!(a
            .1
            .iter()
            .all(|o| o.scan.is_some() == (o.shape != Shape::RangeSum)));
        let stars = a.2.iter().filter(|o| o.shape == Shape::QPkStar).count();
        assert_eq!(stars, 12, "every second table3 op is a point read");
        assert_eq!(a.2[4].rows, 20, "1 % of 2 000 rows");
    }
}

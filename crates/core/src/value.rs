//! Typed values and their order-preserving key encoding.

use crate::{CoreError, CoreResult};
use payg_encoding::okey;
use std::ops::Bound;
use std::sync::Arc;

/// Column data types (the paper's generator uses INTEGER, DECIMAL, DOUBLE,
/// CHAR and VARCHAR; CHAR and VARCHAR share the string representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// Fixed-point decimal stored as a scaled 128-bit integer (scale 2:
    /// the stored value is in hundredths, e.g. cents).
    Decimal,
    /// IEEE-754 double, totally ordered (NaN sorts last).
    Double,
    /// UTF-8 string (CHAR / VARCHAR).
    Varchar,
}

impl DataType {
    /// Bytes of the type's order-preserving key ([`Value::to_key`]) when
    /// every value's key has the same length — the numeric types — and
    /// `None` for strings. Fixed-width keys are what lets a dictionary be
    /// pages of sorted keys instead of the string structure.
    pub fn key_width(self) -> Option<usize> {
        match self {
            DataType::Integer | DataType::Double => Some(8),
            DataType::Decimal => Some(16),
            DataType::Varchar => None,
        }
    }
}

/// A typed value. A string is shared, not owned: a value decoded once from
/// a dictionary serves every row that holds it, and cloning it is a
/// reference-count increment.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// INTEGER.
    Integer(i64),
    /// DECIMAL, scale 2 (`Decimal(1999)` is 19.99).
    Decimal(i128),
    /// DOUBLE.
    Double(f64),
    /// CHAR / VARCHAR.
    Varchar(Arc<str>),
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Integer(_) => DataType::Integer,
            Value::Decimal(_) => DataType::Decimal,
            Value::Double(_) => DataType::Double,
            Value::Varchar(_) => DataType::Varchar,
        }
    }

    /// Encodes the value as an order-preserving byte key (see
    /// [`payg_encoding::okey`]). Keys of one column compare like the values.
    pub fn to_key(&self) -> Vec<u8> {
        let mut key = Vec::new();
        self.write_key(&mut key);
        key
    }

    /// Appends the value's key ([`Value::to_key`]) to `out`: no allocation
    /// when `out` has room.
    pub fn write_key(&self, out: &mut Vec<u8>) {
        match self {
            Value::Integer(v) => out.extend_from_slice(&okey::encode_i64(*v)),
            Value::Decimal(v) => out.extend_from_slice(&okey::encode_i128(*v)),
            Value::Double(v) => out.extend_from_slice(&okey::encode_f64(*v)),
            Value::Varchar(s) => out.extend_from_slice(okey::encode_str(s)),
        }
    }

    /// Decodes a key produced by [`Value::to_key`] back into a value of type
    /// `ty`. A string is checked where the key lies and copied once, into
    /// its shared allocation.
    pub fn from_key(ty: DataType, key: &[u8]) -> CoreResult<Value> {
        Ok(match ty {
            DataType::Integer => Value::Integer(okey::decode_i64(key)?),
            DataType::Decimal => Value::Decimal(okey::decode_i128(key)?),
            DataType::Double => Value::Double(okey::decode_f64(key)?),
            DataType::Varchar => Value::Varchar(okey::decode_str(key)?.into()),
        })
    }

    /// Validates that the value matches the column type `ty`.
    pub fn check_type(&self, ty: DataType) -> CoreResult<()> {
        if self.data_type() == ty {
            Ok(())
        } else {
            Err(CoreError::TypeMismatch { expected: ty, got: self.data_type() })
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v.into())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Integer(v) => write!(f, "{v}"),
            Value::Decimal(v) => write!(f, "{}.{:02}", v / 100, (v % 100).abs()),
            Value::Double(v) => write!(f, "{v}"),
            Value::Varchar(s) => write!(f, "{s}"),
        }
    }
}

/// A running `SUM` over a numeric column, as the number its values add
/// into: an `i128` for INTEGER and DECIMAL, an `f64` for DOUBLE. An INTEGER
/// sum cannot overflow (|x| < 2⁶³ over fewer than 2⁶³ rows); a DECIMAL one
/// adds with checked arithmetic, and a DOUBLE one adds `x * count` in the
/// order it is handed the values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sum {
    /// The exact sum of INTEGER values.
    Integer(i128),
    /// The exact sum of DECIMAL values, scale 2.
    Decimal(i128),
    /// The sum of DOUBLE values.
    Double(f64),
}

impl Sum {
    /// The empty sum over a column of type `ty`; `None` for VARCHAR.
    pub fn zero(ty: DataType) -> Option<Sum> {
        match ty {
            DataType::Integer => Some(Sum::Integer(0)),
            DataType::Decimal => Some(Sum::Decimal(0)),
            DataType::Double => Some(Sum::Double(0.0)),
            DataType::Varchar => None,
        }
    }

    /// The type of the column the sum is over.
    pub fn data_type(&self) -> DataType {
        match self {
            Sum::Integer(_) => DataType::Integer,
            Sum::Decimal(_) => DataType::Decimal,
            Sum::Double(_) => DataType::Double,
        }
    }

    /// Adds `count` rows holding the value whose order-preserving key is
    /// `key` ([`Value::to_key`] of the sum's type).
    pub fn add_key(&mut self, key: &[u8], count: u64) -> CoreResult<()> {
        match self {
            Sum::Integer(a) => *a += i128::from(okey::decode_i64(key)?) * i128::from(count),
            Sum::Decimal(a) => {
                *a = exact(*a, okey::decode_i128(key)?, count).ok_or(CoreError::SumOverflow)?
            }
            Sum::Double(a) => *a += okey::decode_f64(key)? * count as f64,
        }
        Ok(())
    }
}

/// `acc + x * count`, or `None` past 128 bits. A value that fits 64 bits
/// times a count cannot leave 128 bits: it takes one plain multiply, not
/// the checked 128-bit one (a library call).
#[inline]
pub(crate) fn exact(acc: i128, x: i128, count: u64) -> Option<i128> {
    let product = match i64::try_from(x) {
        Ok(x) => Some(i128::from(x) * i128::from(count)),
        Err(_) => x.checked_mul(i128::from(count)),
    };
    product.and_then(|product| acc.checked_add(product))
}

/// A predicate on one column, expressed over values. Readers evaluate it
/// as the [`KeyPredicate`] it compiles to.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePredicate {
    /// `column = value`.
    Eq(Value),
    /// `lo <= column <= hi` (inclusive).
    Between(Value, Value),
    /// `column IN (values)`.
    In(Vec<Value>),
    /// `column LIKE 'prefix%'` — VARCHAR columns only. Order-preserving
    /// keys make a prefix predicate a contiguous key range, hence a
    /// contiguous vid range (the paper's footnote on LIKE-style searches).
    StartsWith(String),
}

impl ValuePredicate {
    /// Evaluates the predicate directly against a value: the value-domain
    /// reference semantics tests check every [`KeyPredicate`] reader against.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            ValuePredicate::Eq(x) => keys_eq(v, x),
            ValuePredicate::Between(lo, hi) => {
                let k = v.to_key();
                k >= lo.to_key() && k <= hi.to_key()
            }
            ValuePredicate::In(xs) => xs.iter().any(|x| keys_eq(v, x)),
            ValuePredicate::StartsWith(prefix) => {
                matches!(v, Value::Varchar(s) if s.as_bytes().starts_with(prefix.as_bytes()))
            }
        }
    }
}

/// A [`ValuePredicate`] compiled once, against its column's type, into the
/// key domain — the one form every reader evaluates: order-preserving keys
/// make every predicate a set of point keys or one key interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPredicate {
    /// `=` / `IN`: their keys.
    Points(KeyPoints),
    /// `BETWEEN lo AND hi` as `[lo, hi]`; a prefix `p` as
    /// `[p, prefix_successor(p))`. Empty when `lo` is above `hi`.
    Range(KeyRange),
}

impl KeyPredicate {
    /// Compiles `pred` for a column of type `ty`: a value (or a prefix) the
    /// column cannot hold is a [`CoreError::TypeMismatch`].
    pub fn compile(pred: &ValuePredicate, ty: DataType) -> CoreResult<KeyPredicate> {
        let key = |v: &Value| v.check_type(ty).map(|()| v.to_key());
        Ok(match pred {
            ValuePredicate::Eq(v) => {
                v.check_type(ty)?;
                KeyPredicate::Points(KeyPoints::one(v))
            }
            ValuePredicate::In(vs) => KeyPredicate::Points(KeyPoints::new(vs.iter().map(key))?),
            ValuePredicate::Between(lo, hi) => {
                KeyPredicate::Range(KeyRange { lo: key(lo)?, hi: Bound::Included(key(hi)?) })
            }
            ValuePredicate::StartsWith(prefix) => {
                if ty != DataType::Varchar {
                    return Err(CoreError::TypeMismatch { expected: ty, got: DataType::Varchar });
                }
                let p = okey::encode_str(prefix);
                let hi = prefix_successor(p).map_or(Bound::Unbounded, Bound::Excluded);
                KeyPredicate::Range(KeyRange { lo: p.to_vec(), hi })
            }
        })
    }

    /// True when a key that satisfies the predicate may lie in `range`.
    pub fn overlaps(&self, range: &KeyRange) -> bool {
        match self {
            KeyPredicate::Points(points) => points.iter().any(|p| range.contains(p)),
            // The least key two intervals can share is the larger lower end.
            KeyPredicate::Range(r) => {
                let lo = r.lo.as_slice().max(range.lo.as_slice());
                r.below_hi(lo) && range.below_hi(lo)
            }
        }
    }
}

/// Distinct keys, ascending, in one buffer of (`u32` length, bytes) pairs:
/// an `=` compiles to one allocation, as its key alone would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPoints(Vec<u8>);

impl KeyPoints {
    fn one(v: &Value) -> Self {
        // The capacity is only a hint; the length is what `write_key` wrote.
        let hint = match v {
            Value::Varchar(s) => s.len(),
            _ => v.data_type().key_width().unwrap_or(0),
        };
        let mut buf = Vec::with_capacity(4 + hint);
        buf.extend_from_slice(&[0; 4]);
        v.write_key(&mut buf);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        KeyPoints(buf)
    }

    fn new(keys: impl Iterator<Item = CoreResult<Vec<u8>>>) -> CoreResult<Self> {
        let mut keys = keys.collect::<CoreResult<Vec<_>>>()?;
        keys.sort_unstable();
        keys.dedup();
        let mut buf = Vec::with_capacity(keys.iter().map(|k| 4 + k.len()).sum());
        for key in &keys {
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(key);
        }
        Ok(KeyPoints(buf))
    }

    /// The keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut rest = self.0.as_slice();
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (key, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = tail;
            Some(key)
        })
    }
}

/// One interval of keys (the empty key is below every key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// The lower end, inclusive.
    pub lo: Vec<u8>,
    /// The upper end.
    pub hi: Bound<Vec<u8>>,
}

impl KeyRange {
    /// True when `key` lies in the interval.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.lo.as_slice() && self.below_hi(key)
    }

    /// True when `key` is not past the upper end.
    fn below_hi(&self, key: &[u8]) -> bool {
        match &self.hi {
            Bound::Included(hi) => key <= hi.as_slice(),
            Bound::Excluded(hi) => key < hi.as_slice(),
            Bound::Unbounded => true,
        }
    }
}

/// The smallest byte string greater than every string with prefix `p`:
/// increment the last non-0xFF byte and truncate. `None` when no such
/// string exists (all bytes 0xFF ⇒ the range is unbounded above).
pub(crate) fn prefix_successor(p: &[u8]) -> Option<Vec<u8>> {
    let mut s = p.to_vec();
    while let Some(last) = s.last_mut() {
        if *last == 0xFF {
            s.pop();
        } else {
            *last += 1;
            return Some(s);
        }
    }
    None
}

fn keys_eq(a: &Value, b: &Value) -> bool {
    a.data_type() == b.data_type() && a.to_key() == b.to_key()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip_every_type() {
        let cases = [
            Value::Integer(-42),
            Value::Decimal(-123456789012345),
            Value::Double(3.25),
            Value::Varchar("hello world".into()),
        ];
        for v in cases {
            let back = Value::from_key(v.data_type(), &v.to_key()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn keys_order_like_values() {
        let ints = [Value::Integer(-5), Value::Integer(0), Value::Integer(7)];
        for w in ints.windows(2) {
            assert!(w[0].to_key() < w[1].to_key());
        }
        let strs = [Value::Varchar("a".into()), Value::Varchar("ab".into()), Value::Varchar("b".into())];
        for w in strs.windows(2) {
            assert!(w[0].to_key() < w[1].to_key());
        }
    }

    #[test]
    fn type_checks() {
        assert!(Value::Integer(1).check_type(DataType::Integer).is_ok());
        assert!(matches!(
            Value::Integer(1).check_type(DataType::Varchar),
            Err(CoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn predicates_match_reference_semantics() {
        let p = ValuePredicate::Between(Value::Integer(2), Value::Integer(5));
        assert!(!p.matches(&Value::Integer(1)));
        assert!(p.matches(&Value::Integer(2)));
        assert!(p.matches(&Value::Integer(5)));
        assert!(!p.matches(&Value::Integer(6)));
        let p = ValuePredicate::In(vec![Value::Varchar("x".into()), Value::Varchar("y".into())]);
        assert!(p.matches(&Value::Varchar("y".into())));
        assert!(!p.matches(&Value::Varchar("z".into())));
    }

    #[test]
    fn starts_with_predicate() {
        let p = ValuePredicate::StartsWith("ab".into());
        assert!(p.matches(&Value::Varchar("ab".into())));
        assert!(p.matches(&Value::Varchar("abc".into())));
        assert!(!p.matches(&Value::Varchar("aB".into())));
        assert!(!p.matches(&Value::Varchar("b".into())));
        assert!(!p.matches(&Value::Integer(1)), "non-varchar never matches");
        let empty = ValuePredicate::StartsWith(String::new());
        assert!(empty.matches(&Value::Varchar("anything".into())));
    }

    #[test]
    fn predicates_compile_to_points_or_one_interval() {
        let int = DataType::Integer;
        let key = |v: i64| Value::Integer(v).to_key();
        let points = |p: &KeyPredicate| match p {
            KeyPredicate::Points(keys) => keys.iter().map(<[u8]>::to_vec).collect::<Vec<_>>(),
            other => panic!("not points: {other:?}"),
        };
        let eq = KeyPredicate::compile(&ValuePredicate::Eq(Value::Integer(-3)), int).unwrap();
        assert_eq!(points(&eq), [key(-3)]);
        let set = [9, -3, 9, i64::MIN].map(Value::Integer).to_vec();
        let set = KeyPredicate::compile(&ValuePredicate::In(set), int).unwrap();
        assert_eq!(points(&set), [key(i64::MIN), key(-3), key(9)], "sorted, distinct");
        let between = ValuePredicate::Between(Value::Integer(2), Value::Integer(5));
        let between = KeyPredicate::compile(&between, int).unwrap();
        let range = KeyRange { lo: key(2), hi: Bound::Included(key(5)) };
        assert_eq!(between, KeyPredicate::Range(range.clone()));
        assert!(range.contains(&key(5)) && !range.contains(&key(6)) && !range.contains(&key(1)));
        let starts_with = |p: &str| ValuePredicate::StartsWith(p.into());
        let prefix = |p: &str| KeyPredicate::compile(&starts_with(p), DataType::Varchar);
        let ab = KeyRange { lo: b"ab".to_vec(), hi: Bound::Excluded(b"ac".to_vec()) };
        assert_eq!(prefix("ab").unwrap(), KeyPredicate::Range(ab));
        let all = KeyRange { lo: Vec::new(), hi: Bound::Unbounded };
        assert_eq!(prefix("").unwrap(), KeyPredicate::Range(all.clone()));
        // Overlap: a point inside, an interval sharing one key, `lo > hi`.
        assert!(eq.overlaps(&all) && !eq.overlaps(&range) && !set.overlaps(&range));
        let five = ValuePredicate::In(vec![Value::Integer(5)]);
        let five = KeyPredicate::compile(&five, int).unwrap();
        assert!(five.overlaps(&range));
        let below = KeyRange { lo: Vec::new(), hi: Bound::Excluded(key(2)) };
        assert!(!between.overlaps(&below));
        let at_five = KeyRange { lo: key(5), hi: Bound::Unbounded };
        assert!(between.overlaps(&at_five));
        let empty = ValuePredicate::Between(Value::Integer(5), Value::Integer(2));
        assert!(!KeyPredicate::compile(&empty, int).unwrap().overlaps(&all));
        // Every value is checked against the column's type.
        let mismatch = |r| matches!(r, Err(CoreError::TypeMismatch { .. }));
        assert!(mismatch(KeyPredicate::compile(&starts_with("a"), int)));
        assert!(mismatch(KeyPredicate::compile(&ValuePredicate::Eq(Value::from("x")), int)));
        let mixed = ValuePredicate::In(vec![Value::Integer(1), Value::Double(1.0)]);
        assert!(mismatch(KeyPredicate::compile(&mixed, int)));
        let half = ValuePredicate::Between(Value::Integer(1), Value::Decimal(1));
        assert!(mismatch(KeyPredicate::compile(&half, int)));
    }

    #[test]
    fn prefix_successor_cases() {
        assert_eq!(prefix_successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(b"a\xff"), Some(b"b".to_vec()));
        assert_eq!(prefix_successor(b"\xff\xff"), None);
        assert_eq!(prefix_successor(b""), None);
        // Every string with the prefix is below the successor.
        let succ = prefix_successor(b"foo").unwrap();
        assert!(b"foo".as_slice() < succ.as_slice());
        assert!(b"foozzzzzz".as_slice() < succ.as_slice());
        assert!(b"fop".as_slice() >= succ.as_slice());
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Value::Decimal(1999).to_string(), "19.99");
        assert_eq!(Value::Decimal(-250).to_string(), "-2.50");
        assert_eq!(Value::Decimal(5).to_string(), "0.05");
    }
}

//! The write-optimized delta fragment (paper §2).
//!
//! Changes never modify rows in place: inserts append to the delta. Each
//! delta column keeps an **unsorted** dictionary — identifiers are assigned
//! in arrival order, because keeping delta dictionaries sorted on every
//! insert would be too costly — plus the per-row identifier vector. A scan
//! is a dictionary scan, then an identifier scan, in the encoded domain:
//! a point of the [`KeyPredicate`] is one hash probe, an interval compares
//! raw key bytes. Reads take the main fragment's shapes: a projection
//! writes each row's values straight into the caller's answer row, and an
//! aggregate sees the distinct keys of its rows with their counts, so keys
//! are decoded only into the answer. Delta fragments are always memory
//! resident (the regular delta merge keeps them small).

use crate::bitmap::RowBitmap;
use crate::schema::{ColumnSpec, Row, Schema};
use crate::{TableError, TableResult};
use payg_core::dict::UnsortedDict;
use payg_core::{CoreError, DataType, EncodedRows, KeyPredicate, Value};
use payg_encoding::VidSet;

/// Key bytes one delta column's dictionary holds at most: what its arena's
/// `u32` offsets address. Unit tests lower the bound
/// [`DeltaFragment::check_room`] enforces, so that a move can reach it.
#[cfg(not(test))]
const MAX_KEY_BYTES: u64 = u32::MAX as u64;
#[cfg(test)]
const MAX_KEY_BYTES: u64 = 1 << 20;

/// One delta column: unsorted dictionary + append-order identifier vector.
/// An append encodes the value into the dictionary's reused probe buffer
/// and stores the key only when it is new: no cell allocates.
#[derive(Debug)]
pub struct DeltaColumn {
    data_type: DataType,
    dict: UnsortedDict,
    /// Per-row identifiers.
    vids: Vec<u32>,
}

impl DeltaColumn {
    fn append(&mut self, v: &Value) -> TableResult<()> {
        self.vids.push(self.dict.intern(v)?);
        Ok(())
    }

    /// Identifiers matching `pred`, found without decoding a key.
    fn matching_vids(&self, pred: &KeyPredicate) -> VidSet {
        let vids = match pred {
            KeyPredicate::Points(keys) => {
                keys.iter().filter_map(|key| self.dict.find(key)).map(u64::from).collect()
            }
            KeyPredicate::Range(range) => (self.dict.keys().enumerate())
                .filter(|(_, key)| range.contains(key))
                .map(|(vid, _)| vid as u64)
                .collect(),
        };
        VidSet::from_vids(vids)
    }

    /// Heap bytes (delta fragments are always fully resident): what the
    /// column holds, not what it uses — the dictionary's and the
    /// identifier vector's capacities.
    pub fn heap_bytes(&self) -> usize {
        self.dict.heap_bytes() + self.vids.capacity() * std::mem::size_of::<u32>()
    }
}

/// The delta fragment of one partition: one [`DeltaColumn`] per schema
/// column, plus a deleted-row bitmap for visibility.
pub struct DeltaFragment {
    columns: Vec<DeltaColumn>,
    deleted: RowBitmap,
    rows: u64,
}

impl DeltaFragment {
    /// An empty delta for `schema`.
    pub fn new(schema: &Schema) -> Self {
        let column = |c: &ColumnSpec| DeltaColumn {
            data_type: c.data_type,
            dict: UnsortedDict::default(),
            vids: Vec::new(),
        };
        DeltaFragment {
            columns: schema.columns().iter().map(column).collect(),
            deleted: RowBitmap::new(),
            rows: 0,
        }
    }

    /// Appends a validated row; returns its delta row position. Fails when
    /// a column's dictionary is full, appending no cell of the row (keys it
    /// added to earlier columns' dictionaries stay unused; a merge drops
    /// them).
    pub fn append(&mut self, row: &Row) -> TableResult<u64> {
        for (c, v) in row.iter().enumerate() {
            if let Err(e) = self.columns[c].append(v) {
                for col in &mut self.columns[..c] {
                    col.vids.pop();
                }
                return Err(e);
            }
        }
        let rpos = self.rows;
        self.rows += 1;
        Ok(rpos)
    }

    /// Fails with [`CoreError::DictTooLarge`] when appending `rows` could
    /// fill a column's dictionary, counting each of their keys as new. After
    /// an `Ok`, appending them cannot fail unless other rows go in first.
    pub fn check_room<'r>(&self, rows: impl Iterator<Item = &'r Row> + Clone) -> TableResult<()> {
        let mut key = Vec::new();
        for (c, col) in self.columns.iter().enumerate() {
            let mut key_bytes = col.dict.key_bytes();
            for row in rows.clone() {
                key.clear();
                row[c].write_key(&mut key);
                key_bytes += key.len() as u64;
            }
            if key_bytes > MAX_KEY_BYTES {
                return Err(TableError::Core(CoreError::DictTooLarge { key_bytes }));
            }
        }
        Ok(())
    }

    /// Total rows ever appended (including deleted).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Visible (non-deleted) rows.
    pub fn visible_rows(&self) -> u64 {
        self.rows - self.deleted.count()
    }

    /// Marks a row deleted (it stays physically present until delta merge).
    pub fn delete(&mut self, rpos: u64) {
        debug_assert!(rpos < self.rows);
        self.deleted.set(rpos);
    }

    /// The visible row positions, ascending.
    pub fn visible_positions(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.rows).filter(|&r| !self.deleted.get(r))
    }

    /// Extends each row of `rows` by the values of columns `cols` at the
    /// position `rposs` yields for it — the row writer of
    /// [`payg_core::column::materialize`], one decoded key per cell.
    pub fn materialize(
        &self,
        cols: &[usize],
        rposs: impl IntoIterator<Item = u64>,
        rows: &mut [Row],
    ) -> TableResult<()> {
        for (row, rpos) in rows.iter_mut().zip(rposs) {
            for c in cols.iter().map(|&c| &self.columns[c]) {
                row.push(Value::from_key(c.data_type, c.dict.key(c.vids[rpos as usize]))?);
            }
        }
        Ok(())
    }

    /// The whole rows at `rposs`, in that order.
    pub fn rows_at(&self, rposs: &[u64]) -> TableResult<Vec<Row>> {
        let cols: Vec<usize> = (0..self.columns.len()).collect();
        let mut rows: Vec<Row> = (0..rposs.len()).map(|_| Vec::with_capacity(cols.len())).collect();
        self.materialize(&cols, rposs.iter().copied(), &mut rows)?;
        Ok(rows)
    }

    /// Calls `f` with each distinct key of column `col` at the positions
    /// `rposs` yields and the number of them holding it, in identifier
    /// order: what an aggregate folds, no key decoded.
    pub(crate) fn key_counts(
        &self,
        col: usize,
        rposs: impl IntoIterator<Item = u64>,
        mut f: impl FnMut(&[u8], u64) -> TableResult<()>,
    ) -> TableResult<()> {
        let c = &self.columns[col];
        let mut vids: Vec<u32> = rposs.into_iter().map(|r| c.vids[r as usize]).collect();
        vids.sort_unstable();
        vids.chunk_by(|a, b| a == b).try_for_each(|run| f(c.dict.key(run[0]), run.len() as u64))
    }

    /// Visible row positions whose column `col` matches `pred`, ascending.
    pub fn find_rows(&self, col: usize, pred: &KeyPredicate) -> Vec<u64> {
        let set = self.columns[col].matching_vids(pred);
        if set.is_empty() {
            return Vec::new();
        }
        (self.columns[col].vids.iter().zip(0..))
            .filter(|&(&vid, rpos)| set.contains(u64::from(vid)) && !self.deleted.get(rpos))
            .map(|(_, rpos)| rpos)
            .collect()
    }

    /// Column `col` of every visible row, in row order, in the encoded
    /// domain (the delta-merge input path): the keys those rows use, sorted,
    /// and each row's identifier among them.
    pub fn encoded_rows(&self, col: usize) -> TableResult<EncodedRows> {
        let vids = &self.columns[col].vids;
        let vids = self.visible_positions().map(|r| u64::from(vids[r as usize]));
        Ok(EncodedRows::sort(&self.columns[col].dict, vids.collect())?)
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum::<usize>() + self.deleted.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payg_core::ValuePredicate;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("name", DataType::Varchar),
        ])
        .unwrap()
    }

    fn populated() -> (Schema, DeltaFragment) {
        let s = schema();
        let mut d = DeltaFragment::new(&s);
        for (id, name) in [(5, "echo"), (1, "alpha"), (3, "alpha"), (2, "bravo")] {
            d.append(&vec![Value::Integer(id), Value::Varchar(name.into())]).unwrap();
        }
        (s, d)
    }

    #[test]
    fn append_and_read_back() {
        let (_, d) = populated();
        assert_eq!(d.rows(), 4);
        let mut rows = vec![Vec::new(); 2];
        d.materialize(&[1, 0], [0, 3], &mut rows).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Varchar("echo".into()), Value::Integer(5)],
                vec![Value::Varchar("bravo".into()), Value::Integer(2)],
            ]
        );
        assert_eq!(
            d.rows_at(&[1]).unwrap(),
            vec![vec![Value::Integer(1), Value::Varchar("alpha".into())]]
        );
    }

    #[test]
    fn unsorted_dictionary_shares_duplicates() {
        let (_, d) = populated();
        // "alpha" appears twice but is stored once.
        assert_eq!(d.columns[1].dict.cardinality(), 3);
        // Arrival order: echo, alpha, bravo.
        assert_eq!(d.columns[1].dict.key(0), b"echo");
        assert_eq!(d.columns[1].vids, [0, 1, 1, 2]);
    }

    /// An aggregate's view of a column: each distinct key once, in
    /// identifier order, with the number of the given rows holding it.
    #[test]
    fn key_counts_reduce_rows_to_distinct_keys() {
        let (_, d) = populated();
        let mut seen = Vec::new();
        let mut note = |key: &[u8], n| {
            seen.push((key.to_vec(), n));
            Ok(())
        };
        d.key_counts(1, [3, 0, 2, 1, 2], &mut note).unwrap();
        assert_eq!(seen, [(b"echo".to_vec(), 1), (b"alpha".to_vec(), 3), (b"bravo".to_vec(), 1)]);
    }

    #[test]
    fn scans_respect_predicates_and_visibility() {
        let (_, mut d) = populated();
        let compile = |pred, ty| KeyPredicate::compile(&pred, ty).unwrap();
        let eq = compile(ValuePredicate::Eq(Value::Varchar("alpha".into())), DataType::Varchar);
        assert_eq!(d.find_rows(1, &eq), vec![1, 2]);
        let range = ValuePredicate::Between(Value::Integer(2), Value::Integer(5));
        assert_eq!(d.find_rows(0, &compile(range, DataType::Integer)), vec![0, 2, 3]);
        let set = ValuePredicate::In(vec![Value::Integer(9), Value::Integer(1), Value::Integer(1)]);
        assert_eq!(d.find_rows(0, &compile(set, DataType::Integer)), vec![1]);
        d.delete(2);
        assert_eq!(d.find_rows(1, &eq), vec![1]);
        assert_eq!(d.visible_rows(), 3);
        assert_eq!(d.visible_positions().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    /// The merge input of a column holds the visible rows only, over a
    /// sorted dictionary of the keys they use.
    #[test]
    fn encoded_rows_skip_deleted_and_sort_the_keys_they_use() {
        let (_, mut d) = populated();
        d.delete(0);
        d.delete(3);
        let encode = |ty, values: &[Value]| EncodedRows::encode(ty, values).unwrap();
        let ids = encode(DataType::Integer, &[Value::Integer(1), Value::Integer(3)]);
        assert_eq!(d.encoded_rows(0).unwrap(), ids);
        // "echo" and "bravo" are only on deleted rows.
        let alpha = Value::Varchar("alpha".into());
        assert_eq!(d.encoded_rows(1).unwrap(), encode(DataType::Varchar, &[alpha.clone(), alpha]));
    }
}

//! The write-optimized delta fragment (paper §2).
//!
//! Changes never modify rows in place: inserts append to the delta. Each
//! delta column keeps an **unsorted** dictionary — identifiers are assigned
//! in arrival order, because keeping delta dictionaries sorted on every
//! insert would be too costly — plus the per-row identifier vector. Scans on
//! the delta therefore first scan the (small) dictionary to find matching
//! identifiers, then scan the identifier vector. Delta fragments are always
//! memory resident (the regular delta merge keeps them small).

use crate::bitmap::RowBitmap;
use crate::schema::{Row, Schema};
use crate::{TableError, TableResult};
use payg_core::dict::UnsortedDict;
use payg_core::{CoreError, EncodedRows, Value, ValuePredicate};
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
#[derive(Debug, Default)]
pub struct DeltaColumn {
    dict: UnsortedDict,
    /// Per-row identifiers.
    vids: Vec<u32>,
}

impl DeltaColumn {
    fn append(&mut self, v: &Value) -> TableResult<()> {
        self.vids.push(self.dict.intern(v)?);
        Ok(())
    }

    /// The value of row `rpos`.
    pub fn value(&self, rpos: u64, ty: payg_core::DataType) -> TableResult<Value> {
        let vid = self.vids[rpos as usize];
        Value::from_key(ty, self.dict.key(vid)).map_err(TableError::Core)
    }

    /// Identifiers matching a predicate, found by scanning the dictionary.
    fn matching_vids(&self, pred: &ValuePredicate, ty: payg_core::DataType) -> TableResult<VidSet> {
        let mut vids = Vec::new();
        for (vid, key) in self.dict.keys().enumerate() {
            let v = Value::from_key(ty, key).map_err(TableError::Core)?;
            if pred.matches(&v) {
                vids.push(vid as u64);
            }
        }
        Ok(VidSet::from_vids(vids))
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
        DeltaFragment {
            columns: (0..schema.arity()).map(|_| DeltaColumn::default()).collect(),
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

    /// True when the fragment holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Marks a row deleted (it stays physically present until delta merge).
    pub fn delete(&mut self, rpos: u64) {
        debug_assert!(rpos < self.rows);
        self.deleted.set(rpos);
    }

    /// True when `rpos` is visible.
    pub fn is_visible(&self, rpos: u64) -> bool {
        !self.deleted.get(rpos)
    }

    /// The value at (`rpos`, `col`).
    pub fn value(&self, rpos: u64, col: usize, schema: &Schema) -> TableResult<Value> {
        self.columns[col].value(rpos, schema.columns()[col].data_type)
    }

    /// Materializes a whole visible row.
    pub fn row(&self, rpos: u64, schema: &Schema) -> TableResult<Row> {
        (0..schema.arity()).map(|c| self.value(rpos, c, schema)).collect()
    }

    /// Visible row positions matching `pred` on column `col` (ascending).
    pub fn find_rows(
        &self,
        col: usize,
        pred: &ValuePredicate,
        schema: &Schema,
    ) -> TableResult<Vec<u64>> {
        let ty = schema.columns()[col].data_type;
        let set = self.columns[col].matching_vids(pred, ty)?;
        if set.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.columns[col]
            .vids
            .iter()
            .enumerate()
            .filter(|&(rpos, &vid)| set.contains(u64::from(vid)) && !self.deleted.get(rpos as u64))
            .map(|(rpos, _)| rpos as u64)
            .collect())
    }

    /// Column `col` of every visible row, in row order, in the encoded
    /// domain (the delta-merge input path): the keys those rows use, sorted,
    /// and each row's identifier among them.
    pub fn encoded_rows(&self, col: usize) -> TableResult<EncodedRows> {
        let column = &self.columns[col];
        let vids = (0..self.rows)
            .filter(|&r| !self.deleted.get(r))
            .map(|r| u64::from(column.vids[r as usize]))
            .collect();
        Ok(EncodedRows::sort(&column.dict, vids)?)
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum::<usize>() + self.deleted.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSpec;
    use payg_core::DataType;

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
        let (s, d) = populated();
        assert_eq!(d.rows(), 4);
        assert_eq!(d.value(0, 1, &s).unwrap(), Value::Varchar("echo".into()));
        assert_eq!(d.value(3, 0, &s).unwrap(), Value::Integer(2));
        assert_eq!(
            d.row(1, &s).unwrap(),
            vec![Value::Integer(1), Value::Varchar("alpha".into())]
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

    #[test]
    fn scans_respect_predicates_and_visibility() {
        let (s, mut d) = populated();
        let eq = ValuePredicate::Eq(Value::Varchar("alpha".into()));
        assert_eq!(d.find_rows(1, &eq, &s).unwrap(), vec![1, 2]);
        let range = ValuePredicate::Between(Value::Integer(2), Value::Integer(5));
        assert_eq!(d.find_rows(0, &range, &s).unwrap(), vec![0, 2, 3]);
        d.delete(2);
        assert_eq!(d.find_rows(1, &eq, &s).unwrap(), vec![1]);
        assert_eq!(d.visible_rows(), 3);
        assert!(!d.is_visible(2));
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

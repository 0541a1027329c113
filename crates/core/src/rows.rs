//! A projection's answer, in columns.
//!
//! Late materialization decodes each distinct value of a projected column
//! once ([`crate::column::materialize`]); the answer keeps it that way. For
//! each projected column, [`Rows`] holds values tables — one value per
//! distinct identifier of each fragment run the answer read, moved there
//! as decoded and never copied per cell — and a `u32` **rank** per row: the
//! index of the row's value in those tables. Two flat buffers hold them,
//! however many rows, columns and runs: the values tables back to back, and
//! the ranks column by column.
//!
//! An answer is read in place: [`Rows::iter`] yields each row as a
//! [`RowRef`], whose cells are references into the values tables.
//! [`Rows::into_rows`] is the one way to the row-major form, a `Vec` a row
//! and each cell a clone of its value. Equality and `Debug` are the logical
//! rows': two answers of the same rows are equal however their values were
//! split into tables.

use crate::{CoreError, CoreResult, Value};
use std::fmt;

/// Most values the tables of one answer hold: a rank is a `u32`.
const MAX_VALUES: u64 = 1 << 32;

/// A projection's answer: per projected column, values tables and each
/// row's rank in them (see the module docs).
#[derive(Clone, Default)]
pub struct Rows {
    /// Projected columns.
    width: usize,
    /// Rows the ranks have room for: column `j`'s begin at `j * room`.
    room: usize,
    /// Rows appended.
    len: usize,
    /// Every column's values tables, back to back.
    values: Vec<Value>,
    /// Each column's rank of every row, a stride of `room` a column.
    ranks: Vec<u32>,
}

impl Rows {
    /// An empty answer of `width` columns with room for `room` rows.
    pub fn new(width: usize, room: usize) -> Rows {
        Rows { width, room, len: 0, values: Vec::new(), ranks: vec![0; width * room] }
    }

    /// Appends `n` rows, column by column: `fill(j, values, ranks)` pushes
    /// the values tables of these rows onto `values` — column `j`'s, or
    /// every column's at once with column 0 — and writes each row's rank of
    /// column `j`, an index into `values`, to `ranks` (`n` of them, in the
    /// rows' order). Nothing is appended unless every column was filled:
    /// on an error the values pushed are dropped.
    ///
    /// # Panics
    /// When the rows do not fit the room the answer was made with.
    pub fn append(
        &mut self,
        n: usize,
        mut fill: impl FnMut(usize, &mut Vec<Value>, &mut [u32]) -> CoreResult<()>,
    ) -> CoreResult<()> {
        assert!(self.len + n <= self.room, "{} rows past the room for {}", self.len + n, self.room);
        if n == 0 {
            return Ok(());
        }
        let kept = self.values.len();
        for j in 0..self.width {
            let ranks = &mut self.ranks[j * self.room + self.len..][..n];
            let filled = fill(j, &mut self.values, ranks).and_then(|()| {
                let values = self.values.len() as u64;
                if values > MAX_VALUES {
                    return Err(CoreError::AnswerTooLarge { values });
                }
                Ok(())
            });
            if let Err(e) = filled {
                self.values.truncate(kept);
                return Err(e);
            }
            debug_assert!(
                ranks.iter().all(|&r| (r as usize) < self.values.len()),
                "a rank names a value"
            );
        }
        self.len += n;
        Ok(())
    }

    /// The rows of the answer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the answer has no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The projected columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`, or `None` past the last.
    pub fn get(&self, i: usize) -> Option<RowRef<'_>> {
        (i < self.len).then_some(RowRef { rows: self, i })
    }

    /// The rows in answer order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + DoubleEndedIterator {
        (0..self.len).map(move |i| RowRef { rows: self, i })
    }

    /// The answer row by row: a `Vec` a row, each cell a clone of its
    /// value — a copy of a number, a reference-count increment of a string.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.iter().map(|row| row.iter().cloned().collect()).collect()
    }

    /// Column `j`'s value at row `i`.
    fn cell(&self, i: usize, j: usize) -> &Value {
        &self.values[self.ranks[j * self.room + i] as usize]
    }
}

impl From<Vec<Vec<Value>>> for Rows {
    /// The answer of `rows`, each cell a value of its own.
    ///
    /// # Panics
    /// When the rows differ in width.
    fn from(rows: Vec<Vec<Value>>) -> Rows {
        let (n, width) = (rows.len(), rows.first().map_or(0, Vec::len));
        assert!(rows.iter().all(|row| row.len() == width), "rows of one width");
        let mut ranks = vec![0; width * n];
        for (j, column) in ranks.chunks_exact_mut(n.max(1)).enumerate() {
            for (i, rank) in column.iter_mut().enumerate() {
                *rank = (i * width + j) as u32;
            }
        }
        let values = rows.into_iter().flatten().collect();
        Rows { width, room: n, len: n, values, ranks }
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One row of a [`Rows`] answer, its cells read in place.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    rows: &'a Rows,
    i: usize,
}

impl<'a> RowRef<'a> {
    /// The cells of the row: the answer's width.
    pub fn len(&self) -> usize {
        self.rows.width()
    }

    /// Whether the row has no cell (an answer of no column).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of column `j`, or `None` past the last column.
    pub fn get(&self, j: usize) -> Option<&'a Value> {
        (j < self.rows.width).then(|| self.rows.cell(self.i, j))
    }

    /// The cells in projection order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Value> + DoubleEndedIterator {
        let RowRef { rows, i } = *self;
        (0..rows.width).map(move |j| rows.cell(i, j))
    }
}

impl std::ops::Index<usize> for RowRef<'_> {
    type Output = Value;

    fn index(&self, j: usize) -> &Value {
        assert!(j < self.rows.width, "column {j} of a row of {}", self.rows.width);
        self.rows.cell(self.i, j)
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: i64) -> Value {
        Value::Integer(i)
    }

    /// Rows appended run by run — a values table shared by repeated rows,
    /// then a run whose column 0 pushes every column's table — read back as
    /// the rows they stand for, equal to the same rows given row by row,
    /// and a failing run appends nothing.
    #[test]
    fn runs_append_into_one_pair_of_buffers_and_read_back_as_rows() {
        let mut rows = Rows::new(2, 5);
        rows.append(3, |j, values, ranks| {
            let first = values.len() as u32;
            values.extend([int(10 * j as i64), int(10 * j as i64 + 1)]);
            ranks.copy_from_slice(&[first + 1, first, first + 1]);
            Ok(())
        })
        .unwrap();
        let failed = rows.append(1, |j, values, _| {
            values.push(int(99));
            match j {
                0 => Ok(()),
                _ => Err(CoreError::SumOverflow),
            }
        });
        assert!(failed.is_err());
        assert_eq!((rows.len(), rows.values.len()), (3, 4), "a failed run appends nothing");
        rows.append(2, |j, values, ranks| {
            if j == 0 {
                values.extend([int(7), int(8)]);
            }
            let first = (values.len() - 2) as u32;
            ranks.copy_from_slice(&[first + j as u32; 2]);
            Ok(())
        })
        .unwrap();
        let want = vec![
            vec![int(1), int(11)],
            vec![int(0), int(10)],
            vec![int(1), int(11)],
            vec![int(7), int(8)],
            vec![int(7), int(8)],
        ];
        assert_eq!((rows.len(), rows.width(), rows.values.len()), (5, 2, 6));
        assert_eq!(rows.get(3).map(|row| row[1].clone()), Some(int(8)));
        assert!(rows.get(5).is_none());
        assert_eq!(rows, Rows::from(want.clone()));
        assert_eq!(format!("{rows:?}"), format!("{want:?}"));
        assert_ne!(rows, Rows::from(want[..4].to_vec()));
        assert_eq!(rows.into_rows(), want);
        assert_eq!(Rows::new(3, 0), Rows::from(Vec::new()), "empty answers are equal");
    }
}

//! Solution sets — the binding tables flowing between operators.
//!
//! CGE calls intermediate results "solutions"; the paper's re-balancing
//! section (§2.4.2) is entirely about moving these between ranks. A
//! [`SolutionSet`] is a small relational table: named variables (columns)
//! over dictionary-encoded values. Rows are the unit of redistribution.
//!
//! The rows live row-major in one buffer of `len × width` ids, so a
//! 50 k-row query result is one allocation, and [`SolutionSet::rows`]
//! lends each row out as a `&[TermId]`.

use crate::term::TermId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;

/// A table of variable bindings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolutionSet {
    vars: Vec<String>,
    /// Row-major: row `i` is `cells[i * width..(i + 1) * width]`.
    cells: Vec<TermId>,
    /// Counted apart from `cells`: a zero-variable set (an existence
    /// check over a fully bound pattern) still has rows.
    rows: usize,
}

impl SolutionSet {
    /// Build from a schema and rows.
    ///
    /// # Panics
    /// Panics if any row's width differs from the schema.
    pub fn new(vars: Vec<String>, rows: Vec<Vec<TermId>>) -> Self {
        assert!(rows.iter().all(|r| r.len() == vars.len()), "row width must match schema");
        Self::from_cells(vars, rows.concat(), rows.len())
    }

    /// Build from a schema and `rows` rows stored row-major in `cells`.
    ///
    /// # Panics
    /// Panics if `cells` does not hold exactly `rows × vars.len()` ids.
    pub(crate) fn from_cells(vars: Vec<String>, cells: Vec<TermId>, rows: usize) -> Self {
        assert_eq!(cells.len(), rows * vars.len(), "row width must match schema");
        Self { vars, cells, rows }
    }

    /// Variable names (column order).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Rows, each borrowed as a `&[TermId]` in schema order.
    pub fn rows(&self) -> Rows<'_> {
        Rows { cells: &self.cells, width: self.vars.len(), len: self.rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Index of a variable in the schema.
    pub fn var_index(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Exact serialized size in bytes under the columnar wire layout used
    /// by stage segments and the typed cache objects:
    /// `u16` var count; per var a `u16` length + name bytes; `u64` row
    /// count; per column one tag byte plus `rows × width` value bytes,
    /// where width is 4 unless some id in the column overflows `u32`.
    ///
    /// This scans every cell to pick column widths; the engine's hot path
    /// uses [`crate::stage::StageBatch::segment_byte_size`], which knows
    /// its widths.
    pub fn byte_size(&self) -> u64 {
        let rows = self.rows as u64;
        let mut total = 2u64 + 8;
        for (i, v) in self.vars.iter().enumerate() {
            let wide = self.rows().iter().any(|r| r[i].0 > u64::from(u32::MAX));
            total += 2 + v.len() as u64;
            total += 1 + rows * if wide { 8 } else { 4 };
        }
        total
    }
}

/// The rows of a [`SolutionSet`], borrowed: `len`, `iter`, and `rows[i]`
/// as a `&[TermId]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Rows<'a> {
    cells: &'a [TermId],
    width: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter { cells: self.cells, width: self.width, next: 0, end: self.len }
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&'a [TermId]> {
        (i < self.len).then(|| &self.cells[i * self.width..(i + 1) * self.width])
    }

    /// Copy the rows out, one `Vec` per row.
    pub fn to_vec(&self) -> Vec<Vec<TermId>> {
        self.iter().map(<[TermId]>::to_vec).collect()
    }
}

impl Index<usize> for Rows<'_> {
    type Output = [TermId];

    fn index(&self, i: usize) -> &[TermId] {
        match self.get(i) {
            Some(row) => row,
            None => panic!("row {i} out of bounds for {} rows", self.len),
        }
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [TermId];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Rows`] view.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    cells: &'a [TermId],
    width: usize,
    next: usize,
    end: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [TermId];

    fn next(&mut self) -> Option<&'a [TermId]> {
        if self.next == self.end {
            return None;
        }
        let at = self.next * self.width;
        self.next += 1;
        Some(&self.cells[at..at + self.width])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> TermId {
        TermId(v)
    }

    fn demo() -> SolutionSet {
        SolutionSet::new(
            vec!["protein".into(), "compound".into()],
            (0..10).map(|i| vec![id(i), id(100 + i)]).collect(),
        )
    }

    #[test]
    fn schema_and_access() {
        let s = demo();
        assert_eq!(s.vars(), &["protein".to_string(), "compound".to_string()]);
        assert_eq!(s.len(), 10);
        assert_eq!(s.var_index("compound"), Some(1));
        assert_eq!(s.var_index("missing"), None);
    }

    #[test]
    fn rows_view_indexes_iterates_and_copies_row_major() {
        let s = demo();
        let rows = s.rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3], [id(3), id(103)]);
        assert_eq!(rows.get(9), Some(&[id(9), id(109)][..]));
        assert_eq!(rows.get(10), None);
        assert_eq!(rows.iter().len(), 10);
        let firsts: Vec<u64> = rows.into_iter().map(|r| r[0].0).collect();
        assert_eq!(firsts, (0..10).collect::<Vec<_>>());
        assert_eq!(rows.to_vec(), (0..10).map(|i| vec![id(i), id(100 + i)]).collect::<Vec<_>>());
        assert_eq!(
            SolutionSet::from_cells(
                s.vars().to_vec(),
                rows.iter().flatten().copied().collect(),
                10
            ),
            s
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rows_view_rejects_an_index_past_the_end() {
        let s = demo();
        let _ = &s.rows()[10];
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let s = SolutionSet::new(vec![], vec![vec![]; 4]);
        assert_eq!((s.len(), s.rows().len()), (4, 4));
        assert!(!s.is_empty());
        assert_eq!(s.rows().iter().count(), 4);
        assert!(s.rows().iter().all(<[TermId]>::is_empty));
        assert_eq!(&s.rows()[3], &[] as &[TermId]);
        assert_eq!(s, SolutionSet::from_cells(vec![], vec![], 4));
        assert_ne!(s, SolutionSet::from_cells(vec![], vec![], 3));
        // Header only: 2 (nvars) + 8 (nrows).
        assert_eq!(s.byte_size(), 10);
    }

    #[test]
    fn zero_rows() {
        let s = SolutionSet::new(vec!["x".into(), "y".into()], vec![]);
        assert!(s.is_empty() && s.rows().is_empty());
        assert_eq!(s.rows().iter().next(), None);
        assert_eq!(s.rows().get(0), None);
        assert_eq!(s, SolutionSet::from_cells(vec!["x".into(), "y".into()], vec![], 0));
    }

    #[test]
    fn equality_compares_schema_and_cells() {
        let s = demo();
        assert_eq!(s, demo());
        let renamed = SolutionSet::from_cells(
            vec!["protein".into(), "ligand".into()],
            s.rows().iter().flatten().copied().collect(),
            s.len(),
        );
        assert_ne!(s, renamed);
        let mut changed = s.rows().to_vec();
        changed[7][1] = id(0);
        assert_ne!(s, SolutionSet::new(s.vars().to_vec(), changed));
        let longer = [s.rows().to_vec(), vec![vec![id(0), id(100)]]].concat();
        assert_ne!(s, SolutionSet::new(s.vars().to_vec(), longer));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn new_rejects_a_row_of_the_wrong_width() {
        SolutionSet::new(vec!["a".into(), "b".into()], vec![vec![id(1), id(2)], vec![id(3)]]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn from_cells_rejects_a_ragged_buffer() {
        SolutionSet::from_cells(vec!["a".into(), "b".into()], vec![id(1), id(2), id(3)], 2);
    }

    #[test]
    fn byte_size_is_exact_columnar_wire_size() {
        // Header: 2 (nvars) + 8 (nrows) + (2+7) "protein" + (2+8) "compound"
        // + 2 tag bytes = 31; both columns hold ids < 2^32 → 4 bytes/cell.
        assert_eq!(demo().byte_size(), 31 + 10 * 2 * 4);
        // A wide id promotes only its own column to 8-byte cells.
        let wide = [demo().rows().to_vec(), vec![vec![id(u64::from(u32::MAX) + 1), id(5)]]];
        let s = SolutionSet::new(demo().vars().to_vec(), wide.concat());
        assert_eq!(s.byte_size(), 31 + 11 * 8 + 11 * 4);
    }
}

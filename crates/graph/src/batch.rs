//! Columnar solution batches — the engine's hot-path representation.
//!
//! [`crate::SolutionSet`] is the row-oriented boundary type (results,
//! checkpoints, tests). Inside the engine, intermediate solutions flow as
//! [`SolutionBatch`]es: one dictionary-term-id column per variable, stored
//! at the narrowest width that holds every id (`u32` until a column sees a
//! dictionary id past `u32::MAX`, `u64` after), plus an optional null
//! bitmap per column for partially bound rows.
//!
//! Two properties matter:
//!
//! * **Honest byte accounting.** [`SolutionBatch::byte_size`] is the exact
//!   serialized size of the batch under the columnar wire layout (schema
//!   header + one tag byte per column + `rows × width` value bytes + the
//!   null bitmap when present) — the same formula the typed cache objects
//!   in ids-cache use, so network-cost charging, cache admission caps, and
//!   re-balancing all charge what the bytes actually measure instead of the
//!   historical 8-bytes-per-cell guess.
//! * **Row-engine equivalence.** Conversions to/from [`SolutionSet`]
//!   preserve row order exactly, and the batch operators in [`crate::ops`]
//!   mirror the row operators' output ordering, so a batch execution is
//!   byte-identical to a row execution.

use crate::solution::SolutionSet;
use crate::term::TermId;
use std::sync::Arc;

/// Term-id values of one column, at the narrowest sufficient width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Column {
    /// All ids fit in 32 bits (4 bytes per row on the wire).
    U32(Vec<u32>),
    /// At least one id overflowed 32 bits (8 bytes per row).
    U64(Vec<u64>),
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) => v.len(),
            Column::U64(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire width in bytes per value.
    pub fn width(&self) -> u64 {
        match self {
            Column::U32(_) => 4,
            Column::U64(_) => 8,
        }
    }

    /// The id at row `i`, widened. Kernels that walk a whole column match
    /// on the variant once and read the slice instead.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            Column::U32(v) => u64::from(v[i]),
            Column::U64(v) => v[i],
        }
    }

    /// Append one id under the width rule of [`Self::extend`].
    pub(crate) fn push(&mut self, value: u64) {
        match self {
            Column::U32(v) => match u32::try_from(value) {
                Ok(narrow) => v.push(narrow),
                Err(_) => self.extend(std::iter::once(value)),
            },
            Column::U64(v) => v.push(value),
        }
    }

    /// Append ids under the width rule every constructor here follows: a
    /// `U32` column stays `U32` until the first id past `u32::MAX`, which
    /// widens the whole column. The result depends only on the ids the
    /// column has seen, never on how they were batched — `byte_size()`
    /// feeds the exchange, gather and cache-admission charges, so a
    /// gathered column must weigh what a row-at-a-time one would.
    pub(crate) fn extend(&mut self, mut ids: impl ExactSizeIterator<Item = u64>) {
        if let Column::U32(narrow) = self {
            narrow.reserve(ids.len());
            for id in ids.by_ref() {
                match u32::try_from(id) {
                    Ok(id) => narrow.push(id),
                    Err(_) => {
                        // Dictionary-overflow promotion.
                        let mut wide = Vec::with_capacity(narrow.len() + 1 + ids.len());
                        wide.extend(narrow.iter().map(|&x| u64::from(x)));
                        wide.push(id);
                        *self = Column::U64(wide);
                        break;
                    }
                }
            }
        }
        if let Column::U64(wide) = self {
            wide.extend(ids);
        }
    }

    /// A column of `ids` at the narrowest width that holds them all.
    pub(crate) fn collect(ids: impl ExactSizeIterator<Item = u64>) -> Column {
        let mut out = Column::U32(Vec::new());
        out.extend(ids);
        out
    }

    /// Borrow the values at their stored width.
    pub fn as_slice(&self) -> ColumnSlice<'_> {
        match self {
            Column::U32(v) => ColumnSlice::U32(v),
            Column::U64(v) => ColumnSlice::U64(v),
        }
    }

    /// Make room for `more` values at the current width.
    pub(crate) fn reserve(&mut self, more: usize) {
        match self {
            Column::U32(v) => v.reserve(more),
            Column::U64(v) => v.reserve(more),
        }
    }

    /// Append all of `src`, slice-wise where the widths agree.
    pub(crate) fn extend_slice(&mut self, src: ColumnSlice<'_>) {
        match (&mut *self, src) {
            (Column::U32(dst), ColumnSlice::U32(src)) => dst.extend_from_slice(src),
            (Column::U64(dst), ColumnSlice::U64(src)) => dst.extend_from_slice(src),
            (_, ColumnSlice::U32(src)) => self.extend(src.iter().map(|&x| u64::from(x))),
            (_, ColumnSlice::U64(src)) => self.extend(src.iter().copied()),
        }
    }

    /// Append `src[i]` for each `i` in `sel`, in `sel` order.
    pub(crate) fn extend_gather(&mut self, src: ColumnSlice<'_>, sel: &[u32]) {
        match (&mut *self, src) {
            (Column::U32(dst), ColumnSlice::U32(src)) => {
                dst.extend(sel.iter().map(|&i| src[i as usize]));
            }
            (_, ColumnSlice::U32(src)) => {
                self.extend(sel.iter().map(|&i| u64::from(src[i as usize])));
            }
            (_, ColumnSlice::U64(src)) => self.extend(sel.iter().map(|&i| src[i as usize])),
        }
    }

    pub(crate) fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::U32(v) => Column::U32(v.split_off(at)),
            Column::U64(v) => Column::U64(v.split_off(at)),
        }
    }
}

/// A borrowed run of one column's values at their stored width: a whole
/// batch column, or one rank's segment of a stage column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnSlice<'a> {
    /// Four-byte ids.
    U32(&'a [u32]),
    /// Eight-byte ids.
    U64(&'a [u64]),
}

impl<'a> ColumnSlice<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::U32(v) => v.len(),
            ColumnSlice::U64(v) => v.len(),
        }
    }

    /// Whether the slice holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id at `i`, widened.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            ColumnSlice::U32(v) => u64::from(v[i]),
            ColumnSlice::U64(v) => v[i],
        }
    }

    /// Values `range` of this slice.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(self, range: std::ops::Range<usize>) -> ColumnSlice<'a> {
        match self {
            ColumnSlice::U32(v) => ColumnSlice::U32(&v[range]),
            ColumnSlice::U64(v) => ColumnSlice::U64(&v[range]),
        }
    }

    /// Whether any value is past `u32::MAX` — whether a column built from
    /// exactly these ids is eight bytes wide.
    pub fn has_wide_id(&self) -> bool {
        match self {
            ColumnSlice::U32(_) => false,
            ColumnSlice::U64(v) => v.iter().any(|&x| x > u64::from(u32::MAX)),
        }
    }
}

/// One variable's column: values plus an optional null bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnData {
    values: Column,
    /// Bit `i` set ⇒ row `i` is unbound. `None` ⇒ fully bound column (the
    /// common case; the engine's BGP semantics never produce nulls today).
    nulls: Option<Vec<u64>>,
    null_count: usize,
}

impl ColumnData {
    fn new() -> Self {
        Self::bound(Column::U32(Vec::new()))
    }

    /// A fully bound column.
    fn bound(values: Column) -> Self {
        Self { values, nulls: None, null_count: 0 }
    }

    fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(words) => words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1),
            None => false,
        }
    }

    fn set_null(&mut self, i: usize) {
        let words = self.nulls.get_or_insert_with(Vec::new);
        let word = i / 64;
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        words[word] |= 1 << (i % 64);
        self.null_count += 1;
    }

    /// Append rows `sel` of `src`. A null cell stores id 0 under its
    /// bitmap bit (see [`SolutionBatch::push_opt_row`]), so copying the
    /// value and re-marking the bit reproduces it.
    fn extend_gather(&mut self, src: &ColumnData, sel: &[u32]) {
        let base = self.values.len();
        self.values.extend_gather(src.values.as_slice(), sel);
        if src.null_count > 0 {
            for (k, &i) in sel.iter().enumerate() {
                if src.is_null(i as usize) {
                    self.set_null(base + k);
                }
            }
        }
    }

    /// Append every row of `src`.
    fn append(&mut self, src: &ColumnData) {
        let base = self.values.len();
        self.values.extend_slice(src.values.as_slice());
        if src.null_count > 0 {
            for i in (0..src.values.len()).filter(|&i| src.is_null(i)) {
                self.set_null(base + i);
            }
        }
    }
}

/// Borrowed rows `[start, end)` of a [`SolutionBatch`] or of one
/// [`crate::stage::StageBatch`] segment: what the join kernel, the
/// FILTER/APPLY workers and the result gather read. Row `i` of the view is
/// row `start + i` of its source; nothing is copied to make one.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    vars: &'a Arc<[String]>,
    cols: Cols<'a>,
    start: usize,
    end: usize,
}

/// A view's columns: a stage's plain id columns, or a batch's columns with
/// their null bitmaps (whose null cells read as id 0).
#[derive(Debug, Clone, Copy)]
enum Cols<'a> {
    Plain(&'a [Column]),
    Data(&'a [ColumnData]),
}

impl<'a> BatchView<'a> {
    /// Rows `range` of `cols`, one column per variable of `vars`.
    pub(crate) fn of_columns(
        vars: &'a Arc<[String]>,
        cols: &'a [Column],
        range: std::ops::Range<usize>,
    ) -> Self {
        debug_assert_eq!(vars.len(), cols.len());
        Self { vars, cols: Cols::Plain(cols), start: range.start, end: range.end }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Variable names (column order).
    pub fn vars(&self) -> &'a [String] {
        self.vars
    }

    /// The shared schema.
    pub fn schema(&self) -> &'a Arc<[String]> {
        self.vars
    }

    /// Index of a variable in the schema.
    pub fn var_index(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Whether `other` names this view's variables in the same order.
    pub(crate) fn same_schema(&self, other: &[String]) -> bool {
        std::ptr::eq(&**self.vars, other) || **self.vars == *other
    }

    /// The view's rows of column `col`, at the source's stored width.
    ///
    /// # Panics
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> ColumnSlice<'a> {
        let whole = match self.cols {
            Cols::Plain(cols) => cols[col].as_slice(),
            Cols::Data(cols) => cols[col].values.as_slice(),
        };
        whole.slice(self.start..self.end)
    }

    /// Rows `sel` (in `sel` order, repeats allowed) of columns `cols` (in
    /// `cols` order) as a row-major [`SolutionSet`] named `vars`: one
    /// buffer, filled a column at a time. Null cells read as id 0.
    ///
    /// # Panics
    /// Panics if `vars` and `cols` differ in length or a column or
    /// selected row is out of bounds.
    pub fn select_rows(&self, vars: Vec<String>, cols: &[usize], sel: &[u32]) -> SolutionSet {
        assert_eq!(vars.len(), cols.len(), "one column per variable");
        let width = cols.len();
        let mut cells = vec![TermId(0); sel.len() * width];
        for (k, &c) in cols.iter().enumerate() {
            let dst = cells.iter_mut().skip(k).step_by(width);
            match self.column(c) {
                ColumnSlice::U32(ids) => {
                    dst.zip(sel).for_each(|(d, &i)| *d = TermId(u64::from(ids[i as usize])));
                }
                ColumnSlice::U64(ids) => {
                    dst.zip(sel).for_each(|(d, &i)| *d = TermId(ids[i as usize]));
                }
            }
        }
        SolutionSet::from_cells(vars, cells, sel.len())
    }
}

/// A columnar table of variable bindings.
///
/// Schema and row order match the equivalent [`SolutionSet`] exactly; only
/// the in-memory (and wire) layout differs. The schema is shared: every
/// batch a stage derives from another (gather, split, exchange, join)
/// holds the same `Arc`, so a stage over thousands of ranks names its
/// variables once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionBatch {
    vars: Arc<[String]>,
    cols: Vec<ColumnData>,
    rows: usize,
}

impl SolutionBatch {
    /// An empty batch with the given schema.
    pub fn empty(vars: Vec<String>) -> Self {
        Self::with_schema(vars.into())
    }

    /// An empty batch sharing `schema` with the batches it came from.
    pub fn with_schema(schema: Arc<[String]>) -> Self {
        let cols = schema.iter().map(|_| ColumnData::new()).collect();
        Self { vars: schema, cols, rows: 0 }
    }

    /// A fully bound batch of `rows` rows from one id column per variable
    /// (a zero-variable batch still counts its rows).
    ///
    /// # Panics
    /// Panics if the column count differs from the schema or a column's
    /// length from `rows`.
    pub(crate) fn from_columns(vars: Arc<[String]>, columns: Vec<Column>, rows: usize) -> Self {
        assert_eq!(columns.len(), vars.len(), "one column per variable");
        assert!(columns.iter().all(|c| c.len() == rows), "every column holds one id per row");
        Self { vars, cols: columns.into_iter().map(ColumnData::bound).collect(), rows }
    }

    /// Rows `sel` of `src`, in `sel` order (a selection vector may repeat
    /// or skip rows). Each output column is `U32` exactly when every
    /// gathered id fits — what pushing the same rows one by one builds.
    ///
    /// # Panics
    /// Panics if a selected row is out of bounds.
    pub fn gather(src: &SolutionBatch, sel: &[u32]) -> Self {
        let mut out = Self::with_schema(src.vars.clone());
        out.extend_gather(src, sel);
        out
    }

    /// `SolutionBatch::gather(self, sel).byte_size()`, without building
    /// the batch: a column is 8 bytes wide exactly when a selected id is
    /// past `u32::MAX`, and carries a bitmap exactly when a selected cell
    /// is null.
    ///
    /// # Panics
    /// Panics if a selected row is out of bounds.
    pub fn gather_byte_size(&self, sel: &[u32]) -> u64 {
        assert!(sel.iter().all(|&i| (i as usize) < self.rows), "selected row out of bounds");
        let rows = sel.len() as u64;
        let mut total = 2u64 + 8;
        for (v, c) in self.vars.iter().zip(&self.cols) {
            let wide = match &c.values {
                Column::U32(_) => false,
                Column::U64(ids) => sel.iter().any(|&i| ids[i as usize] > u64::from(u32::MAX)),
            };
            total += 2 + v.len() as u64 + 1 + rows * if wide { 8 } else { 4 };
            if c.null_count > 0 && sel.iter().any(|&i| c.is_null(i as usize)) {
                total += rows.div_ceil(8);
            }
        }
        total
    }

    /// Convert a row-oriented set (row order preserved).
    pub fn from_set(set: &SolutionSet) -> Self {
        let mut out = Self::empty(set.vars().to_vec());
        for row in set.rows() {
            out.push_row(row);
        }
        out
    }

    /// Convert back to the row-oriented boundary type.
    ///
    /// # Panics
    /// Panics if any binding is null — [`SolutionSet`] cannot represent
    /// unbound cells, and the engine never checkpoints or returns them.
    pub fn to_set(&self) -> SolutionSet {
        assert_eq!(self.null_count(), 0, "cannot convert a batch with nulls to a SolutionSet");
        let all: Vec<usize> = (0..self.cols.len()).collect();
        let rows = u32::try_from(self.rows).expect("batch rows fit the u32 row index space");
        self.select_rows(self.vars.to_vec(), &all, &(0..rows).collect::<Vec<u32>>())
    }

    /// Rows `sel` (in `sel` order, repeats allowed) of columns `cols` (in
    /// `cols` order) as a row-major [`SolutionSet`] named `vars`: one
    /// buffer, filled a column at a time. Null cells read as id 0, as in
    /// [`Self::column`].
    ///
    /// # Panics
    /// Panics if `vars` and `cols` differ in length or a column or
    /// selected row is out of bounds.
    pub fn select_rows(&self, vars: Vec<String>, cols: &[usize], sel: &[u32]) -> SolutionSet {
        self.view().select_rows(vars, cols, sel)
    }

    /// All rows, as a [`BatchView`].
    pub fn view(&self) -> BatchView<'_> {
        BatchView { vars: &self.vars, cols: Cols::Data(&self.cols), start: 0, end: self.rows }
    }

    /// Variable names (column order).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The shared schema, for building batches that keep it.
    pub fn schema(&self) -> &Arc<[String]> {
        &self.vars
    }

    /// Whether `other` has this batch's schema: the same `Arc`, or equal
    /// names in the same order.
    pub(crate) fn same_schema(&self, other: &[String]) -> bool {
        std::ptr::eq(&*self.vars, other) || *self.vars == *other
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

    /// The binding at (`row`, `col`), or `None` if it is null.
    pub fn get(&self, row: usize, col: usize) -> Option<TermId> {
        assert!(row < self.rows && col < self.cols.len(), "cell out of bounds");
        let c = &self.cols[col];
        if c.is_null(row) {
            return None;
        }
        Some(TermId(c.values.get(row)))
    }

    /// Borrow the ids of column `col` at their stored width. Null cells
    /// read as id 0; callers that cannot tell check [`Self::has_nulls`]
    /// first.
    ///
    /// # Panics
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> &Column {
        &self.cols[col].values
    }

    /// Total null bindings across all columns.
    pub fn null_count(&self) -> usize {
        self.cols.iter().map(|c| c.null_count).sum()
    }

    /// Whether any binding is null.
    pub fn has_nulls(&self) -> bool {
        self.cols.iter().any(|c| c.null_count > 0)
    }

    /// Copy row `i` into `buf` (cleared first).
    ///
    /// # Panics
    /// Panics if the row is out of bounds or contains a null binding.
    pub fn copy_row(&self, i: usize, buf: &mut Vec<TermId>) {
        assert!(i < self.rows, "row out of bounds");
        buf.clear();
        for c in &self.cols {
            assert!(!c.is_null(i), "copy_row on a null binding");
            buf.push(TermId(c.values.get(i)));
        }
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Vec<TermId> {
        let mut buf = Vec::with_capacity(self.cols.len());
        self.copy_row(i, &mut buf);
        buf
    }

    /// Append a fully bound row.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push_row(&mut self, row: &[TermId]) {
        assert_eq!(row.len(), self.vars.len(), "row width must match schema");
        for (c, t) in self.cols.iter_mut().zip(row) {
            c.values.push(t.raw());
        }
        self.rows += 1;
    }

    /// Append a row with possibly unbound cells (`None` ⇒ null).
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push_opt_row(&mut self, row: &[Option<TermId>]) {
        assert_eq!(row.len(), self.vars.len(), "row width must match schema");
        let i = self.rows;
        for (c, t) in self.cols.iter_mut().zip(row) {
            match t {
                Some(t) => c.values.push(t.raw()),
                None => {
                    c.values.push(0);
                    c.set_null(i);
                }
            }
        }
        self.rows += 1;
    }

    /// Append all rows of `other` (schemas must match exactly).
    ///
    /// # Panics
    /// Panics if schemas differ.
    pub fn append(&mut self, other: SolutionBatch) {
        assert!(self.same_schema(&other.vars), "merge requires identical schemas");
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            dst.append(src);
        }
        self.rows += other.rows;
    }

    /// Append rows `sel` of `src`, in `sel` order (schemas must match
    /// exactly) — [`Self::gather`] onto an existing batch.
    ///
    /// # Panics
    /// Panics if schemas differ or a selected row is out of bounds.
    pub fn extend_gather(&mut self, src: &SolutionBatch, sel: &[u32]) {
        assert!(self.same_schema(&src.vars), "gather requires identical schemas");
        for (dst, src) in self.cols.iter_mut().zip(&src.cols) {
            dst.extend_gather(src, sel);
        }
        self.rows += sel.len();
    }

    /// Split off rows `[at, len)` into a new batch, keeping `[0, at)`.
    ///
    /// # Panics
    /// Panics if `at > len` or if the batch has nulls (split is only used
    /// on the fully bound re-balancing path).
    pub fn split_off(&mut self, at: usize) -> SolutionBatch {
        assert!(at <= self.rows, "split point out of bounds");
        assert_eq!(self.null_count(), 0, "split_off on a batch with nulls");
        let cols =
            self.cols.iter_mut().map(|c| ColumnData::bound(c.values.split_off(at))).collect();
        let moved = self.rows - at;
        self.rows = at;
        SolutionBatch { vars: self.vars.clone(), cols, rows: moved }
    }

    /// Exact serialized size in bytes under the columnar wire layout:
    /// `u16` var count; per var a `u16` length + name bytes; `u64` row
    /// count; per column one tag byte, `rows × width` value bytes, and
    /// `⌈rows/8⌉` bitmap bytes when the column has nulls. This is the
    /// number the engine charges to networks, caches, and re-balancing.
    pub fn byte_size(&self) -> u64 {
        let rows = self.rows as u64;
        let mut total = 2u64 + 8;
        for (v, c) in self.vars.iter().zip(&self.cols) {
            total += 2 + v.len() as u64;
            total += 1 + rows * c.values.width();
            if c.nulls.is_some() {
                total += rows.div_ceil(8);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> TermId {
        TermId(v)
    }

    fn demo_set() -> SolutionSet {
        SolutionSet::new(
            vec!["protein".into(), "compound".into()],
            (0..10).map(|i| vec![id(i), id(100 + i)]).collect(),
        )
    }

    #[test]
    fn round_trips_through_set() {
        let set = demo_set();
        let batch = SolutionBatch::from_set(&set);
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.vars(), set.vars());
        assert_eq!(batch.to_set(), set);
        assert_eq!(batch.row(3), vec![id(3), id(103)]);
        assert_eq!(batch.get(3, 1), Some(id(103)));
    }

    #[test]
    fn narrow_columns_use_four_bytes_and_promote_on_overflow() {
        let mut b = SolutionBatch::empty(vec!["x".into()]);
        b.push_row(&[id(7)]);
        // header: 2 (nvars) + 8 (nrows) + 2+1 (name "x") + 1 (tag) = 14
        assert_eq!(b.byte_size(), 14 + 4);
        b.push_row(&[id(u64::from(u32::MAX) + 1)]);
        // Overflow promotes the whole column to 8-byte cells.
        assert_eq!(b.byte_size(), 14 + 2 * 8);
        assert_eq!(b.row(0), vec![id(7)]);
        assert_eq!(b.row(1), vec![id(u64::from(u32::MAX) + 1)]);
    }

    #[test]
    fn byte_size_matches_row_set_formula() {
        let set = demo_set();
        let batch = SolutionBatch::from_set(&set);
        assert_eq!(batch.byte_size(), set.byte_size());
    }

    #[test]
    fn null_bitmap_tracks_unbound_cells() {
        let mut b = SolutionBatch::empty(vec!["a".into(), "b".into()]);
        b.push_opt_row(&[Some(id(1)), None]);
        b.push_opt_row(&[Some(id(2)), Some(id(3))]);
        assert_eq!(b.null_count(), 1);
        assert_eq!(b.get(0, 1), None);
        assert_eq!(b.get(1, 1), Some(id(3)));
        // Bitmap bytes are charged for the nullable column only.
        let without = {
            let mut c = SolutionBatch::empty(vec!["a".into(), "b".into()]);
            c.push_row(&[id(1), id(0)]);
            c.push_row(&[id(2), id(3)]);
            c.byte_size()
        };
        assert_eq!(b.byte_size(), without + 1);
    }

    #[test]
    #[should_panic(expected = "nulls")]
    fn to_set_rejects_nulls() {
        let mut b = SolutionBatch::empty(vec!["a".into()]);
        b.push_opt_row(&[None]);
        b.to_set();
    }

    #[test]
    fn append_and_split_preserve_order() {
        let mut a = SolutionBatch::from_set(&demo_set());
        let b = SolutionBatch::from_set(&demo_set());
        a.append(b);
        assert_eq!(a.len(), 20);
        let tail = a.split_off(15);
        assert_eq!((a.len(), tail.len()), (15, 5));
        assert_eq!(tail.row(0), vec![id(5), id(105)]);
        assert_eq!(a.row(14), vec![id(4), id(104)]);
    }

    #[test]
    fn append_keeps_null_positions() {
        let mut a = SolutionBatch::empty(vec!["x".into()]);
        a.push_row(&[id(1)]);
        let mut b = SolutionBatch::empty(vec!["x".into()]);
        b.push_opt_row(&[None]);
        b.push_row(&[id(2)]);
        a.append(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0, 0), Some(id(1)));
        assert_eq!(a.get(1, 0), None);
        assert_eq!(a.get(2, 0), Some(id(2)));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut b = SolutionBatch::empty(vec!["a".into(), "b".into()]);
        b.push_row(&[id(1)]);
    }

    #[test]
    fn gather_repeats_skips_and_narrows() {
        // A `U64` column whose big id is not selected gathers to `U32`.
        let mut src = SolutionBatch::empty(vec!["x".into()]);
        for v in [5, u64::from(u32::MAX) + 9, 6, 7] {
            src.push_row(&[id(v)]);
        }
        assert_eq!(src.column(0).width(), 8);
        let picked = SolutionBatch::gather(&src, &[3, 0, 0, 2]);
        assert_eq!(picked.column(0), &Column::U32(vec![7, 5, 5, 6]));
        let wide = SolutionBatch::gather(&src, &[0, 1]);
        assert_eq!(wide.column(0).width(), 8);
        assert!(!wide.has_nulls());
        assert!(SolutionBatch::gather(&src, &[]).is_empty());
    }

    #[test]
    fn derived_batches_share_the_schema() {
        let mut src = SolutionBatch::from_set(&demo_set());
        let schema = src.schema().clone();
        let picked = SolutionBatch::gather(&src, &[1, 2]);
        let tail = src.split_off(4);
        let empty = SolutionBatch::with_schema(schema.clone());
        for b in [&src, &picked, &tail, &empty] {
            assert!(Arc::ptr_eq(b.schema(), &schema));
        }
    }

    #[test]
    fn append_and_extend_gather_accept_an_equal_schema_in_another_arc() {
        let mut a = SolutionBatch::from_set(&demo_set());
        let b = SolutionBatch::from_set(&demo_set());
        assert!(!Arc::ptr_eq(a.schema(), b.schema()));
        a.extend_gather(&b, &[9]);
        a.append(b);
        assert_eq!(a.len(), 21);
        assert_eq!(a.row(10), vec![id(9), id(109)]);
        assert_eq!(a.row(11), vec![id(0), id(100)]);
    }

    #[test]
    #[should_panic(expected = "merge requires identical schemas")]
    fn append_rejects_another_schema() {
        let mut a = SolutionBatch::empty(vec!["x".into(), "y".into()]);
        a.append(SolutionBatch::empty(vec!["y".into(), "x".into()]));
    }

    #[test]
    #[should_panic(expected = "gather requires identical schemas")]
    fn extend_gather_rejects_another_schema() {
        let mut a = SolutionBatch::empty(vec!["x".into()]);
        let mut b = SolutionBatch::empty(vec!["y".into()]);
        b.push_row(&[id(1)]);
        a.extend_gather(&b, &[0]);
    }

    #[test]
    fn gather_byte_size_of_no_rows_is_the_header() {
        let src = SolutionBatch::from_set(&demo_set());
        // 2 (nvars) + 8 (nrows) + 2+7+1 ("protein") + 2+8+1 ("compound")
        assert_eq!(src.gather_byte_size(&[]), 31);
        assert_eq!(src.gather_byte_size(&[]), SolutionBatch::gather(&src, &[]).byte_size());
    }

    #[test]
    fn gather_byte_size_is_wide_only_when_a_selected_id_is() {
        let mut src = SolutionBatch::empty(vec!["x".into()]);
        for v in [5, u64::from(u32::MAX), u64::from(u32::MAX) + 1, 7] {
            src.push_row(&[id(v)]);
        }
        assert_eq!(src.column(0).width(), 8);
        // `u32::MAX` itself still fits a four-byte cell.
        for (sel, want) in [(&[0, 1, 3][..], 14 + 3 * 4), (&[2, 0][..], 14 + 2 * 8)] {
            assert_eq!(src.gather_byte_size(sel), want, "{sel:?}");
            assert_eq!(src.gather_byte_size(sel), SolutionBatch::gather(&src, sel).byte_size());
        }
    }

    #[test]
    fn gather_byte_size_charges_a_bitmap_only_when_a_selected_cell_is_null() {
        let mut src = SolutionBatch::empty(vec!["a".into(), "b".into()]);
        src.push_opt_row(&[Some(id(1)), None]);
        for i in 0..9 {
            src.push_row(&[id(i), id(i)]);
        }
        let dense: Vec<u32> = (1..10).collect();
        let with_null: Vec<u32> = (0..9).collect();
        // Nine rows: a two-byte bitmap, on column `b` alone.
        assert_eq!(src.gather_byte_size(&with_null), src.gather_byte_size(&dense) + 2);
        for sel in [&dense, &with_null] {
            assert_eq!(src.gather_byte_size(sel), SolutionBatch::gather(&src, sel).byte_size());
        }
    }

    #[test]
    #[should_panic(expected = "selected row out of bounds")]
    fn gather_byte_size_rejects_an_out_of_bounds_row() {
        SolutionBatch::from_set(&demo_set()).gather_byte_size(&[10]);
    }

    #[test]
    fn select_rows_fills_the_picked_columns_of_the_selected_rows() {
        let mut src = SolutionBatch::empty(vec!["x".into(), "y".into()]);
        for v in [5, u64::from(u32::MAX) + 9, 6] {
            src.push_row(&[id(v), id(v + 100)]);
        }
        let set = src.select_rows(vec!["y".into(), "x".into()], &[1, 0], &[2, 0, 2]);
        assert_eq!(set.vars(), ["y", "x"]);
        let want = [vec![id(106), id(6)], vec![id(105), id(5)], vec![id(106), id(6)]];
        assert_eq!(set.rows().to_vec(), want);
        let wide = src.select_rows(vec!["x".into()], &[0], &[1]);
        assert_eq!(wide.rows()[0], [id(u64::from(u32::MAX) + 9)]);
        // No columns: the selected rows are still counted.
        let bare = src.select_rows(vec![], &[], &[0, 1, 2, 1]);
        assert_eq!((bare.len(), bare.rows().iter().count()), (4, 4));
        assert_eq!(SolutionBatch::from_set(&bare).to_set(), bare);
    }

    /// The gather and append kernels against the row-at-a-time loops they
    /// replaced, as `==` on the batches — values, column widths, null
    /// bitmaps — so `byte_size()` agrees too. Sizes grow in release builds
    /// (`ci.sh` runs `cargo test -p ids-graph --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);
        const MAX_ROWS: usize = if FULL { 6000 } else { 300 };

        /// How a random batch's columns come to be `U32` or `U64`.
        #[derive(Clone, Copy)]
        enum Ids {
            /// Every id fits in 32 bits.
            Small,
            /// About one id in eight is within two of `u32::MAX`, half of
            /// those past it.
            Mixed,
            /// `U64` columns holding only small ids — what `split_off`
            /// leaves when the column's big ids stayed in the other half.
            WideButSmall,
        }

        fn random_batch(
            cols: usize,
            rows: usize,
            ids: Ids,
            nulls: bool,
            rng: &mut SplitMix64,
        ) -> SolutionBatch {
            let mut b = SolutionBatch::empty((0..cols).map(|c| format!("v{c}")).collect());
            for _ in 0..rows {
                let row: Vec<Option<TermId>> = (0..cols)
                    .map(|_| {
                        if nulls && rng.next_below(5) == 0 {
                            return None;
                        }
                        let small = rng.next_below(50);
                        let big = matches!(ids, Ids::Mixed) && rng.next_below(8) == 0;
                        Some(id(if big { u64::from(u32::MAX) - 1 + small % 4 } else { small }))
                    })
                    .collect();
                b.push_opt_row(&row);
            }
            if matches!(ids, Ids::WideButSmall) {
                for c in &mut b.cols {
                    if let Column::U32(v) = &c.values {
                        c.values = Column::U64(v.iter().map(|&x| u64::from(x)).collect());
                    }
                }
            }
            b
        }

        fn ids_mode(mode: u8) -> Ids {
            [Ids::Small, Ids::Mixed, Ids::WideButSmall][mode as usize % 3]
        }

        /// The loop every kernel here replaced: one `push_opt_row` per row.
        fn push_rows(
            dst: &mut SolutionBatch,
            src: &SolutionBatch,
            rows: impl Iterator<Item = usize>,
        ) {
            for r in rows {
                let row: Vec<Option<TermId>> =
                    (0..src.vars().len()).map(|c| src.get(r, c)).collect();
                dst.push_opt_row(&row);
            }
        }

        fn random_sel(len: usize, src_rows: usize, rng: &mut SplitMix64) -> Vec<u32> {
            if src_rows == 0 {
                return Vec::new();
            }
            (0..len).map(|_| rng.next_below(src_rows as u64) as u32).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 256 } else { 64 }))]

            #[test]
            fn gather_equals_pushing_the_selected_rows(
                seed in 0u64..1_000_000,
                cols in 0usize..=4,
                rows in 0usize..=MAX_ROWS,
                picks in 0usize..=MAX_ROWS,
                mode in 0u8..3,
                nulls in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x6a7e);
                let src = random_batch(cols, rows, ids_mode(mode), nulls, &mut rng);
                let sel = random_sel(picks, src.len(), &mut rng);
                let mut want = SolutionBatch::empty(src.vars().to_vec());
                push_rows(&mut want, &src, sel.iter().map(|&i| i as usize));
                let got = SolutionBatch::gather(&src, &sel);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(got, want);
            }

            /// The streamed exchange's wire bytes: every sub-batch size it
            /// charges is the size of the batch it no longer builds.
            #[test]
            fn gather_byte_size_equals_the_gathered_batch(
                seed in 0u64..1_000_000,
                cols in 0usize..=4,
                rows in 0usize..=MAX_ROWS,
                picks in 0usize..=MAX_ROWS,
                chunk in 1usize..=64,
                mode in 0u8..3,
                nulls in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0xb17e);
                let src = random_batch(cols, rows, ids_mode(mode), nulls, &mut rng);
                let sel = random_sel(picks, src.len(), &mut rng);
                prop_assert_eq!(src.gather_byte_size(&sel), SolutionBatch::gather(&src, &sel).byte_size());
                for sub in sel.chunks(chunk) {
                    prop_assert_eq!(src.gather_byte_size(sub), SolutionBatch::gather(&src, sub).byte_size());
                }
            }

            #[test]
            fn extend_gather_and_append_equal_pushing_onto_the_batch(
                seed in 0u64..1_000_000,
                cols in 0usize..=4,
                dst_rows in 0usize..=MAX_ROWS / 4,
                src_rows in 0usize..=MAX_ROWS,
                dst_mode in 0u8..3,
                src_mode in 0u8..3,
                nulls in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0xa99e);
                let dst = random_batch(cols, dst_rows, ids_mode(dst_mode), nulls, &mut rng);
                let src = random_batch(cols, src_rows, ids_mode(src_mode), nulls, &mut rng);

                let sel = random_sel(src.len() / 2, src.len(), &mut rng);
                let mut want = dst.clone();
                push_rows(&mut want, &src, sel.iter().map(|&i| i as usize));
                let mut got = dst.clone();
                got.extend_gather(&src, &sel);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(got, want);

                let mut want = dst.clone();
                push_rows(&mut want, &src, 0..src.len());
                let mut got = dst;
                got.append(src);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(got, want);
            }
        }
    }
}

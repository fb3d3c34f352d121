//! Term-id columns and the views the engine's kernels read.
//!
//! Inside the engine, a pipeline stage's solutions are one
//! [`crate::stage::StageBatch`]: one dictionary-term-id [`Column`] per
//! variable, stored at the narrowest width that holds every id (`u32` until
//! a column sees an id past `u32::MAX`, `u64` after). A [`BatchView`]
//! borrows a run of a stage's rows; [`crate::SolutionSet`] is the
//! row-oriented boundary type for results.
//!
//! **Honest byte accounting.** Column widths are model inputs: a rank's
//! serialized size ([`crate::stage::StageBatch::segment_byte_size`]) is
//! the exact size under the columnar wire layout (schema header + one tag
//! byte per column + `rows × width` value bytes), the formula the typed
//! cache objects in ids-cache use. Network charges, cache admission caps
//! and re-balancing all charge it. Every kernel here follows one width
//! rule (`Column::extend`), so a column's width depends only on the ids
//! it holds, never on how they were batched.

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

/// Borrowed rows `[start, end)` of a [`crate::stage::StageBatch`]: one
/// rank's segment or the whole stage. It is what the join kernel, the
/// FILTER/APPLY workers and the result gather read. Row `i` of the view is
/// row `start + i` of its source; nothing is copied to make one.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    vars: &'a Arc<[String]>,
    cols: &'a [Column],
    start: usize,
    end: usize,
}

impl<'a> BatchView<'a> {
    /// Rows `range` of `cols`, one column per variable of `vars`.
    pub(crate) fn of_columns(
        vars: &'a Arc<[String]>,
        cols: &'a [Column],
        range: std::ops::Range<usize>,
    ) -> Self {
        debug_assert_eq!(vars.len(), cols.len());
        Self { vars, cols, start: range.start, end: range.end }
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
        self.cols[col].as_slice().slice(self.start..self.end)
    }

    /// Rows `sel` (in `sel` order, repeats allowed) of columns `cols` (in
    /// `cols` order) as a row-major [`SolutionSet`] named `vars`: one
    /// buffer, filled a column at a time.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageBatch;

    const BIG: u64 = 1 << 32;

    /// The column the row-at-a-time loop built: one `push` per id.
    fn pushed(ids: impl IntoIterator<Item = u64>) -> Column {
        let mut col = Column::U32(Vec::new());
        ids.into_iter().for_each(|id| col.push(id));
        col
    }

    #[test]
    fn narrow_columns_use_four_bytes_and_promote_on_overflow() {
        let mut col = pushed([7]);
        assert_eq!(col, Column::U32(vec![7]));
        // `u32::MAX` itself still fits a four-byte cell.
        col.push(u64::from(u32::MAX));
        assert!(matches!(col, Column::U32(_)));
        // Overflow promotes the whole column to 8-byte cells.
        col.push(BIG);
        assert_eq!(col, Column::U64(vec![7, u64::from(u32::MAX), BIG]));
        assert_eq!((col.get(0), col.get(2)), (7, BIG));
    }

    #[test]
    fn gather_repeats_skips_and_narrows() {
        // A `U64` source whose big id is not selected gathers to `U32`.
        let src = Column::U64(vec![5, BIG + 9, 6, 7]);
        let mut picked = Column::U32(Vec::new());
        picked.extend_gather(src.as_slice(), &[3, 0, 0, 2]);
        assert_eq!(picked, Column::U32(vec![7, 5, 5, 6]));
        let mut wide = Column::U32(Vec::new());
        wide.extend_gather(src.as_slice(), &[0, 1]);
        assert_eq!(wide, Column::U64(vec![5, BIG + 9]));
        let mut none = Column::U32(Vec::new());
        none.extend_gather(src.as_slice(), &[]);
        assert!(none.is_empty());
    }

    #[test]
    fn split_off_keeps_the_width_of_both_halves() {
        let mut head = pushed([1, BIG, 2]);
        let tail = head.split_off(2);
        assert_eq!((head, tail), (Column::U64(vec![1, BIG]), Column::U64(vec![2])));
    }

    #[test]
    fn appending_a_wide_column_widens_only_on_a_wide_id() {
        // A `U64` source holding only small ids appends narrow…
        let mut dst = pushed([1]);
        dst.extend_slice(Column::U64(vec![2, 3]).as_slice());
        assert_eq!(dst, Column::U32(vec![1, 2, 3]));
        // …a wide id widens the whole column, and a wide one stays wide.
        dst.extend_slice(Column::U64(vec![BIG]).as_slice());
        assert_eq!(dst, Column::U64(vec![1, 2, 3, BIG]));
        dst.extend_slice(Column::U32(vec![4]).as_slice());
        assert!(matches!(dst, Column::U64(_)));
    }

    #[test]
    fn slices_read_their_range_at_the_stored_width() {
        let col = Column::U64(vec![1, 2, BIG, 3]);
        let s = col.as_slice().slice(1..3);
        assert_eq!((s.len(), s.get(1)), (2, BIG));
        assert!(s.has_wide_id());
        assert!(!col.as_slice().slice(0..2).has_wide_id());
        assert!(ColumnSlice::U32(&[]).is_empty());
    }

    #[test]
    fn a_segment_view_reads_its_own_rows() {
        let vars: Arc<[String]> = vec!["x".to_string(), "y".to_string()].into();
        let cols = vec![Column::U32(vec![1, 2, 3]), Column::U32(vec![11, 12, 13])];
        let stage = StageBatch::from_columns(vars, cols, vec![0, 1, 3]);
        let seg = stage.segment(1);
        assert_eq!((seg.len(), seg.var_index("y")), (2, Some(1)));
        assert_eq!(seg.vars(), ["x", "y"]);
        assert_eq!(seg.column(1), ColumnSlice::U32(&[12, 13]));
        assert!(stage.segment(0).same_schema(&["x".to_string(), "y".to_string()]));
        assert!(!stage.segment(0).same_schema(&["y".to_string(), "x".to_string()]));
    }

    #[test]
    fn select_rows_fills_the_picked_columns_of_the_selected_rows() {
        let vars: Arc<[String]> = vec!["x".to_string(), "y".to_string()].into();
        let ids = [5, BIG + 9, 6];
        let cols = vec![pushed(ids), pushed(ids.map(|v| v + 100))];
        let stage = StageBatch::from_columns(vars, cols, vec![0, 3]);
        let src = stage.view();
        let set = src.select_rows(vec!["y".into(), "x".into()], &[1, 0], &[2, 0, 2]);
        assert_eq!(set.vars(), ["y", "x"]);
        let id = TermId;
        let want = [vec![id(106), id(6)], vec![id(105), id(5)], vec![id(106), id(6)]];
        assert_eq!(set.rows().to_vec(), want);
        let wide = src.select_rows(vec!["x".into()], &[0], &[1]);
        assert_eq!(wide.rows()[0], [id(BIG + 9)]);
        // No columns: the selected rows are still counted.
        let bare = src.select_rows(vec![], &[], &[0, 1, 2, 1]);
        assert_eq!((bare.len(), bare.rows().iter().count()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "one column per variable")]
    fn select_rows_rejects_a_name_without_a_column() {
        let stage = StageBatch::empty(Arc::new([]), 1);
        stage.view().select_rows(vec!["x".into()], &[], &[]);
    }

    /// The gather and append kernels against the row-at-a-time loop they
    /// replaced, as `==` on the columns: values and widths, so every
    /// `byte_size()` computed from them agrees too. Sizes grow in release
    /// builds (`ci.sh` runs `cargo test -p ids-graph --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);
        const MAX_ROWS: usize = if FULL { 6000 } else { 300 };

        /// How a random column comes to be `U32` or `U64`.
        #[derive(Clone, Copy)]
        enum Ids {
            /// Every id fits in 32 bits.
            Small,
            /// About one id in eight is within two of `u32::MAX`, half of
            /// those past it.
            Mixed,
            /// A `U64` column holding only small ids — what `split_off`
            /// leaves when the column's big ids went to the other half.
            WideButSmall,
        }

        fn random_column(rows: usize, ids: Ids, rng: &mut SplitMix64) -> Column {
            let col = pushed((0..rows).map(|_| {
                let small = rng.next_below(50);
                let big = matches!(ids, Ids::Mixed) && rng.next_below(8) == 0;
                if big {
                    u64::from(u32::MAX) - 1 + small % 4
                } else {
                    small
                }
            }));
            match (ids, col) {
                (Ids::WideButSmall, Column::U32(v)) => {
                    Column::U64(v.into_iter().map(u64::from).collect())
                }
                (_, col) => col,
            }
        }

        fn ids_mode(mode: u8) -> Ids {
            [Ids::Small, Ids::Mixed, Ids::WideButSmall][mode as usize % 3]
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
                rows in 0usize..=MAX_ROWS,
                picks in 0usize..=MAX_ROWS,
                mode in 0u8..3,
            ) {
                let mut rng = SplitMix64::new(seed, 0x6a7e);
                let src = random_column(rows, ids_mode(mode), &mut rng);
                let sel = random_sel(picks, src.len(), &mut rng);
                let want = pushed(sel.iter().map(|&i| src.get(i as usize)));
                let mut got = Column::U32(Vec::new());
                got.extend_gather(src.as_slice(), &sel);
                prop_assert_eq!(got, want);
            }

            #[test]
            fn extend_gather_and_append_equal_pushing_onto_the_column(
                seed in 0u64..1_000_000,
                dst_rows in 0usize..=MAX_ROWS / 4,
                src_rows in 0usize..=MAX_ROWS,
                dst_mode in 0u8..3,
                src_mode in 0u8..3,
            ) {
                let mut rng = SplitMix64::new(seed, 0xa99e);
                let dst = random_column(dst_rows, ids_mode(dst_mode), &mut rng);
                let src = random_column(src_rows, ids_mode(src_mode), &mut rng);

                let sel = random_sel(src.len() / 2, src.len(), &mut rng);
                let mut want = dst.clone();
                sel.iter().for_each(|&i| want.push(src.get(i as usize)));
                let mut got = dst.clone();
                got.extend_gather(src.as_slice(), &sel);
                prop_assert_eq!(got, want);

                let mut want = dst.clone();
                (0..src.len()).for_each(|i| want.push(src.get(i)));
                let mut got = dst;
                got.extend_slice(src.as_slice());
                prop_assert_eq!(got, want);
            }
        }
    }
}

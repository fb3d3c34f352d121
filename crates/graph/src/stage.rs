//! Rank-segmented stage batches: one buffer per pipeline stage, not one
//! per rank.
//!
//! Between two stages the engine holds every rank's solutions. A
//! [`StageBatch`] stores them as one id column per variable for the whole
//! stage plus `rank_offsets`, a CSR index over ranks: rank `r`'s rows are
//! rows `rank_offsets[r]..rank_offsets[r + 1]`, in the order a per-rank
//! [`SolutionBatch`] would hold them. Creating, exchanging and freeing a
//! stage costs a handful of allocations whatever the rank count.
//!
//! **Per-rank widths.** A rank's segment weighs what its own
//! [`SolutionBatch`] would: a column's segment is eight bytes per cell
//! exactly when that batch's column would be [`Column::U64`]. The stage
//! keeps that set of ranks per column. Every constructor here decides it
//! by content (a segment is wide when it holds an id past `u32::MAX`),
//! except [`StageBatch::rebalance`], where a kept segment keeps its width
//! and a receiving one only widens, as `split_off` and `push_row` do.
//! [`StageBatch::segment_byte_size`] is therefore the per-rank
//! `byte_size()` every exchange, gather and cache-admission charge uses.
//! A stage column is stored at eight bytes exactly when some rank's
//! segment is wide.

use crate::batch::{BatchView, Column, ColumnSlice, SolutionBatch};
use std::ops::Range;
use std::sync::Arc;

/// Rank offsets (`ranks + 1` entries) of segments holding `counts` rows;
/// `None` if the rows do not fit the `u32` row index space.
pub fn offsets_from_counts(counts: impl IntoIterator<Item = usize>) -> Option<Vec<u32>> {
    let counts = counts.into_iter();
    let mut offsets = Vec::with_capacity(counts.size_hint().0 + 1);
    offsets.push(0u32);
    let mut total = 0usize;
    for n in counts {
        total = total.checked_add(n)?;
        offsets.push(u32::try_from(total).ok()?);
    }
    Some(offsets)
}

/// One variable's column for a whole stage, every segment of `values`
/// wide exactly when it holds an id past `u32::MAX`. Returns the column
/// at its storage width and its wide ranks.
fn settle(values: Column, offsets: &[u32]) -> (Column, Vec<u32>) {
    let Column::U64(ids) = values else { return (values, Vec::new()) };
    let wide: Vec<u32> = (0..offsets.len() - 1)
        .filter(|&r| {
            ColumnSlice::U64(&ids[offsets[r] as usize..offsets[r + 1] as usize]).has_wide_id()
        })
        .map(|r| r as u32)
        .collect();
    if wide.is_empty() {
        // Every id fits: a wide source gathered only narrow ones.
        (Column::U32(ids.into_iter().map(|x| x as u32).collect()), wide)
    } else {
        (Column::U64(ids), wide)
    }
}

/// A pipeline stage's solutions for every rank: one column buffer per
/// variable, segmented by rank. See the module documentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBatch {
    vars: Arc<[String]>,
    cols: Vec<Column>,
    /// Per column, the ranks (ascending) whose segment is eight bytes wide.
    wide: Vec<Vec<u32>>,
    /// `ranks + 1` entries: rank `r`'s rows are `offsets[r]..offsets[r + 1]`.
    offsets: Vec<u32>,
}

impl StageBatch {
    /// No rows on any of `ranks` ranks.
    pub fn empty(schema: Arc<[String]>, ranks: usize) -> Self {
        let cols = schema.iter().map(|_| Column::U32(Vec::new())).collect();
        let wide = schema.iter().map(|_| Vec::new()).collect();
        Self { vars: schema, cols, wide, offsets: vec![0; ranks + 1] }
    }

    /// A stage of `cols` (one per variable, every one `offsets.last()`
    /// long) segmented by `offsets`, each segment's width decided by its
    /// content. A zero-variable stage still counts its rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the schema, a column's
    /// length from the row count, or `offsets` is empty or decreasing.
    pub fn from_columns(vars: Arc<[String]>, cols: Vec<Column>, offsets: Vec<u32>) -> Self {
        assert_eq!(cols.len(), vars.len(), "one column per variable");
        assert!(!offsets.is_empty() && offsets.windows(2).all(|w| w[0] <= w[1]), "rank offsets");
        let rows = offsets[offsets.len() - 1] as usize;
        assert!(cols.iter().all(|c| c.len() == rows), "every column holds one id per row");
        let (cols, wide) = cols.into_iter().map(|c| settle(c, &offsets)).unzip();
        Self { vars, cols, wide, offsets }
    }

    /// The stage whose rank `r` holds `batches[r]`, at each batch's own
    /// column widths — how a checkpoint's per-rank batches re-enter the
    /// pipeline. `None` if there are no batches, their schemas differ, a
    /// batch has an unbound cell (stages are fully bound), or the rows do
    /// not fit the `u32` row index space.
    pub fn from_batches(batches: &[SolutionBatch]) -> Option<Self> {
        let first = batches.first()?;
        if batches.iter().any(|b| !b.same_schema(first.vars()) || b.has_nulls()) {
            return None;
        }
        let offsets = offsets_from_counts(batches.iter().map(SolutionBatch::len))?;
        let mut cols = Vec::with_capacity(first.vars().len());
        let mut wide = Vec::with_capacity(first.vars().len());
        for c in 0..first.vars().len() {
            let ranks: Vec<u32> = (0..batches.len() as u32)
                .filter(|&r| batches[r as usize].column(c).width() == 8)
                .collect();
            let mut col = if ranks.is_empty() {
                Column::U32(Vec::with_capacity(offsets[batches.len()] as usize))
            } else {
                Column::U64(Vec::with_capacity(offsets[batches.len()] as usize))
            };
            for b in batches {
                col.extend_slice(b.column(c).as_slice());
            }
            cols.push(col);
            wide.push(ranks);
        }
        Some(Self { vars: first.schema().clone(), cols, wide, offsets })
    }

    /// Rank `r`'s segment as its own batch, at the segment's widths — the
    /// per-rank view checkpoints and the test oracles compare against.
    pub fn segment_batch(&self, r: usize) -> SolutionBatch {
        let range = self.segment_range(r);
        let cols = (0..self.cols.len())
            .map(|c| {
                let mut out = if self.segment_width(r, c) == 8 {
                    Column::U64(Vec::with_capacity(range.len()))
                } else {
                    Column::U32(Vec::with_capacity(range.len()))
                };
                out.extend_slice(self.cols[c].as_slice().slice(range.clone()));
                out
            })
            .collect();
        SolutionBatch::from_columns(self.vars.clone(), cols, range.len())
    }

    /// Every rank's segment as its own batch ([`Self::segment_batch`]).
    pub fn to_batches(&self) -> Vec<SolutionBatch> {
        (0..self.ranks()).map(|r| self.segment_batch(r)).collect()
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total rows over every rank.
    pub fn len(&self) -> usize {
        self.offsets[self.ranks()] as usize
    }

    /// Whether no rank holds a row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The CSR index over ranks: `ranks + 1` row offsets.
    pub fn rank_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Rank `r`'s rows, as stage row indices.
    pub fn segment_range(&self, r: usize) -> Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// Rows on rank `r`.
    pub fn segment_len(&self, r: usize) -> usize {
        (self.offsets[r + 1] - self.offsets[r]) as usize
    }

    /// Rank `r`'s rows as a view.
    pub fn segment(&self, r: usize) -> BatchView<'_> {
        BatchView::of_columns(&self.vars, &self.cols, self.segment_range(r))
    }

    /// Every row of the stage, ranks in order, as one view — the merged
    /// batch a gather reads.
    pub fn view(&self) -> BatchView<'_> {
        BatchView::of_columns(&self.vars, &self.cols, 0..self.len())
    }

    /// Variable names (column order).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<[String]> {
        &self.vars
    }

    /// Index of a variable in the schema.
    pub fn var_index(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Every row of column `col`, at the stage's storage width.
    pub fn column(&self, col: usize) -> ColumnSlice<'_> {
        self.cols[col].as_slice()
    }

    /// Bytes per cell of rank `r`'s segment of column `col`: 8 exactly
    /// when the rank's own batch would hold a `U64` column.
    pub fn segment_width(&self, r: usize, col: usize) -> u64 {
        if self.wide[col].binary_search(&(r as u32)).is_ok() {
            8
        } else {
            4
        }
    }

    /// Rank `r`'s exact serialized size: [`SolutionBatch::byte_size`] of
    /// [`Self::segment_batch`], without building it.
    pub fn segment_byte_size(&self, r: usize) -> u64 {
        self.byte_size_at(r, self.segment_len(r))
    }

    /// The serialized size of `rows` rows at rank `r`'s column widths.
    fn byte_size_at(&self, r: usize, rows: usize) -> u64 {
        let cells: u64 = (0..self.cols.len()).map(|c| self.segment_width(r, c)).sum();
        let names: u64 = self.vars.iter().map(|v| 2 + v.len() as u64 + 1).sum();
        2 + 8 + names + rows as u64 * cells
    }

    /// The sum of every rank's [`Self::segment_byte_size`].
    pub fn byte_size(&self) -> u64 {
        let ranks = self.ranks() as u64;
        let rows = self.len() as u64;
        let mut total = ranks * (2 + 8);
        for (v, wide) in self.vars.iter().zip(&self.wide) {
            let wide_rows: u64 = wide.iter().map(|&r| self.segment_len(r as usize) as u64).sum();
            total += ranks * (2 + v.len() as u64 + 1) + 4 * rows + 4 * wide_rows;
        }
        total
    }

    /// The size of every rank's rows merged into one batch (ranks in
    /// order, as `merge_batches` appends them): a column is eight bytes
    /// wide when rank 0's segment is or any row holds an id past
    /// `u32::MAX`.
    pub fn merged_byte_size(&self) -> u64 {
        let rows = self.len() as u64;
        let mut total = 2u64 + 8;
        for (c, v) in self.vars.iter().enumerate() {
            let wide = self.segment_width(0, c) == 8 || self.cols[c].as_slice().has_wide_id();
            total += 2 + v.len() as u64 + 1 + rows * if wide { 8 } else { 4 };
        }
        total
    }

    /// Column `col` of rows `sel` (stage row indices, in `sel` order), at
    /// the narrowest width that holds them: one column of
    /// [`Self::gather`], for callers that gather columns in parallel and
    /// assemble them with [`Self::from_columns`].
    pub fn gather_column(&self, col: usize, sel: &[u32]) -> Column {
        let mut out = Column::U32(Vec::with_capacity(sel.len()));
        out.extend_gather(self.cols[col].as_slice(), sel);
        out
    }

    /// Rows `sel` of this stage (stage row indices, in `sel` order)
    /// segmented by `offsets`, each segment's width decided by its content.
    ///
    /// # Panics
    /// Panics if a selected row is out of bounds or `offsets` does not
    /// end at `sel.len()`.
    pub fn gather(&self, sel: &[u32], offsets: Vec<u32>) -> StageBatch {
        let cols = (0..self.cols.len()).map(|c| self.gather_column(c, sel)).collect();
        StageBatch::from_columns(self.vars.clone(), cols, offsets)
    }

    /// [`Self::gather`] plus one more column, `extra` (one id per selected
    /// row), under `schema` (this stage's variables and the new one).
    ///
    /// # Panics
    /// As [`Self::gather`], or if `schema` is not one variable longer or
    /// `extra` not as long as `sel`.
    pub fn gather_with_column(
        &self,
        sel: &[u32],
        offsets: Vec<u32>,
        schema: Arc<[String]>,
        extra: &[u64],
    ) -> StageBatch {
        assert_eq!(schema.len(), self.vars.len() + 1, "one new variable");
        assert_eq!(extra.len(), sel.len(), "one new id per row");
        let mut cols: Vec<Column> =
            (0..self.cols.len()).map(|c| self.gather_column(c, sel)).collect();
        cols.push(Column::collect(extra.iter().copied()));
        StageBatch::from_columns(schema, cols, offsets)
    }

    /// Move rows between ranks to meet `targets` (one per rank): a rank
    /// over its target keeps its first `target` rows and ships the rest;
    /// the shipped rows, ranks in order, are dealt round-robin over the
    /// ranks under target (in rank order), each appended after the
    /// receiver's own rows and skipping receivers already full. Rows left
    /// over once every receiver is full are dropped — a plan whose targets
    /// sum to the rows never leaves any.
    ///
    /// Returns the placed stage and each rank's shipped bytes: the
    /// serialized size of its shipped rows at its own column widths. A
    /// kept segment keeps its widths and a receiving one widens only on an
    /// id past `u32::MAX` (`split_off` and `push_row` on a per-rank batch).
    /// `None` if the placed rows do not fit the `u32` row index space,
    /// which moving rows alone cannot cause.
    ///
    /// # Panics
    /// Panics if `targets` does not hold one entry per rank.
    pub fn rebalance(&self, targets: &[u64]) -> Option<(StageBatch, Vec<u64>)> {
        let ranks = self.ranks();
        assert_eq!(targets.len(), ranks, "one target per rank");
        let target = |r: usize| usize::try_from(targets[r]).unwrap_or(usize::MAX);
        let mut moved_bytes = vec![0u64; ranks];
        // Shipped rows, ranks in order, then row order.
        let mut surplus: Vec<u32> = Vec::new();
        let mut fill: Vec<usize> = (0..ranks).map(|r| self.segment_len(r)).collect();
        for (r, bytes) in moved_bytes.iter_mut().enumerate() {
            let range = self.segment_range(r);
            if range.len() > target(r) {
                *bytes = self.byte_size_at(r, range.len() - target(r));
                surplus.extend(range.start as u32 + target(r) as u32..range.end as u32);
                fill[r] = target(r);
            }
        }
        // Deal the surplus: `dealt[k]` is the receiver of surplus row `k`.
        let deficits: Vec<usize> = (0..ranks).filter(|&r| fill[r] < target(r)).collect();
        let mut dealt: Vec<u32> = Vec::with_capacity(surplus.len());
        if !deficits.is_empty() {
            let mut di = 0usize;
            'deal: for _ in &surplus {
                let mut tried = 0;
                while fill[deficits[di]] >= target(deficits[di]) {
                    di = (di + 1) % deficits.len();
                    tried += 1;
                    if tried > deficits.len() {
                        break 'deal;
                    }
                }
                fill[deficits[di]] += 1;
                dealt.push(deficits[di] as u32);
                di = (di + 1) % deficits.len();
            }
        }
        // The new order: each rank's kept rows, then the rows dealt to it
        // in surplus order (a stable counting sort of the dealt rows).
        let offsets = offsets_from_counts(fill.iter().copied())?;
        let mut next: Vec<usize> =
            (0..ranks).map(|r| offsets[r] as usize + self.segment_len(r).min(target(r))).collect();
        let mut perm = vec![0u32; offsets[ranks] as usize];
        for (r, &at) in offsets[..ranks].iter().enumerate() {
            let (start, keep) = (self.offsets[r], self.segment_len(r).min(target(r)));
            let slots = &mut perm[at as usize..at as usize + keep];
            for (slot, row) in slots.iter_mut().zip(start..) {
                *slot = row;
            }
        }
        for (&row, &to) in surplus.iter().zip(&dealt) {
            perm[next[to as usize]] = row;
            next[to as usize] += 1;
        }
        // Widths: a rank keeps its own, and widens on a dealt wide id.
        let mut wide: Vec<Vec<u32>> = Vec::with_capacity(self.cols.len());
        let mut cols = Vec::with_capacity(self.cols.len());
        for (c, col) in self.cols.iter().enumerate() {
            let src = col.as_slice();
            let ranks_wide: Vec<u32> = (0..ranks)
                .filter(|&r| {
                    self.segment_width(r, c) == 8
                        || perm[offsets[r] as usize..offsets[r + 1] as usize]
                            .iter()
                            .any(|&row| src.get(row as usize) > u64::from(u32::MAX))
                })
                .map(|r| r as u32)
                .collect();
            let mut out = if ranks_wide.is_empty() {
                Column::U32(Vec::with_capacity(perm.len()))
            } else {
                Column::U64(Vec::with_capacity(perm.len()))
            };
            out.extend_gather(src, &perm);
            cols.push(out);
            wide.push(ranks_wide);
        }
        let placed = StageBatch { vars: self.vars.clone(), cols, wide, offsets };
        Some((placed, moved_bytes))
    }
}

/// The rows one pool worker built for the ranks it ran, in the order it
/// ran them — one piece of a stage under construction. A phase runs one
/// part per worker and [`StageBatch::assemble`] puts the rows in rank
/// order, so building a stage costs a few buffers per worker, not per
/// rank.
#[derive(Debug)]
pub struct StagePart {
    cols: Vec<Column>,
    rows: usize,
}

impl StagePart {
    /// An empty part of a stage with `columns` variables.
    pub fn new(columns: usize) -> Self {
        Self::with_capacity(columns, 0)
    }

    /// An empty part with room for `rows` rows: a part that can be told
    /// its likely size never regrows (and pages never written cost no
    /// memory).
    pub fn with_capacity(columns: usize, rows: usize) -> Self {
        let cols = (0..columns).map(|_| Column::U32(Vec::with_capacity(rows))).collect();
        Self { cols, rows: 0 }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no row has been appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns, each as long as the part.
    pub(crate) fn into_columns(self) -> Vec<Column> {
        self.cols
    }

    /// The columns, for a kernel appending one rank's rows; it then calls
    /// [`Self::close_rank`].
    pub(crate) fn cols_mut(&mut self) -> &mut [Column] {
        &mut self.cols
    }

    /// Count `rows` just appended to every column as one rank's; returns
    /// `(first, rows)`, where they sit among this part's rows.
    pub(crate) fn close_rank(&mut self, rows: usize) -> (usize, usize) {
        debug_assert!(self.cols.iter().all(|c| c.len() == self.rows + rows));
        let first = self.rows;
        self.rows += rows;
        (first, rows)
    }
}

impl StageBatch {
    /// The stage whose rank `r` holds rows `spans[r] = (part, first,
    /// count)` of `parts`, each segment's width decided by its ids; `None`
    /// if the rows do not fit the `u32` row index space.
    ///
    /// The leading spans that read one part from its first row on keep
    /// that part's buffers as they are: the stage starts with them, and
    /// only the rows after them are copied (the shard pool's first worker
    /// runs the first ranks, so this is most of a phase's rows).
    ///
    /// # Panics
    /// Panics if a part's column count differs from the schema or a span
    /// is out of bounds.
    pub fn assemble(
        vars: Arc<[String]>,
        mut parts: Vec<StagePart>,
        spans: &[(usize, usize, usize)],
    ) -> Option<StageBatch> {
        assert!(parts.iter().all(|p| p.cols.len() == vars.len()), "one column per variable");
        let offsets = offsets_from_counts(spans.iter().map(|&(_, _, n)| n))?;
        let total = offsets[offsets.len() - 1] as usize;
        // The leading run of spans reading one part from its first row on.
        let lead = spans.first().map_or(usize::MAX, |&(p, _, _)| p);
        let (mut run, mut rows) = (0, 0);
        while spans.get(run).is_some_and(|&(p, first, _)| p == lead && first == rows) {
            rows += spans[run].2;
            run += 1;
        }
        let mut cols = Vec::with_capacity(vars.len());
        for k in 0..vars.len() {
            // The lead part's column keeps its first `rows` rows; the rest
            // of it moves to `tail`, read like any other part.
            let mut out = Column::U32(Vec::new());
            let mut tail = Column::U32(Vec::new());
            if let Some(part) = parts.get_mut(lead) {
                out = std::mem::replace(&mut part.cols[k], Column::U32(Vec::new()));
                tail = out.split_off(rows);
            }
            out.reserve(total - out.len());
            for &(p, first, n) in &spans[run..] {
                let src = if p == lead {
                    tail.as_slice().slice(first - rows..first - rows + n)
                } else {
                    parts[p].cols[k].as_slice().slice(first..first + n)
                };
                out.extend_slice(src);
            }
            cols.push(out);
        }
        Some(StageBatch::from_columns(vars, cols, offsets))
    }
}

/// The stable counting sort of rows by destination: for every row `i`,
/// `dest[i] < ranks` is its rank. Returns the permutation (rows grouped by
/// destination, each group in row order) and the destination segments'
/// offsets. Rows of a stage are in (rank, row) order, so the result is in
/// (destination, source rank, row) order. `None` if the rows do not fit
/// the `u32` row index space.
///
/// # Panics
/// Panics if a destination is out of range.
pub fn partition_permutation(dest: &[u32], ranks: usize) -> Option<(Vec<u32>, Vec<u32>)> {
    let mut counts = vec![0usize; ranks];
    for &d in dest {
        counts[d as usize] += 1;
    }
    let offsets = offsets_from_counts(counts.iter().copied())?;
    let mut next: Vec<u32> = offsets[..ranks].to_vec();
    let mut perm = vec![0u32; dest.len()];
    for (row, &d) in dest.iter().enumerate() {
        let slot = &mut next[d as usize];
        perm[*slot as usize] = row as u32;
        *slot += 1;
    }
    Some((perm, offsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermId;

    fn batch(vars: &[&str], rows: &[&[u64]]) -> SolutionBatch {
        let mut b = SolutionBatch::empty(vars.iter().map(|v| v.to_string()).collect());
        for row in rows {
            b.push_row(&row.iter().map(|&v| TermId(v)).collect::<Vec<_>>());
        }
        b
    }

    const BIG: u64 = 1 << 32;

    #[test]
    fn batches_round_trip_with_their_widths() {
        let mut sticky = batch(&["x", "y"], &[&[1, 2], &[BIG, 3]]);
        sticky.split_off(1); // `U64` column `x` holding only a small id
        let batches = vec![
            batch(&["x", "y"], &[&[5, 6]]),
            SolutionBatch::with_schema(sticky.schema().clone()),
            sticky,
            batch(&["x", "y"], &[&[7, BIG + 1], &[8, 9]]),
        ];
        let stage = StageBatch::from_batches(&batches).unwrap();
        assert_eq!(stage.ranks(), 4);
        assert_eq!(stage.rank_offsets(), [0, 1, 1, 2, 4]);
        assert_eq!(stage.to_batches(), batches);
        for (r, b) in batches.iter().enumerate() {
            assert_eq!(stage.segment_byte_size(r), b.byte_size());
        }
        assert_eq!(stage.byte_size(), batches.iter().map(SolutionBatch::byte_size).sum::<u64>());
        assert_eq!(stage.segment(3).column(1).get(0), BIG + 1);
    }

    #[test]
    fn from_batches_refuses_nulls_and_mixed_schemas() {
        let mut holed = SolutionBatch::empty(vec!["x".into()]);
        holed.push_opt_row(&[None]);
        assert!(StageBatch::from_batches(&[batch(&["x"], &[]), holed]).is_none());
        assert!(StageBatch::from_batches(&[batch(&["x"], &[]), batch(&["y"], &[])]).is_none());
        assert!(StageBatch::from_batches(&[]).is_none());
    }

    #[test]
    fn from_columns_decides_each_segment_width_by_content() {
        let vars: Arc<[String]> = vec!["x".to_string()].into();
        let stage = StageBatch::from_columns(
            vars.clone(),
            vec![Column::U64(vec![1, BIG, 2])],
            vec![0, 1, 3],
        );
        assert_eq!((stage.segment_width(0, 0), stage.segment_width(1, 0)), (4, 8));
        // No wide id anywhere: stored narrow.
        let narrow = StageBatch::from_columns(vars, vec![Column::U64(vec![1, 2])], vec![0, 2]);
        assert_eq!(narrow.column(0), ColumnSlice::U32(&[1, 2]));
    }

    #[test]
    fn partition_is_a_stable_counting_sort() {
        let (perm, offsets) = partition_permutation(&[2, 0, 2, 1, 0], 4).unwrap();
        assert_eq!(perm, [1, 4, 3, 0, 2]);
        assert_eq!(offsets, [0, 2, 3, 5, 5]);
    }

    #[test]
    fn rebalance_keeps_a_prefix_and_deals_the_rest_round_robin() {
        let batches = vec![
            batch(&["x"], &[&[1], &[2], &[BIG], &[4]]),
            batch(&["x"], &[]),
            batch(&["x"], &[&[9]]),
        ];
        let stage = StageBatch::from_batches(&batches).unwrap();
        let (placed, moved) = stage.rebalance(&[1, 2, 2]).unwrap();
        let rows = |r: usize| -> Vec<u64> {
            let s = placed.segment(r);
            (0..s.len()).map(|i| s.column(0).get(i)).collect()
        };
        assert_eq!((rows(0), rows(1), rows(2)), (vec![1], vec![2, 4], vec![9, BIG]));
        // Rank 0 shipped three rows at its own (wide) width; rank 0 keeps it.
        assert_eq!(moved, [10 + 4 + 3 * 8, 0, 0]);
        assert_eq!((placed.segment_width(0, 0), placed.segment_width(1, 0)), (8, 4));
        assert_eq!(placed.segment_width(2, 0), 8);
    }

    #[test]
    fn offsets_past_the_u32_row_space_are_refused() {
        let max = u32::MAX as usize;
        assert_eq!(offsets_from_counts([max - 1, 1]), Some(vec![0, u32::MAX - 1, u32::MAX]));
        assert_eq!(offsets_from_counts([max, 1]), None);
        assert_eq!(offsets_from_counts([usize::MAX, 1]), None);
    }

    #[test]
    fn assembling_a_cross_product_past_the_u32_row_space_is_refused() {
        // Zero-variable parts count rows without storing any, so a cross
        // product of 2^16 × 2^16 rows per rank on two ranks (2^33 rows)
        // costs nothing to build.
        let side = 1usize << 16;
        let mut parts = vec![StagePart::new(0), StagePart::new(0)];
        let spans: Vec<(usize, usize, usize)> = parts
            .iter_mut()
            .enumerate()
            .map(|(w, p)| (w, p.close_rank(side * side).0, side * side))
            .collect();
        assert!(StageBatch::assemble(Arc::new([]), parts, &spans).is_none());
        // One rank of it fits.
        let mut part = StagePart::new(0);
        let (first, n) = part.close_rank(side * side - 1);
        let stage = StageBatch::assemble(Arc::new([]), vec![part], &[(0, first, n)]).unwrap();
        assert_eq!(stage.len(), side * side - 1);
    }
}

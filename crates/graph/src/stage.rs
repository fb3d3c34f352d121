//! Rank-segmented stage batches: one buffer per pipeline stage, not one
//! per rank.
//!
//! Between two stages the engine holds every rank's solutions. A
//! [`StageBatch`] stores them as one id column per variable for the whole
//! stage plus `rank_offsets`, a CSR index over ranks: rank `r`'s rows are
//! rows `rank_offsets[r]..rank_offsets[r + 1]`, in rank order. Creating,
//! exchanging and freeing a stage costs a handful of allocations whatever
//! the rank count. It is the engine's one intermediate layout: filled
//! through [`StagePart`]s, read through [`BatchView`]s.
//!
//! **Per-rank widths.** A rank's segment weighs what that rank's rows
//! would weigh on their own: a column's segment is eight bytes per cell
//! exactly when its rank holds (or, after a rebalance, held) an id past
//! `u32::MAX`. The stage keeps that set of ranks per column. Every
//! constructor here decides it by content (a segment is wide when it holds
//! an id past `u32::MAX`), except [`StageBatch::rebalance`], where a kept
//! segment keeps its width and a receiving one only widens.
//! [`StageBatch::segment_byte_size`] is therefore the per-rank wire size
//! every exchange, gather and cache-admission charge uses. A stage column
//! is stored at eight bytes exactly when some rank's segment is wide.
//!
//! **Recycled buffers.** A stage's columns, an exchange's destinations and
//! its permutation are buffers of hundreds of KiB. Fresh from the allocator,
//! each costs a page fault per 4 KiB written. The producers here take them
//! from an [`IdBuffers`] free list, and the engine gives back what a phase
//! is done with, so a query run maps its buffers once.

use crate::batch::{BatchView, Column, ColumnSlice};
use ids_simrt::sync::lock;
use std::ops::Range;
use std::sync::{Arc, Mutex};

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

/// A free list of id buffers: the `u32` vectors behind stage columns,
/// exchange destinations and permutations. A buffer given back keeps its
/// capacity, and the next producer that needs as much takes it instead of
/// asking the allocator. The list holds what it is given until it is
/// dropped; its owner bounds its life (the engine keeps one per query
/// run).
#[derive(Debug, Default)]
pub struct IdBuffers {
    narrow: Mutex<Vec<Vec<u32>>>,
}

impl IdBuffers {
    /// An empty `u32` vector with room for `capacity` ids.
    pub fn take_u32(&self, capacity: usize) -> Vec<u32> {
        take(&self.narrow, capacity)
    }

    /// Give `buf` back, for a later [`Self::take_u32`].
    pub fn give_u32(&self, buf: Vec<u32>) {
        give(&self.narrow, buf);
    }

    /// Give a column's buffer back. No producer takes a `u64` buffer, so a
    /// wide column's goes back to the allocator.
    fn give_column(&self, col: Column) {
        if let Column::U32(v) = col {
            self.give_u32(v);
        }
    }

    /// Free every buffer on the list, back to the allocator.
    pub fn clear(&self) {
        drop(std::mem::take(&mut *lock(&self.narrow)));
    }

    /// Give every column of `stage` back.
    pub fn give_stage(&self, stage: StageBatch) {
        stage.cols.into_iter().for_each(|c| self.give_column(c));
    }
}

/// The smallest buffer on `list` with room for `capacity` values, emptied,
/// else a fresh one with room for [`size_class`]`(capacity)`. A list whose
/// lock a panicking thread poisoned is still whole: every update is one
/// `push`, `swap_remove` or `take` of the list.
fn take<T>(list: &Mutex<Vec<Vec<T>>>, capacity: usize) -> Vec<T> {
    if capacity == 0 {
        return Vec::new();
    }
    let mut list = lock(list);
    let fit = (0..list.len())
        .filter(|&i| list[i].capacity() >= capacity)
        .min_by_key(|&i| list[i].capacity());
    match fit {
        Some(i) => list.swap_remove(i),
        None => Vec::with_capacity(size_class(capacity)),
    }
}

/// `capacity` rounded up to the next of four size classes per power of
/// two (`2^k` × 1, 1.25, 1.5 or 1.75). Buffers asked for a little under
/// a stage's size (a helper's part grown by doubling, a tail of the first
/// worker's rows) then fit every later request for the stage's size.
fn size_class(capacity: usize) -> usize {
    if capacity <= 8 {
        return capacity;
    }
    let quarter = 1usize << (usize::BITS - 3 - capacity.leading_zeros());
    capacity.div_ceil(quarter) * quarter
}

fn give<T>(list: &Mutex<Vec<Vec<T>>>, mut buf: Vec<T>) {
    if buf.capacity() > 0 {
        buf.clear();
        lock(list).push(buf);
    }
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
    /// when the segment is wide (see the module documentation).
    pub fn segment_width(&self, r: usize, col: usize) -> u64 {
        if self.wide[col].binary_search(&(r as u32)).is_ok() {
            8
        } else {
            4
        }
    }

    /// Rank `r`'s exact serialized size under the columnar wire layout:
    /// `u16` var count; per var a `u16` length + name bytes; `u64` row
    /// count; per column one tag byte plus `rows × width` value bytes, at
    /// the segment's widths ([`Self::segment_width`]).
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

    /// The serialized size of every rank's rows as one segment, ranks in
    /// order, appended to rank 0's: a column is eight bytes wide when rank
    /// 0's segment is or any row holds an id past `u32::MAX`.
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
    /// the narrowest width that holds them, in a buffer from `buffers`: one
    /// column of [`Self::gather`], for callers that gather columns in
    /// parallel and assemble them with [`Self::from_columns`].
    pub fn gather_column(&self, col: usize, sel: &[u32], buffers: &IdBuffers) -> Column {
        let mut out = Column::U32(buffers.take_u32(sel.len()));
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
        let fresh = IdBuffers::default();
        let cols = (0..self.cols.len()).map(|c| self.gather_column(c, sel, &fresh)).collect();
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
        let fresh = IdBuffers::default();
        let mut cols: Vec<Column> =
            (0..self.cols.len()).map(|c| self.gather_column(c, sel, &fresh)).collect();
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
    /// id past `u32::MAX`, as splitting a column and pushing ids onto one
    /// do.
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
///
/// A part holds its rows in chunks. It regrows its open chunk up to
/// [`CHUNK_ROWS`] rows; past that, a rank that does not fit starts a new
/// chunk instead (see [`Self::reserve`]).
#[derive(Debug)]
pub struct StagePart {
    /// The open chunk, which rows are appended to.
    cols: Vec<Column>,
    /// Rows appended so far, in every chunk.
    rows: usize,
    /// The part's row index of the open chunk's first row.
    start: usize,
    /// Full chunks, each with the part's row index of its first row.
    sealed: Vec<(usize, Vec<Column>)>,
}

/// The most rows a part regrows a chunk to: 32 KiB of four-byte ids per
/// column. A pool helper that runs most of a phase's ranks then fills
/// chunks of this size instead of regrowing to the stage's size, so a
/// phase takes no more stage-sized buffers on two workers than on one
/// (the first worker's part, sized for the whole stage, holds those).
pub const CHUNK_ROWS: usize = 8 << 10;

impl StagePart {
    /// An empty part of a stage with `columns` variables.
    pub fn new(columns: usize) -> Self {
        Self::with_capacity(columns, 0, &IdBuffers::default())
    }

    /// An empty part with room for `rows` rows, its columns taken from
    /// `buffers`: a part that can be told its likely size never regrows
    /// (and pages never written cost no memory).
    pub fn with_capacity(columns: usize, rows: usize, buffers: &IdBuffers) -> Self {
        let cols = (0..columns).map(|_| Column::U32(buffers.take_u32(rows))).collect();
        Self { cols, rows: 0, start: 0, sealed: Vec::new() }
    }

    /// Make room for `rows` more rows, through `buffers`. A narrow column
    /// short of room moves to a buffer from the list with at least twice
    /// its old room (as `Vec` growth would), and its old buffer goes back.
    /// A part that starts empty (a pool helper's) then grows from the
    /// run's buffers, not the allocator's. Where that would regrow a
    /// non-empty chunk past [`CHUNK_ROWS`], the chunk is sealed instead
    /// and a new one, with room for a chunk or for `rows`, opened.
    pub fn reserve(&mut self, rows: usize, buffers: &IdBuffers) {
        let short = |c: &Column| match c {
            Column::U32(v) => v.capacity() - v.len() < rows,
            Column::U64(_) => false,
        };
        let past_chunk = |c: &Column| match c {
            Column::U32(v) => size_class((v.len() + rows).max(2 * v.capacity())) > CHUNK_ROWS,
            Column::U64(_) => false,
        };
        if self.rows > self.start && self.cols.iter().any(|c| short(c) && past_chunk(c)) {
            let room = rows.max(CHUNK_ROWS);
            let open = self.cols.iter().map(|_| Column::U32(buffers.take_u32(room))).collect();
            self.sealed.push((self.start, std::mem::replace(&mut self.cols, open)));
            self.start = self.rows;
            return;
        }
        for col in &mut self.cols {
            let Column::U32(v) = col else { continue };
            if v.capacity() - v.len() < rows {
                let mut grown = buffers.take_u32((v.len() + rows).max(2 * v.capacity()));
                grown.extend_from_slice(v);
                buffers.give_u32(std::mem::replace(v, grown));
            }
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no row has been appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one rank's rows, each holding one id per column, and count
    /// them as that rank's; returns `(first, rows)`, where they sit among
    /// this part's rows. `None`, with nothing appended, if a row holds
    /// another number of ids.
    pub fn push_rank<R: AsRef<[u64]>>(&mut self, rows: &[R]) -> Option<(usize, usize)> {
        if rows.iter().any(|r| r.as_ref().len() != self.cols.len()) {
            return None;
        }
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.extend(rows.iter().map(|r| r.as_ref()[c]));
        }
        Some(self.close_rank(rows.len()))
    }

    /// The columns, each as long as the part.
    pub(crate) fn into_columns(self) -> Vec<Column> {
        let mut chunks = self.into_chunks().into_iter().map(|(_, cols)| cols);
        let mut cols = chunks.next().unwrap_or_default();
        for chunk in chunks {
            cols.iter_mut().zip(&chunk).for_each(|(c, more)| c.extend_slice(more.as_slice()));
        }
        cols
    }

    /// The chunks in row order, each with the part's row index of its
    /// first row.
    fn into_chunks(mut self) -> Vec<(usize, Vec<Column>)> {
        self.sealed.push((self.start, self.cols));
        self.sealed
    }

    /// The open chunk's columns, for a kernel appending one rank's rows;
    /// it then calls [`Self::close_rank`].
    pub(crate) fn cols_mut(&mut self) -> &mut [Column] {
        &mut self.cols
    }

    /// Count `rows` just appended to every column as one rank's; returns
    /// `(first, rows)`, where they sit among this part's rows.
    pub(crate) fn close_rank(&mut self, rows: usize) -> (usize, usize) {
        debug_assert!(self.cols.iter().all(|c| c.len() == self.rows - self.start + rows));
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
    /// runs the first ranks, so this is most of a phase's rows). Every
    /// other part buffer goes back to `buffers`.
    ///
    /// # Panics
    /// Panics if a part's column count differs from the schema or a span
    /// is out of bounds.
    pub fn assemble(
        vars: Arc<[String]>,
        parts_in: Vec<StagePart>,
        spans: &[(usize, usize, usize)],
        buffers: &IdBuffers,
    ) -> Option<StageBatch> {
        assert!(parts_in.iter().all(|p| p.cols.len() == vars.len()), "one column per variable");
        // Every chunk reads as a part of its own, in part order; `starts`
        // holds each one's part and that part's row index of its first row.
        let mut starts = Vec::with_capacity(parts_in.len());
        let mut parts: Vec<Vec<Column>> = Vec::with_capacity(parts_in.len());
        for (p, part) in parts_in.into_iter().enumerate() {
            for (start, cols) in part.into_chunks() {
                starts.push((p, start));
                parts.push(cols);
            }
        }
        let spans: Vec<(usize, usize, usize)> = spans
            .iter()
            .map(|&(p, first, n)| {
                let c = starts.partition_point(|&(q, start)| (q, start) <= (p, first)) - 1;
                (c, first - starts[c].1, n)
            })
            .collect();
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
            // of it is copied to `tail`, read like any other part.
            let mut out = Column::U32(Vec::new());
            let mut tail = Column::U32(Vec::new());
            if let Some(part) = parts.get_mut(lead) {
                out = std::mem::replace(&mut part[k], Column::U32(Vec::new()));
                tail = Column::U32(buffers.take_u32(out.len() - rows));
                tail.extend_slice(out.as_slice().slice(rows..out.len()));
                out.truncate(rows);
            }
            out.reserve(total - out.len());
            for &(p, first, n) in &spans[run..] {
                let src = if p == lead {
                    tail.as_slice().slice(first - rows..first - rows + n)
                } else {
                    parts[p][k].as_slice().slice(first..first + n)
                };
                out.extend_slice(src);
            }
            buffers.give_column(tail);
            cols.push(out);
        }
        for part in parts {
            part.into_iter().for_each(|c| buffers.give_column(c));
        }
        Some(StageBatch::from_columns(vars, cols, offsets))
    }
}

/// The stable counting sort of rows by destination: for every row `i`,
/// `dest[i] < ranks` is its rank. Returns the permutation (rows grouped by
/// destination, each group in row order), in a buffer from `buffers`, and
/// the destination segments' offsets. Rows of a stage are in (rank, row)
/// order, so the result is in (destination, source rank, row) order.
/// `None` if the rows do not fit the `u32` row index space.
///
/// # Panics
/// Panics if a destination is out of range.
pub fn partition_permutation(
    dest: &[u32],
    ranks: usize,
    buffers: &IdBuffers,
) -> Option<(Vec<u32>, Vec<u32>)> {
    let mut counts = vec![0usize; ranks];
    for &d in dest {
        counts[d as usize] += 1;
    }
    let offsets = offsets_from_counts(counts.iter().copied())?;
    let mut next: Vec<u32> = offsets[..ranks].to_vec();
    let mut perm = buffers.take_u32(dest.len());
    perm.resize(dest.len(), 0);
    scatter(0..dest.len() as u32, |row| dest[row as usize] as usize, &mut next, &mut perm);
    Some((perm, offsets))
}

/// One stable counting-sort pass: each row of `rows` goes to
/// `out[next[bucket(row)]]`, which then advances, so every bucket's rows
/// keep their `rows` order. `next[b]` starts at bucket `b`'s offset.
fn scatter(
    rows: impl Iterator<Item = u32>,
    bucket: impl Fn(u32) -> usize,
    next: &mut [u32],
    out: &mut [u32],
) {
    for row in rows {
        let slot = &mut next[bucket(row)];
        out[*slot as usize] = row;
        *slot += 1;
    }
}

/// Row indices `0..keys.len()` in (key, row) order, in a buffer from
/// `buffers`: a stable LSD counting sort of the rows, one pass per digit.
/// A digit is about `log2(rows)` bits (at most 11, so a pass's counts stay
/// in L1 and a few rows cost a few buckets), and a digit that is the same
/// in every key takes no pass. `None` if the rows do not fit the `u32` row
/// index space.
pub fn sort_permutation(keys: ColumnSlice<'_>, buffers: &IdBuffers) -> Option<Vec<u32>> {
    match keys {
        ColumnSlice::U32(keys) => lsd_permutation(keys, buffers),
        ColumnSlice::U64(keys) => lsd_permutation(keys, buffers),
    }
}

fn lsd_permutation<K: Copy + Into<u64>>(keys: &[K], buffers: &IdBuffers) -> Option<Vec<u32>> {
    let rows = u32::try_from(keys.len()).ok()?;
    let key = |row: u32| -> u64 { keys[row as usize].into() };
    let mut perm = buffers.take_u32(keys.len());
    perm.extend(0..rows);
    // The bits on which some key differs from the first.
    let first = keys.first().map_or(0, |&k| k.into());
    let varying = keys.iter().fold(0u64, |v, &k| v | (k.into() ^ first));
    let bits = (usize::BITS - keys.len().leading_zeros()).clamp(1, 11);
    let (width, mask) = (1usize << bits, (1u64 << bits) - 1);
    // The shift of every digit that takes a pass.
    let mut shifts = [0u32; u64::BITS as usize];
    let mut passes = 0;
    for s in (0..u64::BITS).step_by(bits as usize).filter(|&s| (varying >> s) & mask != 0) {
        shifts[passes] = s;
        passes += 1;
    }
    let shifts = &shifts[..passes];
    if passes == 0 {
        return Some(perm);
    }
    // Every pass's bucket counts, from one read of the keys.
    let mut counts = buffers.take_u32(passes * width);
    counts.resize(passes * width, 0);
    for row in 0..rows {
        let k = key(row);
        for (pass, &s) in counts.chunks_exact_mut(width).zip(shifts) {
            pass[((k >> s) & mask) as usize] += 1;
        }
    }
    let mut spare = buffers.take_u32(keys.len());
    spare.resize(keys.len(), 0);
    for (next, &s) in counts.chunks_exact_mut(width).zip(shifts) {
        let mut at = 0;
        for n in next.iter_mut() {
            (*n, at) = (at, at + *n);
        }
        scatter(perm.iter().copied(), |row| ((key(row) >> s) & mask) as usize, next, &mut spare);
        std::mem::swap(&mut perm, &mut spare);
    }
    buffers.give_u32(spare);
    buffers.give_u32(counts);
    Some(perm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up_to_a_quarter_of_the_power_of_two() {
        let got = [1, 8, 9, 16, 17, 20_288, 20_480, 20_481].map(size_class);
        assert_eq!(got, [1, 8, 10, 16, 20, 20_480, 20_480, 24_576]);
    }

    #[test]
    fn reserve_grows_a_part_through_the_free_list() {
        let buffers = IdBuffers::default();
        buffers.give_u32(Vec::with_capacity(1000));
        let mut part = StagePart::new(1);
        part.push_rank(&[[7u64], [8]]).unwrap();
        part.reserve(500, &buffers);
        assert_eq!(part.cols[0], Column::U32(vec![7, 8]));
        assert!(matches!(&part.cols[0], Column::U32(v) if v.capacity() == 1000));
        // The part's old buffer went back in place of the one it took.
        let listed = buffers.narrow.lock().unwrap();
        assert!(listed.len() == 1 && listed[0].capacity() < 1000);
    }

    #[test]
    fn take_gives_the_smallest_buffer_that_fits() {
        let buffers = IdBuffers::default();
        for cap in [4000, 1000, 2000] {
            buffers.give_u32(Vec::with_capacity(cap));
        }
        assert_eq!(buffers.take_u32(1500).capacity(), 2000);
        assert_eq!(buffers.take_u32(500).capacity(), 1000);
        // Nothing left fits: a fresh buffer of the request's size class.
        assert_eq!(buffers.take_u32(4097).capacity(), size_class(4097));
        assert_eq!(buffers.narrow.lock().unwrap().len(), 1);
    }

    /// `n` one-column rows `first..first + n`, reserved through `buffers`
    /// and pushed as one rank of `part`.
    fn push_reserved(part: &mut StagePart, first: u64, n: usize, buffers: &IdBuffers) {
        part.reserve(n, buffers);
        let rows: Vec<[u64; 1]> = (first..first + n as u64).map(|v| [v]).collect();
        part.push_rank(&rows).unwrap();
    }

    fn capacity(col: &Column) -> usize {
        match col {
            Column::U32(v) => v.capacity(),
            Column::U64(v) => v.capacity(),
        }
    }

    #[test]
    fn reserve_regrows_a_chunk_that_stays_within_chunk_rows() {
        let buffers = IdBuffers::default();
        let mut part = StagePart::new(1);
        push_reserved(&mut part, 0, 1000, &buffers);
        push_reserved(&mut part, 1000, 1000, &buffers);
        assert!(part.sealed.is_empty());
        assert_eq!(part.cols[0], Column::U32((0..2000).collect()));
        assert_eq!(capacity(&part.cols[0]), 2048);
    }

    #[test]
    fn reserve_seals_a_chunk_instead_of_regrowing_it_past_chunk_rows() {
        let buffers = IdBuffers::default();
        let mut part = StagePart::new(1);
        push_reserved(&mut part, 0, 6000, &buffers);
        // Doubling 6 144 would pass `CHUNK_ROWS`: the chunk is sealed as
        // it is, and the next rows go to a new chunk of `CHUNK_ROWS`.
        push_reserved(&mut part, 6000, 3000, &buffers);
        assert_eq!(part.sealed.len(), 1);
        let (start, full) = &part.sealed[0];
        assert_eq!((*start, capacity(&full[0])), (0, 6144));
        assert_eq!((part.start, capacity(&part.cols[0])), (6000, CHUNK_ROWS));
        assert_eq!(part.len(), 9000);
        assert_eq!(part.into_columns(), vec![Column::U32((0..9000).collect())]);
    }

    #[test]
    fn a_part_takes_no_buffer_past_chunk_rows_for_ranks_that_fit_one() {
        // A helper running all 16 ranks of a 20 480-row stage.
        let buffers = IdBuffers::default();
        let mut part = StagePart::new(2);
        for r in 0..16 {
            part.reserve(1280, &buffers);
            let rows: Vec<[u64; 2]> = (0..1280).map(|i| [r * 1280 + i, 7]).collect();
            part.push_rank(&rows).unwrap();
        }
        let chunks = part.into_chunks();
        assert!(chunks.len() > 1);
        for (_, cols) in &chunks {
            assert!(cols.iter().all(|c| capacity(c) <= CHUNK_ROWS));
        }
        // A part sized for the stage up front fills it without sealing,
        // and one rank past `CHUNK_ROWS` into an empty part is one chunk.
        let mut sized = StagePart::with_capacity(1, 20_480, &buffers);
        for r in 0..16 {
            push_reserved(&mut sized, r * 1280, 1280, &buffers);
        }
        assert!(sized.sealed.is_empty());
        let mut wide = StagePart::new(1);
        push_reserved(&mut wide, 0, 3 * CHUNK_ROWS, &buffers);
        assert!(wide.sealed.is_empty());
    }

    #[test]
    fn assemble_gives_every_chunk_but_the_stages_back() {
        let buffers = IdBuffers::default();
        let (mut lead, mut helper) = (StagePart::new(1), StagePart::new(1));
        push_reserved(&mut lead, 0, 100, &buffers);
        let mut spans = vec![(0, 0, 100)];
        for r in 0..6 {
            let first = helper.len();
            push_reserved(&mut helper, 100 + r * 2000, 2000, &buffers);
            spans.push((1, first, 2000));
        }
        assert_eq!(helper.sealed.len(), 1, "6 144 rows, then a chunk of 8 192");
        let listed = |b: &IdBuffers| b.narrow.lock().unwrap().len();
        let before = listed(&buffers);
        let vars: Arc<[String]> = vec!["x".to_string()].into();
        let stage = StageBatch::assemble(vars, vec![lead, helper], &spans, &buffers).unwrap();
        assert_eq!(stage.len(), 12_100);
        assert_eq!(rows(&stage, 6), (10_100..12_100).map(|v| vec![v]).collect::<Vec<_>>());
        // The stage keeps the lead's buffer; both helper chunks go back.
        assert_eq!(listed(&buffers), before + 2);
    }

    /// The stage whose rank `r` holds `ranks[r]`, each row one id per
    /// variable, filled through one part.
    fn stage(vars: &[&str], ranks: &[&[&[u64]]]) -> StageBatch {
        let mut part = StagePart::new(vars.len());
        let spans: Vec<(usize, usize, usize)> = ranks
            .iter()
            .map(|rows| {
                let (first, n) = part.push_rank(rows).unwrap();
                (0, first, n)
            })
            .collect();
        let vars: Arc<[String]> = vars.iter().map(|v| v.to_string()).collect();
        StageBatch::assemble(vars, vec![part], &spans, &IdBuffers::default()).unwrap()
    }

    fn rows(stage: &StageBatch, r: usize) -> Vec<Vec<u64>> {
        let s = stage.segment(r);
        (0..s.len()).map(|i| (0..s.vars().len()).map(|c| s.column(c).get(i)).collect()).collect()
    }

    const BIG: u64 = 1 << 32;

    #[test]
    fn pushed_ranks_get_the_widths_of_their_own_rows() {
        let stage = stage(&["x", "y"], &[&[&[5, 6]], &[], &[&[1, 2]], &[&[7, BIG + 1], &[8, 9]]]);
        assert_eq!(stage.ranks(), 4);
        assert_eq!(stage.rank_offsets(), [0, 1, 1, 2, 4]);
        assert_eq!(rows(&stage, 3), [[7, BIG + 1], [8, 9]]);
        // Only rank 3's `y` segment is wide, though the part's column was.
        let widths: Vec<u64> = (0..4).map(|r| stage.segment_width(r, 1)).collect();
        assert_eq!(widths, [4, 4, 4, 8]);
        // 2 + 8 + (2 + 1 + 1) × 2 header bytes, then the cells.
        let header = 18;
        let sizes: Vec<u64> = (0..4).map(|r| stage.segment_byte_size(r)).collect();
        assert_eq!(sizes, [header + 8, header, header + 8, header + 2 * 12]);
        assert_eq!(stage.byte_size(), sizes.iter().sum::<u64>());
        assert_eq!(stage.merged_byte_size(), header + 4 * 12);
    }

    #[test]
    fn push_rank_refuses_a_row_of_another_width() {
        let mut part = StagePart::new(2);
        assert_eq!(part.push_rank(&[[1u64, 2]]), Some((0, 1)));
        assert_eq!(part.push_rank(&[vec![3u64, 4], vec![5]]), None);
        assert_eq!(part.push_rank::<[u64; 2]>(&[]), Some((1, 0)));
        assert_eq!(part.len(), 1);
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
        let (perm, offsets) =
            partition_permutation(&[2, 0, 2, 1, 0], 4, &IdBuffers::default()).unwrap();
        assert_eq!(perm, [1, 4, 3, 0, 2]);
        assert_eq!(offsets, [0, 2, 3, 5, 5]);
    }

    #[test]
    fn rebalance_keeps_a_prefix_and_deals_the_rest_round_robin() {
        let stage = stage(&["x"], &[&[&[1], &[2], &[BIG], &[4]], &[], &[&[9]]]);
        let (placed, moved) = stage.rebalance(&[1, 2, 2]).unwrap();
        let got = |r: usize| -> Vec<u64> { rows(&placed, r).concat() };
        assert_eq!((got(0), got(1), got(2)), (vec![1], vec![2, 4], vec![9, BIG]));
        // Rank 0 shipped three rows at its own (wide) width; rank 0 keeps it.
        assert_eq!(moved, [10 + 4 + 3 * 8, 0, 0]);
        assert_eq!((placed.segment_width(0, 0), placed.segment_width(1, 0)), (8, 4));
        assert_eq!(placed.segment_width(2, 0), 8);
    }

    #[test]
    fn rebalance_drops_rows_no_rank_has_room_for_and_keeps_widths() {
        let stage = stage(&["x"], &[&[&[1], &[BIG]], &[&[2]]]);
        let (placed, moved) = stage.rebalance(&[1, 1]).unwrap();
        assert_eq!((rows(&placed, 0), rows(&placed, 1)), (vec![vec![1]], vec![vec![2]]));
        // Rank 0 shipped its wide row and still weighs eight bytes a cell.
        assert_eq!((placed.segment_width(0, 0), placed.segment_width(1, 0)), (8, 4));
        assert_eq!(moved, [10 + 4 + 8, 0]);
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
        assert!(StageBatch::assemble(Arc::new([]), parts, &spans, &IdBuffers::default()).is_none());
        // One rank of it fits.
        let mut part = StagePart::new(0);
        let (first, n) = part.close_rank(side * side - 1);
        let fresh = IdBuffers::default();
        let stage =
            StageBatch::assemble(Arc::new([]), vec![part], &[(0, first, n)], &fresh).unwrap();
        assert_eq!(stage.len(), side * side - 1);
    }

    #[test]
    fn derived_stages_share_the_schema() {
        let src = stage(&["x"], &[&[&[1], &[2]], &[&[3]]]);
        let gathered = src.gather(&[2, 0], vec![0, 1, 2]);
        let (placed, _) = src.rebalance(&[1, 2]).unwrap();
        let empty = StageBatch::empty(src.schema().clone(), 2);
        for derived in [&gathered, &placed, &empty] {
            assert!(Arc::ptr_eq(derived.schema(), src.schema()));
        }
        let wider: Arc<[String]> = vec!["x".to_string(), "e".to_string()].into();
        let applied = src.gather_with_column(&[1], vec![0, 0, 1], wider.clone(), &[BIG]);
        assert!(Arc::ptr_eq(applied.schema(), &wider));
        assert_eq!(rows(&applied, 1), [[2, BIG]]);
        // The new column is wide on rank 1 alone, the kept one nowhere.
        assert_eq!((applied.segment_width(1, 1), applied.segment_width(1, 0)), (8, 4));
    }

    #[test]
    fn an_empty_stage_weighs_one_header_per_rank() {
        let stage = StageBatch::empty(vec!["ab".to_string()].into(), 3);
        assert_eq!((stage.len(), stage.rank_offsets()), (0, &[0, 0, 0, 0][..]));
        // 2 + 8 + (2 + 2 + 1) per rank.
        assert_eq!(stage.byte_size(), 3 * 15);
        assert_eq!(stage.merged_byte_size(), 15);
        assert!(stage.segment(2).is_empty());
    }

    /// The stage gather and assembly against pushing each rank's rows one
    /// by one: `==` on the stages, so rows, rank offsets and every
    /// segment's width agree.
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);
        const MAX_ROWS: u64 = if FULL { 400 } else { 40 };

        /// Up to `ranks` ranks of two-column rows, ids past `u32::MAX`
        /// about one in eight with `big`.
        fn random_ranks(ranks: usize, big: bool, rng: &mut SplitMix64) -> Vec<Vec<[u64; 2]>> {
            (0..ranks)
                .map(|_| {
                    let rows = rng.next_below(MAX_ROWS + 1);
                    let mut id = || {
                        let v = rng.next_below(50);
                        if big && rng.next_below(8) == 0 {
                            v + BIG
                        } else {
                            v
                        }
                    };
                    (0..rows).map(|_| [id(), id()]).collect()
                })
                .collect()
        }

        /// The reference: every rank's rows pushed in rank order.
        fn pushed(ranks: &[Vec<[u64; 2]>]) -> StageBatch {
            let mut part = StagePart::new(2);
            let spans: Vec<_> = ranks
                .iter()
                .map(|rows| {
                    let (first, n) = part.push_rank(rows).unwrap();
                    (0, first, n)
                })
                .collect();
            let vars: Arc<[String]> = vec!["a".to_string(), "b".to_string()].into();
            StageBatch::assemble(vars, vec![part], &spans, &IdBuffers::default()).unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 256 } else { 64 }))]

            #[test]
            fn gather_equals_pushing_each_ranks_selected_rows(
                seed in 0u64..1_000_000,
                ranks in 1usize..=12,
                big in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x9a7c);
                let src = random_ranks(ranks, big, &mut rng);
                let stage = pushed(&src);
                // Each destination rank takes a random pick of every row.
                let total = stage.len() as u64;
                let picks: Vec<Vec<u32>> = (0..ranks)
                    .map(|_| {
                        let n = if total == 0 { 0 } else { rng.next_below(MAX_ROWS) };
                        (0..n).map(|_| rng.next_below(total) as u32).collect()
                    })
                    .collect();
                let offsets = offsets_from_counts(picks.iter().map(Vec::len)).unwrap();
                let got = stage.gather(&picks.concat(), offsets);
                let all: Vec<[u64; 2]> = src.concat();
                let want: Vec<Vec<[u64; 2]>> =
                    picks.iter().map(|p| p.iter().map(|&i| all[i as usize]).collect()).collect();
                prop_assert_eq!(got, pushed(&want));
            }

            #[test]
            fn assemble_equals_pushing_the_ranks_in_order_across_chunks(
                seed in 0u64..1_000_000,
                ranks in 1usize..=12,
                workers in 1usize..=3,
                sized in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0xc4a7);
                // Ranks of up to 3 000 rows, so parts pass `CHUNK_ROWS`.
                let src: Vec<Vec<[u64; 2]>> = (0..ranks)
                    .map(|_| {
                        let n = rng.next_below(3_001);
                        (0..n).map(|_| [rng.next_below(50), rng.next_below(50)]).collect()
                    })
                    .collect();
                let buffers = IdBuffers::default();
                // The first worker's part sized for every row, or empty.
                let total: usize = src.iter().map(Vec::len).sum();
                let room = if sized { total } else { 0 };
                let mut parts: Vec<StagePart> = (0..workers)
                    .map(|w| StagePart::with_capacity(2, if w == 0 { room } else { 0 }, &buffers))
                    .collect();
                let mut worker = 0;
                let spans: Vec<(usize, usize, usize)> = src
                    .iter()
                    .map(|rows| {
                        if rng.next_below(3) == 0 {
                            worker = rng.next_below(workers as u64) as usize;
                        }
                        parts[worker].reserve(rows.len(), &buffers);
                        let (first, n) = parts[worker].push_rank(rows).unwrap();
                        (worker, first, n)
                    })
                    .collect();
                let vars: Arc<[String]> = vec!["a".to_string(), "b".to_string()].into();
                let got = StageBatch::assemble(vars, parts, &spans, &buffers).unwrap();
                prop_assert_eq!(got, pushed(&src));
            }

            #[test]
            fn assemble_equals_pushing_the_ranks_in_order(
                seed in 0u64..1_000_000,
                ranks in 1usize..=24,
                workers in 1usize..=4,
                big in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0xa55e);
                let src = random_ranks(ranks, big, &mut rng);
                // Ranks dealt to workers in runs, as stealing workers take
                // them: each worker's part holds its ranks in its order.
                let mut parts: Vec<StagePart> = (0..workers).map(|_| StagePart::new(2)).collect();
                let mut worker = 0;
                let spans: Vec<(usize, usize, usize)> = src
                    .iter()
                    .map(|rows| {
                        if rng.next_below(3) == 0 {
                            worker = rng.next_below(workers as u64) as usize;
                        }
                        let (first, n) = parts[worker].push_rank(rows).unwrap();
                        (worker, first, n)
                    })
                    .collect();
                let vars: Arc<[String]> = vec!["a".to_string(), "b".to_string()].into();
                let got = StageBatch::assemble(vars, parts, &spans, &IdBuffers::default()).unwrap();
                prop_assert_eq!(got, pushed(&src));
            }
        }
    }
}

//! Shard-local relational operators.
//!
//! The paper's query engine "commonly re-balances solutions across ranks
//! between operations (e.g., scans, joins, merges)" (§2.4.2) — these are
//! those operations, executed per rank on local solution batches, a
//! column at a time. Cross-rank movement is the engine's job (ids-core);
//! everything here is pure. Projection, DISTINCT and the rest of the
//! result shaping run in the engine's gather (`ids_core::engine::shape_result`).

use crate::batch::{BatchView, ColumnSlice};
use crate::stage::{IdBuffers, StagePart};
use crate::store::TriplePattern;
use crate::triple::Triple;
use std::sync::Arc;

#[doc(hidden)]
pub use crate::legacy::{hash_join_batch, merge_batches, scan_to_batch};

/// What a pattern's scan binds, worked out once per pattern: the output
/// schema (the distinct variables of its wildcard positions, in subject,
/// predicate, object order), shared by every shard's batch, which triple
/// positions fill its columns, and which positions repeat a variable.
#[derive(Debug, Clone)]
pub struct ScanSchema {
    pattern: TriplePattern,
    vars: Arc<[String]>,
    bind: [bool; 3],
    /// (first, later) positions naming the same variable, as in
    /// `?x <p> ?x`: a triple binds only if it holds one id at both.
    repeats: Vec<(usize, usize)>,
}

/// The [`ScanSchema`] of `pattern` with `var_s` / `var_p` / `var_o` naming
/// its unbound positions (`None` for bound positions). A variable named
/// at two positions is one column, bound where both positions agree.
///
/// # Panics
/// Panics if a variable is supplied for a bound position.
pub fn scan_schema(
    pattern: &TriplePattern,
    var_s: Option<&str>,
    var_p: Option<&str>,
    var_o: Option<&str>,
) -> ScanSchema {
    assert!(!(pattern.s.is_some() && var_s.is_some()), "subject is bound; no variable allowed");
    assert!(!(pattern.p.is_some() && var_p.is_some()), "predicate is bound; no variable allowed");
    assert!(!(pattern.o.is_some() && var_o.is_some()), "object is bound; no variable allowed");
    let names = [var_s, var_p, var_o];
    let mut vars = Vec::new();
    let mut bind = [false; 3];
    let mut repeats = Vec::new();
    for (pos, name) in names.iter().enumerate() {
        let Some(name) = name else { continue };
        match names[..pos].iter().position(|n| n == &Some(*name)) {
            Some(first) => repeats.push((first, pos)),
            None => {
                bind[pos] = true;
                vars.push(name.to_string());
            }
        }
    }
    ScanSchema { pattern: *pattern, vars: vars.into(), bind, repeats }
}

impl ScanSchema {
    /// The output schema.
    pub fn vars(&self) -> &Arc<[String]> {
        &self.vars
    }
}

/// Bind one shard's matches (every one a match of the schema's pattern),
/// appended to `part` as one rank's rows: one row per triple, in order,
/// skipping triples that disagree at a repeated variable's positions. Each
/// variable's column is filled straight from its triple position. Returns
/// where the rows went among the part's rows.
pub fn scan_into(schema: &ScanSchema, triples: &[Triple], part: &mut StagePart) -> (usize, usize) {
    debug_assert!(triples.iter().all(|t| schema.pattern.matches(t)));
    let positions = (0..3).filter(|&p| schema.bind[p]);
    for (col, pos) in part.cols_mut().iter_mut().zip(positions) {
        if schema.repeats.is_empty() {
            // One loop per position, so each reads a field, not an index.
            match pos {
                0 => col.extend(triples.iter().map(|t| t.s.raw())),
                1 => col.extend(triples.iter().map(|t| t.p.raw())),
                _ => col.extend(triples.iter().map(|t| t.o.raw())),
            }
        } else {
            let id = |t: &Triple| [t.s, t.p, t.o][pos].raw();
            triples.iter().filter(|t| agrees(schema, t)).for_each(|t| col.push(id(t)));
        }
    }
    let rows = if schema.repeats.is_empty() {
        triples.len()
    } else {
        triples.iter().filter(|t| agrees(schema, t)).count()
    };
    part.close_rank(rows)
}

/// Whether `t` holds one id at every repeated variable's positions.
fn agrees(schema: &ScanSchema, t: &Triple) -> bool {
    let at = |pos: usize| [t.s, t.p, t.o][pos];
    schema.repeats.iter().all(|&(a, b)| at(a) == at(b))
}

/// A join's output layout, worked out once per pair of input schemas:
/// the output schema (the left variables, then the right's unshared
/// ones, matching SPARQL BGP semantics), the shared (left, right) key
/// columns, and the right columns the output appends.
#[derive(Debug, Clone)]
pub struct JoinSchema {
    left: Arc<[String]>,
    right: Arc<[String]>,
    vars: Arc<[String]>,
    shared: Vec<(usize, usize)>,
    right_extra: Vec<usize>,
}

/// The [`JoinSchema`] of joining batches of schema `left` with batches of
/// schema `right`.
pub fn join_schema(left: &Arc<[String]>, right: &Arc<[String]>) -> JoinSchema {
    let shared: Vec<(usize, usize)> = left
        .iter()
        .enumerate()
        .filter_map(|(li, v)| right.iter().position(|r| r == v).map(|ri| (li, ri)))
        .collect();
    let right_extra: Vec<usize> =
        (0..right.len()).filter(|ri| !shared.iter().any(|&(_, sri)| sri == *ri)).collect();
    let vars: Vec<String> =
        left.iter().chain(right_extra.iter().map(|&ri| &right[ri])).cloned().collect();
    JoinSchema { left: left.clone(), right: right.clone(), vars: vars.into(), shared, right_extra }
}

impl JoinSchema {
    /// The output schema.
    pub fn vars(&self) -> &Arc<[String]> {
        &self.vars
    }

    /// Where output column `col` comes from: `(false, c)` is left column
    /// `c`, `(true, c)` right column `c`.
    pub fn output_source(&self, col: usize) -> (bool, usize) {
        match col.checked_sub(self.left.len()) {
            None => (false, col),
            Some(k) => (true, self.right_extra[k]),
        }
    }
}

/// End of a bucket chain; also bounds the rows a join side may hold.
const NIL: u32 = u32::MAX;

/// One join worker's reusable buffers — both sides' key hashes and the
/// chained table over the right side — kept across the ranks it joins.
#[derive(Debug, Default)]
struct JoinScratch {
    left_hashes: Vec<u64>,
    right_hashes: Vec<u64>,
    heads: Vec<u32>,
    next: Vec<u32>,
}

/// One pool worker's share of a stage join: its scratch, and the joined
/// rows of the ranks it joined, in the order it joined them. A stage join
/// runs one per worker ([`JoinWorker::join`] per rank) and then
/// [`crate::stage::StageBatch::assemble`] puts the rows in rank order.
#[derive(Debug)]
pub struct JoinWorker {
    scratch: JoinScratch,
    lsel: Vec<u32>,
    rsel: Vec<u32>,
    part: StagePart,
}

impl JoinWorker {
    /// An idle worker for joins under `schema`.
    pub fn new(schema: &JoinSchema) -> Self {
        Self::with_capacity(schema, 0, &IdBuffers::default())
    }

    /// An idle worker whose output part has room for `rows` rows, its
    /// columns taken from `buffers` ([`StagePart::with_capacity`]).
    pub fn with_capacity(schema: &JoinSchema, rows: usize, buffers: &IdBuffers) -> Self {
        Self {
            scratch: JoinScratch::default(),
            lsel: Vec::new(),
            rsel: Vec::new(),
            part: StagePart::with_capacity(schema.vars.len(), rows, buffers),
        }
    }

    /// The rows joined so far.
    pub fn into_part(self) -> StagePart {
        self.part
    }

    /// Hash join one rank's inputs on all shared variables (with none, a
    /// cross product) and append the output rows. Output rows come in
    /// probe order: each left row in order, paired with its matching right
    /// rows in order. Every output column is one gather of a selection
    /// vector, so it follows the column width rule (`U32` exactly when
    /// every id fits). Returns `(first, count)`: where the rows went among
    /// this worker's rows. The output part grows through `buffers`
    /// ([`StagePart::reserve`]).
    ///
    /// # Panics
    /// Panics if an input's schema is not the one `schema` was built for,
    /// or a side has `u32::MAX` rows or more.
    pub fn join(
        &mut self,
        schema: &JoinSchema,
        left: BatchView<'_>,
        right: BatchView<'_>,
        buffers: &IdBuffers,
    ) -> (usize, usize) {
        let (lsel, rsel) = (&mut self.lsel, &mut self.rsel);
        lsel.clear();
        rsel.clear();
        join_pairs(schema, left, right, &mut self.scratch, lsel, rsel);
        self.part.reserve(lsel.len(), buffers);
        for (k, col) in self.part.cols_mut().iter_mut().enumerate() {
            match schema.output_source(k) {
                (false, c) => col.extend_gather(left.column(c), lsel),
                (true, c) => col.extend_gather(right.column(c), rsel),
            }
        }
        self.part.close_rank(lsel.len())
    }
}

/// The row pairs of joining `left` with `right` under `schema`, appended
/// to `lsel` / `rsel`: each left row in order with its matching right
/// rows in order, or every pair of a cross product. The join's data plane
/// without its output columns; the buffers it needs come from `scratch`.
///
/// # Panics
/// Panics if an input's schema is not the one `schema` was built for, or
/// a side has `u32::MAX` rows or more.
fn join_pairs(
    schema: &JoinSchema,
    left: BatchView<'_>,
    right: BatchView<'_>,
    scratch: &mut JoinScratch,
    lsel: &mut Vec<u32>,
    rsel: &mut Vec<u32>,
) {
    assert!(
        left.same_schema(&schema.left) && right.same_schema(&schema.right),
        "join inputs must have the schemas their layout was built for"
    );
    assert!(
        left.len() < NIL as usize && right.len() < NIL as usize,
        "join side exceeds the u32 selection-vector index space"
    );
    if left.is_empty() || right.is_empty() {
        return;
    }
    // About one match per probe row: room for that up front.
    lsel.reserve(left.len());
    rsel.reserve(left.len());
    if schema.shared.is_empty() {
        for l in 0..left.len() as u32 {
            lsel.extend(std::iter::repeat_n(l, right.len()));
            rsel.extend(0..right.len() as u32);
        }
        return;
    }
    let shared = &schema.shared;
    let JoinScratch { left_hashes, right_hashes, heads, next } = scratch;
    hash_keys(&left, shared.iter().map(|&(li, _)| li), left_hashes);
    hash_keys(&right, shared.iter().map(|&(_, ri)| ri), right_hashes);

    // Chained table over the right side: `heads[bucket]` is the first row
    // of the bucket, `next[row]` the one after it. Rows are linked in
    // reverse so every chain runs in insertion order.
    let buckets = (right.len() * 2).next_power_of_two();
    let shift = 64 - buckets.trailing_zeros();
    heads.clear();
    heads.resize(buckets, NIL);
    next.clear();
    next.resize(right.len(), NIL);
    for (row, &h) in right_hashes.iter().enumerate().rev() {
        let bucket = (h >> shift) as usize;
        next[row] = heads[bucket];
        heads[bucket] = row as u32;
    }

    let keys_equal = |l: usize, r: usize| {
        shared.iter().all(|&(li, ri)| left.column(li).get(l) == right.column(ri).get(r))
    };
    for (l, &h) in left_hashes.iter().enumerate() {
        let mut r = heads[(h >> shift) as usize];
        while r != NIL {
            let row = r as usize;
            // Equal hashes are a hint, equal keys the join condition.
            if right_hashes[row] == h && keys_equal(l, row) {
                lsel.push(l as u32);
                rsel.push(r);
            }
            r = next[row];
        }
    }
}

/// One hash per row over the key columns `cols`, a column at a time,
/// written over `hashes`.
fn hash_keys(view: &BatchView<'_>, cols: impl Iterator<Item = usize>, hashes: &mut Vec<u64>) {
    // FxHash-style multiply-rotate: cheap, and its high bits (the ones the
    // bucket index takes) depend on every key bit.
    fn mix(h: u64, id: u64) -> u64 {
        (h.rotate_left(5) ^ id).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    hashes.clear();
    hashes.resize(view.len(), 0);
    for col in cols {
        match view.column(col) {
            ColumnSlice::U32(ids) => {
                for (h, &id) in hashes.iter_mut().zip(ids) {
                    *h = mix(*h, u64::from(id));
                }
            }
            ColumnSlice::U64(ids) => {
                for (h, &id) in hashes.iter_mut().zip(ids) {
                    *h = mix(*h, id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::stage::StageBatch;
    use crate::term::TermId;
    use crate::triple::Triple;

    fn id(v: u64) -> TermId {
        TermId(v)
    }

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(id(s), id(p), id(o))
    }

    fn schema(vars: &[&str]) -> Arc<[String]> {
        vars.iter().map(|v| v.to_string()).collect()
    }

    /// One rank's rows as the join reads them: a column per variable.
    struct Table {
        vars: Arc<[String]>,
        cols: Vec<Column>,
        rows: usize,
    }

    impl Table {
        fn view(&self) -> BatchView<'_> {
            BatchView::of_columns(&self.vars, &self.cols, 0..self.rows)
        }
    }

    /// `rows` pushed one id at a time, each column widening on its first
    /// id past `u32::MAX`.
    fn table(vars: &Arc<[String]>, rows: &[Vec<u64>]) -> Table {
        let mut cols = vec![Column::U32(Vec::new()); vars.len()];
        for row in rows {
            cols.iter_mut().zip(row).for_each(|(c, &v)| c.push(v));
        }
        Table { vars: vars.clone(), cols, rows: rows.len() }
    }

    fn table_of(vars: &Arc<[String]>, rows: &[&[u64]]) -> Table {
        table(vars, &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    /// The one-rank stage of `table`, at its widths.
    fn one_rank(table: Table) -> StageBatch {
        StageBatch::from_columns(table.vars, table.cols, vec![0, table.rows as u32])
    }

    /// `triples` bound as one rank's scan.
    fn scan(schema: &ScanSchema, triples: &[Triple]) -> StageBatch {
        let mut part = StagePart::new(schema.vars.len());
        let (first, n) = scan_into(schema, triples, &mut part);
        StageBatch::assemble(
            schema.vars.clone(),
            vec![part],
            &[(0, first, n)],
            &IdBuffers::default(),
        )
        .unwrap()
    }

    /// `left` joined with `right` as one rank's join.
    fn join(left: &Table, right: &Table) -> StageBatch {
        let schema = join_schema(&left.vars, &right.vars);
        let mut worker = JoinWorker::new(&schema);
        let (first, n) = worker.join(&schema, left.view(), right.view(), &IdBuffers::default());
        let part = worker.into_part();
        StageBatch::assemble(
            schema.vars.clone(),
            vec![part],
            &[(0, first, n)],
            &IdBuffers::default(),
        )
        .unwrap()
    }

    fn rows(view: BatchView<'_>) -> Vec<Vec<u64>> {
        (0..view.len())
            .map(|i| (0..view.vars().len()).map(|c| view.column(c).get(i)).collect())
            .collect()
    }

    #[test]
    fn scan_binds_wildcards_only() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let triples = vec![t(1, 9, 11), t(2, 9, 12)];
        let sols = scan(&scan_schema(&pat, Some("s"), None, Some("o")), &triples);
        assert_eq!(sols.vars(), &["s".to_string(), "o".to_string()]);
        assert_eq!(rows(sols.view()), [[1, 11], [2, 12]]);
    }

    #[test]
    #[should_panic(expected = "predicate is bound")]
    fn scan_rejects_var_on_bound_position() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        scan_schema(&pat, Some("s"), Some("p"), None);
    }

    #[test]
    fn join_on_shared_var() {
        // proteins: (?p, ?seq)   inhibitors: (?p, ?c)
        let left = table_of(&schema(&["p", "seq"]), &[&[1, 21], &[2, 22], &[3, 23]]);
        let right = table_of(&schema(&["p", "c"]), &[&[1, 31], &[1, 32], &[3, 33], &[9, 39]]);
        let joined = join(&left, &right);
        assert_eq!(joined.vars(), &["p".to_string(), "seq".to_string(), "c".to_string()]);
        // p=1 matches twice, p=3 once, p=2/9 drop; left rows probe in order.
        assert_eq!(rows(joined.view()), [[1, 21, 31], [1, 21, 32], [3, 23, 33]]);
    }

    #[test]
    fn join_without_shared_vars_is_cross_product() {
        let left = table_of(&schema(&["a"]), &[&[1], &[2]]);
        let right = table_of(&schema(&["b"]), &[&[10], &[20], &[30]]);
        let want: Vec<Vec<u64>> =
            [1, 2].iter().flat_map(|&a| [10, 20, 30].map(|b| vec![a, b])).collect();
        assert_eq!(rows(join(&left, &right).view()), want);
    }

    #[test]
    fn join_on_multiple_shared_vars() {
        let left = table_of(&schema(&["x", "y"]), &[&[1, 2], &[1, 3]]);
        let right = table_of(&schema(&["y", "x"]), &[&[2, 1], &[3, 9]]);
        assert_eq!(rows(join(&left, &right).view()), [[1, 2]], "both x and y must agree");
    }

    #[test]
    fn join_with_an_empty_side_is_empty_and_keeps_the_output_schema() {
        let left = table_of(&schema(&["a", "k"]), &[&[1, 2]]);
        let right = table_of(&schema(&["k", "b"]), &[]);
        for (l, r, vars) in [(&left, &right, ["a", "k", "b"]), (&right, &left, ["k", "b", "a"])] {
            let out = join(l, r);
            assert!(out.is_empty());
            assert_eq!(out.vars(), vars.map(String::from));
        }
    }

    #[test]
    fn one_scan_schema_binds_every_shard_into_one_part() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let scan_s = scan_schema(&pat, Some("s"), None, Some("o"));
        let shards = [vec![t(1, 9, 11)], vec![], vec![t(2, 9, 12), t(3, 9, 13)]];
        let mut part = StagePart::new(2);
        let spans: Vec<_> = shards
            .iter()
            .map(|tr| {
                let (first, n) = scan_into(&scan_s, tr, &mut part);
                (0, first, n)
            })
            .collect();
        let stage =
            StageBatch::assemble(scan_s.vars().clone(), vec![part], &spans, &IdBuffers::default());
        let stage = stage.unwrap();
        assert!(Arc::ptr_eq(stage.schema(), scan_s.vars()));
        for (r, tr) in shards.iter().enumerate() {
            assert_eq!(rows(stage.segment(r)), rows(scan(&scan_s, tr).view()));
        }
    }

    #[test]
    fn a_repeated_variable_is_one_column_bound_where_its_positions_agree() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let triples = [t(1, 9, 1), t(2, 9, 3), t(4, 9, 4)];
        let bound = scan(&scan_schema(&pat, Some("x"), None, Some("x")), &triples);
        assert_eq!(bound.vars(), ["x"]);
        assert_eq!(rows(bound.view()), [[1], [4]]);
        let all = TriplePattern::new(None, None, None);
        let schema = scan_schema(&all, Some("x"), Some("y"), Some("x"));
        assert_eq!(rows(scan(&schema, &[t(5, 6, 5), t(5, 6, 7)]).view()), [[5, 6]]);
    }

    #[test]
    #[should_panic(expected = "object is bound")]
    fn scan_schema_rejects_var_on_bound_position() {
        scan_schema(&TriplePattern::new(None, None, Some(id(3))), None, None, Some("o"));
    }

    #[test]
    fn join_schema_keeps_the_left_vars_then_the_rights_unshared_ones() {
        let js = join_schema(&schema(&["a", "k", "j"]), &schema(&["j", "b", "k"]));
        assert_eq!(*js.vars, *schema(&["a", "k", "j", "b"]));
        assert_eq!(js.shared, vec![(1, 2), (2, 0)]);
        assert_eq!(js.right_extra, vec![1]);
        assert_eq!((js.output_source(1), js.output_source(3)), ((false, 1), (true, 1)));
    }

    #[test]
    fn one_join_worker_serves_every_shard_with_one_output_schema() {
        let (ls, rs) = (schema(&["p", "seq"]), schema(&["c", "p"]));
        let js = join_schema(&ls, &rs);
        let shards = [
            (table_of(&ls, &[&[1, 21], &[2, 22]]), table_of(&rs, &[&[31, 1], &[32, 1]])),
            (table_of(&ls, &[&[3, 23]]), table_of(&rs, &[])),
            (table_of(&ls, &[&[4, 24]]), table_of(&rs, &[&[34, 4], &[39, 9]])),
        ];
        let mut worker = JoinWorker::new(&js);
        let spans: Vec<_> = shards
            .iter()
            .map(|(l, r)| {
                let (first, n) = worker.join(&js, l.view(), r.view(), &IdBuffers::default());
                (0, first, n)
            })
            .collect();
        let part = worker.into_part();
        let stage =
            StageBatch::assemble(js.vars().clone(), vec![part], &spans, &IdBuffers::default());
        let stage = stage.unwrap();
        assert!(Arc::ptr_eq(stage.schema(), js.vars()));
        assert_eq!(stage.rank_offsets(), [0, 2, 2, 3]);
        for (r, (l, rt)) in shards.iter().enumerate() {
            assert_eq!(rows(stage.segment(r)), rows(join(l, rt).view()));
        }
    }

    #[test]
    fn join_keys_match_across_column_widths() {
        // A key stored at eight bytes on one side and four on the other.
        let left = Table {
            vars: schema(&["k", "l"]),
            cols: vec![Column::U64(vec![1, 2, 1 << 40]), Column::U32(vec![10, 20, 30])],
            rows: 3,
        };
        let right = table_of(&schema(&["k", "r"]), &[&[2, 7], &[1, 8], &[1 << 40, 9]]);
        let joined = join(&left, &right);
        assert_eq!(rows(joined.view()), [[1, 10, 8], [2, 20, 7], [1 << 40, 30, 9]]);
        assert_eq!(joined.segment_width(0, 0), 8);
        let small = join(&table_of(&schema(&["k", "l"]), &[&[2, 20]]), &right);
        assert_eq!((small.segment_width(0, 0), small.len()), (4, 1));
    }

    #[test]
    fn a_shard_without_matches_is_an_empty_rank() {
        let schema = scan_schema(&TriplePattern::new(None, None, None), Some("s"), None, None);
        let mut part = StagePart::new(1);
        assert_eq!(scan_into(&schema, &[t(1, 2, 3)], &mut part), (0, 1));
        assert_eq!(scan_into(&schema, &[], &mut part), (1, 0));
        assert_eq!(scan_into(&schema, &[t(4, 2, 3)], &mut part), (1, 1));
        let spans = [(0, 0, 1), (0, 1, 0), (0, 1, 1)];
        let stage =
            StageBatch::assemble(schema.vars().clone(), vec![part], &spans, &IdBuffers::default());
        let stage = stage.unwrap();
        assert_eq!(stage.rank_offsets(), [0, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "join inputs must have the schemas")]
    fn join_rejects_inputs_of_another_schema() {
        let js = join_schema(&schema(&["a"]), &schema(&["a", "b"]));
        let (l, r) = (table_of(&schema(&["a"]), &[]), table_of(&schema(&["b"]), &[]));
        JoinWorker::new(&js).join(&js, l.view(), r.view(), &IdBuffers::default());
    }

    /// The column-at-a-time scan and join against the row-at-a-time loops
    /// they replaced: `==` with the one-rank stage of the columns the old
    /// row-at-a-time loop built, so rows, their order and column widths —
    /// hence `byte_size()` and every charge computed from it — cannot
    /// drift. Sizes grow in release builds (`ci.sh` runs
    /// `cargo test -p ids-graph --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;
        use std::collections::HashMap;

        const FULL: bool = !cfg!(debug_assertions);
        const MAX_ROWS: usize = if FULL { 5000 } else { 250 };

        /// The first batch `hash_join_batch`: a `Vec<u64>` key per build
        /// and per probe row, output a row at a time.
        fn reference_join(left: &Table, right: &Table) -> StageBatch {
            let shared: Vec<(usize, usize)> = left
                .vars
                .iter()
                .enumerate()
                .filter_map(|(li, v)| right.vars.iter().position(|r| r == v).map(|ri| (li, ri)))
                .collect();
            let right_extra: Vec<usize> = (0..right.vars.len())
                .filter(|ri| !shared.iter().any(|&(_, sri)| sri == *ri))
                .collect();
            let mut vars: Vec<String> = left.vars.to_vec();
            vars.extend(right_extra.iter().map(|&ri| right.vars[ri].clone()));

            let mut table_: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
            for idx in 0..right.rows {
                let key: Vec<u64> = shared.iter().map(|&(_, ri)| right.cols[ri].get(idx)).collect();
                table_.entry(key).or_default().push(idx);
            }
            let mut out = Vec::new();
            for li in 0..left.rows {
                let lrow: Vec<u64> = left.cols.iter().map(|c| c.get(li)).collect();
                let key: Vec<u64> = shared.iter().map(|&(i, _)| lrow[i]).collect();
                for &ridx in table_.get(&key).into_iter().flatten() {
                    let mut row = lrow.clone();
                    row.extend(right_extra.iter().map(|&ri| right.cols[ri].get(ridx)));
                    out.push(row);
                }
            }
            one_rank(table(&vars.into(), &out))
        }

        /// A table of `rows` random rows. Ids are drawn from `0..domain`
        /// (small domains make duplicate keys); with `big_ids` about one in
        /// six is pushed past `u32::MAX`; with `wide_small` every column is
        /// `U64` even where it holds only small values.
        fn random_table(
            vars: &[String],
            rows: usize,
            domain: u64,
            big_ids: bool,
            wide_small: bool,
            rng: &mut SplitMix64,
        ) -> Table {
            let rows: Vec<Vec<u64>> = (0..rows)
                .map(|_| {
                    vars.iter()
                        .map(|_| {
                            let v = rng.next_below(domain);
                            if big_ids && rng.next_below(6) == 0 {
                                v + (1 << 32)
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            let mut t = table(&vars.iter().cloned().collect(), &rows);
            if wide_small {
                for c in &mut t.cols {
                    if let Column::U32(v) = c {
                        *c = Column::U64(v.iter().map(|&x| u64::from(x)).collect());
                    }
                }
            }
            t
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 256 } else { 96 }))]

            #[test]
            fn join_equals_the_push_row_batch(
                seed in 0u64..1_000_000,
                shared in 0usize..=3,
                left_rows in 0usize..=MAX_ROWS,
                right_rows in 0usize..=MAX_ROWS,
                domain in 1u64..=40,
                flags in 0u8..16,
                payload in 0u8..4,
            ) {
                let mut rng = SplitMix64::new(seed, 0x101a);
                // A cross product's output is the product of its inputs.
                let cap = if shared == 0 { 40 } else { MAX_ROWS };
                // More key columns thin the matches; widen the odds again.
                let domain = if shared > 1 { domain.min(6) } else { domain };
                let keys: Vec<String> = (0..shared).map(|k| format!("k{k}")).collect();
                // Keys sit at different positions, in a different order, on
                // the two sides; a side without payload columns may have no
                // columns at all and still counts its rows.
                let mut left_vars = keys.clone();
                let mut right_vars: Vec<String> = keys.iter().rev().cloned().collect();
                if payload & 1 != 0 {
                    left_vars.insert(0, "l0".to_string());
                    left_vars.push("l1".to_string());
                }
                if payload & 2 != 0 {
                    right_vars.insert(right_vars.len() / 2, "r0".to_string());
                }
                let left = random_table(
                    &left_vars, left_rows.min(cap), domain, flags & 1 != 0, flags & 2 != 0, &mut rng,
                );
                let right = random_table(
                    &right_vars, right_rows.min(cap), domain, flags & 4 != 0, flags & 8 != 0, &mut rng,
                );

                let got = join(&left, &right);
                let want = reference_join(&left, &right);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(&got, &want);
            }

            #[test]
            fn scan_equals_the_push_row_batch(
                seed in 0u64..1_000_000,
                triples in 0usize..=MAX_ROWS,
                bound in 0u8..8,
                big_ids in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x5ca9);
                let mut term = || {
                    let v = rng.next_below(1000);
                    id(if big_ids && rng.next_below(6) == 0 { v + (1 << 32) } else { v })
                };
                let triples: Vec<Triple> =
                    (0..triples).map(|_| Triple::new(term(), term(), term())).collect();
                // Bit k of `bound` leaves position k to a variable.
                let var = |bit: u8, name: &'static str| (bound & bit != 0).then_some(name);
                let (var_s, var_p, var_o) = (var(1, "s"), var(2, "p"), var(4, "o"));
                let pat = TriplePattern::new(None, None, None);

                let vars: Arc<[String]> =
                    [var_s, var_p, var_o].into_iter().flatten().map(String::from).collect();
                let want: Vec<Vec<u64>> = triples
                    .iter()
                    .map(|t| {
                        let mut row = Vec::new();
                        row.extend(var_s.map(|_| t.s.raw()));
                        row.extend(var_p.map(|_| t.p.raw()));
                        row.extend(var_o.map(|_| t.o.raw()));
                        row
                    })
                    .collect();
                let want = one_rank(table(&vars, &want));
                let got = scan(&scan_schema(&pat, var_s, var_p, var_o), &triples);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(&got, &want);
            }
        }
    }
}

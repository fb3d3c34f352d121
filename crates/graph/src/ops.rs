//! Shard-local relational operators.
//!
//! The paper's query engine "commonly re-balances solutions across ranks
//! between operations (e.g., scans, joins, merges)" (§2.4.2) — these are
//! those operations, executed per rank on local solution sets. Cross-rank
//! movement is the engine's job (ids-core); everything here is pure.

use crate::batch::{Column, SolutionBatch};
use crate::solution::SolutionSet;
use crate::store::TriplePattern;
use crate::term::TermId;
use crate::triple::Triple;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Bind a scanned pattern's wildcards to variables, producing solutions.
///
/// `var_s` / `var_p` / `var_o` name the variables for unbound positions
/// (`None` for bound positions, which produce no column). A position that
/// is bound in the pattern must not carry a variable name.
///
/// # Panics
/// Panics if a variable is supplied for a bound position.
pub fn scan_to_solutions(
    pattern: &TriplePattern,
    var_s: Option<&str>,
    var_p: Option<&str>,
    var_o: Option<&str>,
    triples: &[Triple],
) -> SolutionSet {
    assert!(!(pattern.s.is_some() && var_s.is_some()), "subject is bound; no variable allowed");
    assert!(!(pattern.p.is_some() && var_p.is_some()), "predicate is bound; no variable allowed");
    assert!(!(pattern.o.is_some() && var_o.is_some()), "object is bound; no variable allowed");
    let mut vars = Vec::new();
    if let Some(v) = var_s {
        vars.push(v.to_string());
    }
    if let Some(v) = var_p {
        vars.push(v.to_string());
    }
    if let Some(v) = var_o {
        vars.push(v.to_string());
    }
    let mut out = SolutionSet::empty(vars);
    for t in triples {
        debug_assert!(pattern.matches(t));
        let mut row = Vec::new();
        if var_s.is_some() {
            row.push(t.s);
        }
        if var_p.is_some() {
            row.push(t.p);
        }
        if var_o.is_some() {
            row.push(t.o);
        }
        out.push(&row);
    }
    out
}

/// What a pattern's scan binds, worked out once per pattern: the output
/// schema (the variables of its wildcard positions, in subject,
/// predicate, object order), shared by every shard's batch, and which
/// triple positions fill its columns.
#[derive(Debug, Clone)]
pub struct ScanSchema {
    pattern: TriplePattern,
    vars: Arc<[String]>,
    bind: [bool; 3],
}

/// The [`ScanSchema`] of `pattern` with `var_s` / `var_p` / `var_o` naming
/// its unbound positions (`None` for bound positions).
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
    let vars: Vec<String> = [var_s, var_p, var_o].into_iter().flatten().map(String::from).collect();
    ScanSchema {
        pattern: *pattern,
        vars: vars.into(),
        bind: [var_s.is_some(), var_p.is_some(), var_o.is_some()],
    }
}

/// Columnar twin of [`scan_to_solutions`]: bind `triples`, every one a
/// match of the schema's pattern, into a batch of that schema — the same
/// rows in the same order. Each variable's column is filled straight from
/// its triple position.
pub fn scan_with(schema: &ScanSchema, triples: &[Triple]) -> SolutionBatch {
    debug_assert!(triples.iter().all(|t| schema.pattern.matches(t)));
    let [s, p, o] = schema.bind;
    let mut columns = Vec::with_capacity(schema.vars.len());
    if s {
        columns.push(Column::collect(triples.iter().map(|t| t.s.raw())));
    }
    if p {
        columns.push(Column::collect(triples.iter().map(|t| t.p.raw())));
    }
    if o {
        columns.push(Column::collect(triples.iter().map(|t| t.o.raw())));
    }
    SolutionBatch::from_columns(schema.vars.clone(), columns, triples.len())
}

/// [`scan_with`] under a schema built for this one call.
///
/// # Panics
/// Panics if a variable is supplied for a bound position.
pub fn scan_to_batch(
    pattern: &TriplePattern,
    var_s: Option<&str>,
    var_p: Option<&str>,
    var_o: Option<&str>,
    triples: &[Triple],
) -> SolutionBatch {
    scan_with(&scan_schema(pattern, var_s, var_p, var_o), triples)
}

/// Hash join on all shared variables. The output schema is the left schema
/// followed by the right's non-shared variables, matching SPARQL BGP
/// semantics. If there are no shared variables this is a cross product.
pub fn hash_join(left: &SolutionSet, right: &SolutionSet) -> SolutionSet {
    let shared: Vec<(usize, usize)> = left
        .vars()
        .iter()
        .enumerate()
        .filter_map(|(li, v)| right.var_index(v).map(|ri| (li, ri)))
        .collect();
    let right_extra: Vec<usize> =
        (0..right.vars().len()).filter(|ri| !shared.iter().any(|&(_, sri)| sri == *ri)).collect();

    let mut vars: Vec<String> = left.vars().to_vec();
    vars.extend(right_extra.iter().map(|&ri| right.vars()[ri].clone()));
    let mut out = SolutionSet::empty(vars);

    // Build side: hash the smaller input on the shared-key tuple.
    let mut table: HashMap<Vec<TermId>, Vec<usize>> = HashMap::new();
    for (idx, row) in right.rows().iter().enumerate() {
        let key: Vec<TermId> = shared.iter().map(|&(_, ri)| row[ri]).collect();
        table.entry(key).or_default().push(idx);
    }

    for lrow in left.rows() {
        let key: Vec<TermId> = shared.iter().map(|&(li, _)| lrow[li]).collect();
        if let Some(matches) = table.get(&key) {
            for &ridx in matches {
                let rrow = &right.rows()[ridx];
                let mut row = lrow.to_vec();
                row.extend(right_extra.iter().map(|&ri| rrow[ri]));
                out.push(&row);
            }
        }
    }
    out
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

/// Columnar twin of [`hash_join`]: identical join semantics and output row
/// order (build on the right side in insertion order, probe left rows in
/// order), so a batch execution stays byte-identical to a row execution.
/// The output carries `schema`'s shared output schema.
///
/// Works a column at a time: the key columns of each side hash into one
/// `u64` per row, the right side's hashes are threaded into a chained
/// table, the probe emits a pair of selection vectors, and every output
/// column is one gather. Output columns follow the batch width rule (`U32`
/// exactly when every id fits), so `byte_size()` is what pushing the same
/// rows one by one would give.
///
/// # Panics
/// Panics if an input's schema is not the one `schema` was built for, or
/// if either input has a null binding — BGP solutions are fully bound, and
/// a join key cannot be unbound; callers holding batches of unknown
/// provenance check [`SolutionBatch::has_nulls`] first. Also panics if a
/// side has `u32::MAX` rows or more, the selection-vector index space.
pub fn hash_join_with(
    schema: &JoinSchema,
    left: &SolutionBatch,
    right: &SolutionBatch,
) -> SolutionBatch {
    assert!(
        left.same_schema(&schema.left) && right.same_schema(&schema.right),
        "join inputs must have the schemas their layout was built for"
    );
    assert!(!left.has_nulls() && !right.has_nulls(), "join input is fully bound");
    assert!(
        left.len() < NIL as usize && right.len() < NIL as usize,
        "join side exceeds the u32 selection-vector index space"
    );
    if left.is_empty() || right.is_empty() {
        return SolutionBatch::with_schema(schema.vars.clone());
    }

    let (lsel, rsel) = if schema.shared.is_empty() {
        cross_selection(left.len(), right.len())
    } else {
        probe_selection(left, right, &schema.shared)
    };
    let picks: Vec<(&SolutionBatch, usize, &[u32])> = (0..left.vars().len())
        .map(|li| (left, li, lsel.as_slice()))
        .chain(schema.right_extra.iter().map(|&ri| (right, ri, rsel.as_slice())))
        .collect();
    SolutionBatch::gather_columns(schema.vars.clone(), &picks, lsel.len())
}

/// [`hash_join_with`] under a layout built for this one call.
///
/// # Panics
/// As [`hash_join_with`], for a null binding or an oversized side.
pub fn hash_join_batch(left: &SolutionBatch, right: &SolutionBatch) -> SolutionBatch {
    hash_join_with(&join_schema(left.schema(), right.schema()), left, right)
}

/// End of a bucket chain; also bounds the rows a join side may hold.
const NIL: u32 = u32::MAX;

/// Selection vectors of a cross product: every left row, in order, paired
/// with every right row, in order.
fn cross_selection(left_rows: usize, right_rows: usize) -> (Vec<u32>, Vec<u32>) {
    let mut lsel = Vec::with_capacity(left_rows * right_rows);
    let mut rsel = Vec::with_capacity(left_rows * right_rows);
    for l in 0..left_rows as u32 {
        lsel.extend(std::iter::repeat_n(l, right_rows));
        rsel.extend(0..right_rows as u32);
    }
    (lsel, rsel)
}

/// One hash per row over the key columns `cols`, a column at a time.
fn hash_keys(batch: &SolutionBatch, cols: impl Iterator<Item = usize>) -> Vec<u64> {
    // FxHash-style multiply-rotate: cheap, and its high bits (the ones the
    // bucket index takes) depend on every key bit.
    fn mix(h: u64, id: u64) -> u64 {
        (h.rotate_left(5) ^ id).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    let mut hashes = vec![0u64; batch.len()];
    for col in cols {
        match batch.column(col) {
            Column::U32(ids) => {
                for (h, &id) in hashes.iter_mut().zip(ids) {
                    *h = mix(*h, u64::from(id));
                }
            }
            Column::U64(ids) => {
                for (h, &id) in hashes.iter_mut().zip(ids) {
                    *h = mix(*h, id);
                }
            }
        }
    }
    hashes
}

/// Selection vectors of an equi-join on the `shared` (left, right) column
/// pairs: for each left row in order, its matching right rows in insertion
/// order.
fn probe_selection(
    left: &SolutionBatch,
    right: &SolutionBatch,
    shared: &[(usize, usize)],
) -> (Vec<u32>, Vec<u32>) {
    let left_hashes = hash_keys(left, shared.iter().map(|&(li, _)| li));
    let right_hashes = hash_keys(right, shared.iter().map(|&(_, ri)| ri));

    // Chained table over the right side: `heads[bucket]` is the first row
    // of the bucket, `next[row]` the one after it. Rows are linked in
    // reverse so every chain runs in insertion order.
    let buckets = (right.len() * 2).next_power_of_two();
    let shift = 64 - buckets.trailing_zeros();
    let mut heads = vec![NIL; buckets];
    let mut next = vec![NIL; right.len()];
    for (row, &h) in right_hashes.iter().enumerate().rev() {
        let bucket = (h >> shift) as usize;
        next[row] = heads[bucket];
        heads[bucket] = row as u32;
    }

    let keys: Vec<(&Column, &Column)> =
        shared.iter().map(|&(li, ri)| (left.column(li), right.column(ri))).collect();
    let mut lsel = Vec::with_capacity(left.len());
    let mut rsel = Vec::with_capacity(left.len());
    for (l, &h) in left_hashes.iter().enumerate() {
        let mut r = heads[(h >> shift) as usize];
        while r != NIL {
            let row = r as usize;
            // Equal hashes are a hint, equal keys the join condition.
            if right_hashes[row] == h && keys.iter().all(|(lc, rc)| lc.get(l) == rc.get(row)) {
                lsel.push(l as u32);
                rsel.push(r);
            }
            r = next[row];
        }
    }
    (lsel, rsel)
}

/// Union of solution sets with identical schemas ("merge" in CGE terms).
///
/// # Panics
/// Panics if schemas differ.
pub fn merge(sets: Vec<SolutionSet>) -> SolutionSet {
    let mut it = sets.into_iter();
    let mut first = it.next().expect("merge needs at least one input");
    for s in it {
        first.append(s);
    }
    first
}

/// Columnar twin of [`merge`]: concatenate batches in order.
///
/// # Panics
/// Panics if schemas differ or the input is empty.
pub fn merge_batches(batches: Vec<SolutionBatch>) -> SolutionBatch {
    let mut it = batches.into_iter();
    let mut first = it.next().expect("merge needs at least one input");
    for b in it {
        first.append(b);
    }
    first
}

/// Project onto a subset of variables (preserving requested order).
///
/// # Panics
/// Panics if a requested variable is absent.
pub fn project(input: &SolutionSet, vars: &[&str]) -> SolutionSet {
    let idx: Vec<usize> = vars
        .iter()
        .map(|v| input.var_index(v).unwrap_or_else(|| panic!("unknown variable ?{v}")))
        .collect();
    let mut out = SolutionSet::empty(vars.iter().map(|s| s.to_string()).collect());
    let mut buf = Vec::with_capacity(idx.len());
    for row in input.rows() {
        buf.clear();
        buf.extend(idx.iter().map(|&i| row[i]));
        out.push(&buf);
    }
    out
}

/// Remove duplicate rows (first occurrence wins, order preserved).
pub fn distinct(input: &SolutionSet) -> SolutionSet {
    let mut seen: HashSet<&[TermId]> = HashSet::with_capacity(input.len());
    let mut out = SolutionSet::empty(input.vars().to_vec());
    for row in input.rows() {
        if seen.insert(row) {
            out.push(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    fn id(v: u64) -> TermId {
        TermId(v)
    }

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(id(s), id(p), id(o))
    }

    #[test]
    fn scan_binds_wildcards_only() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let triples = vec![t(1, 9, 11), t(2, 9, 12)];
        let sols = scan_to_solutions(&pat, Some("s"), None, Some("o"), &triples);
        assert_eq!(sols.vars(), &["s".to_string(), "o".to_string()]);
        assert_eq!(sols.rows().to_vec(), [vec![id(1), id(11)], vec![id(2), id(12)]]);
    }

    #[test]
    #[should_panic(expected = "predicate is bound")]
    fn scan_rejects_var_on_bound_position() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        scan_to_solutions(&pat, Some("s"), Some("p"), None, &[]);
    }

    #[test]
    fn join_on_shared_var() {
        // proteins: (?p, ?seq)   inhibitors: (?p, ?c)
        let left = SolutionSet::new(
            vec!["p".into(), "seq".into()],
            vec![vec![id(1), id(21)], vec![id(2), id(22)], vec![id(3), id(23)]],
        );
        let right = SolutionSet::new(
            vec!["p".into(), "c".into()],
            vec![
                vec![id(1), id(31)],
                vec![id(1), id(32)],
                vec![id(3), id(33)],
                vec![id(9), id(39)],
            ],
        );
        let joined = hash_join(&left, &right);
        assert_eq!(joined.vars(), &["p".to_string(), "seq".to_string(), "c".to_string()]);
        assert_eq!(joined.len(), 3, "p=1 matches twice, p=3 once, p=2/9 drop");
        assert!(joined.rows().iter().any(|r| r == [id(1), id(21), id(32)]));
        assert!(joined.rows().iter().any(|r| r == [id(3), id(23), id(33)]));
    }

    #[test]
    fn join_without_shared_vars_is_cross_product() {
        let left = SolutionSet::new(vec!["a".into()], vec![vec![id(1)], vec![id(2)]]);
        let right =
            SolutionSet::new(vec!["b".into()], vec![vec![id(10)], vec![id(20)], vec![id(30)]]);
        assert_eq!(hash_join(&left, &right).len(), 6);
    }

    #[test]
    fn join_on_multiple_shared_vars() {
        let left = SolutionSet::new(
            vec!["x".into(), "y".into()],
            vec![vec![id(1), id(2)], vec![id(1), id(3)]],
        );
        let right = SolutionSet::new(
            vec!["y".into(), "x".into()],
            vec![vec![id(2), id(1)], vec![id(3), id(9)]],
        );
        let joined = hash_join(&left, &right);
        assert_eq!(joined.len(), 1, "both x and y must agree");
        assert_eq!(joined.rows()[0], vec![id(1), id(2)]);
    }

    #[test]
    fn join_with_empty_side_is_empty() {
        let left = SolutionSet::new(vec!["a".into()], vec![vec![id(1)]]);
        let right = SolutionSet::empty(vec!["a".into()]);
        assert!(hash_join(&left, &right).is_empty());
        assert!(hash_join(&right, &left).is_empty());
    }

    #[test]
    fn merge_concatenates() {
        let a = SolutionSet::new(vec!["x".into()], vec![vec![id(1)]]);
        let b = SolutionSet::new(vec!["x".into()], vec![vec![id(2)], vec![id(3)]]);
        assert_eq!(merge(vec![a, b]).len(), 3);
    }

    #[test]
    fn project_reorders_and_drops() {
        let s = SolutionSet::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![id(1), id(2), id(3)]],
        );
        let p = project(&s, &["c", "a"]);
        assert_eq!(p.vars(), &["c".to_string(), "a".to_string()]);
        assert_eq!(p.rows()[0], vec![id(3), id(1)]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn project_unknown_var_panics() {
        let s = SolutionSet::empty(vec!["a".into()]);
        project(&s, &["zzz"]);
    }

    #[test]
    fn batch_scan_matches_row_scan() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let triples = vec![t(1, 9, 11), t(2, 9, 12), t(3, 9, 13)];
        let rowwise = scan_to_solutions(&pat, Some("s"), None, Some("o"), &triples);
        let batch = scan_to_batch(&pat, Some("s"), None, Some("o"), &triples);
        assert_eq!(batch.to_set(), rowwise);
    }

    #[test]
    fn batch_join_matches_row_join_exactly() {
        let left = SolutionSet::new(
            vec!["p".into(), "seq".into()],
            vec![vec![id(1), id(21)], vec![id(2), id(22)], vec![id(3), id(23)]],
        );
        let right = SolutionSet::new(
            vec!["p".into(), "c".into()],
            vec![
                vec![id(1), id(31)],
                vec![id(1), id(32)],
                vec![id(3), id(33)],
                vec![id(9), id(39)],
            ],
        );
        let rowwise = hash_join(&left, &right);
        let batch =
            hash_join_batch(&SolutionBatch::from_set(&left), &SolutionBatch::from_set(&right));
        // Same schema, same rows, same order — byte-identical.
        assert_eq!(batch.to_set(), rowwise);
    }

    #[test]
    fn batch_cross_product_matches_row_cross_product() {
        let left = SolutionSet::new(vec!["a".into()], vec![vec![id(1)], vec![id(2)]]);
        let right =
            SolutionSet::new(vec!["b".into()], vec![vec![id(10)], vec![id(20)], vec![id(30)]]);
        let rowwise = hash_join(&left, &right);
        let batch =
            hash_join_batch(&SolutionBatch::from_set(&left), &SolutionBatch::from_set(&right));
        assert_eq!(batch.to_set(), rowwise);
    }

    #[test]
    fn batch_merge_concatenates_in_order() {
        let a = SolutionBatch::from_set(&SolutionSet::new(vec!["x".into()], vec![vec![id(1)]]));
        let b = SolutionBatch::from_set(&SolutionSet::new(
            vec!["x".into()],
            vec![vec![id(2)], vec![id(3)]],
        ));
        let merged = merge_batches(vec![a, b]);
        assert_eq!(merged.to_set().rows().to_vec(), [vec![id(1)], vec![id(2)], vec![id(3)]]);
    }

    #[test]
    fn distinct_removes_duplicates_stably() {
        let s = SolutionSet::new(
            vec!["x".into()],
            vec![vec![id(2)], vec![id(1)], vec![id(2)], vec![id(3)], vec![id(1)]],
        );
        let d = distinct(&s);
        assert_eq!(d.rows().iter().map(|r| r[0].0).collect::<Vec<_>>(), vec![2, 1, 3]);
    }

    #[test]
    fn batch_join_with_an_empty_side_keeps_the_output_schema() {
        let left = SolutionBatch::from_set(&SolutionSet::new(
            vec!["a".into(), "k".into()],
            vec![vec![id(1), id(2)]],
        ));
        let right = SolutionBatch::empty(vec!["k".into(), "b".into()]);
        for (l, r, vars) in [(&left, &right, ["a", "k", "b"]), (&right, &left, ["k", "b", "a"])] {
            let out = hash_join_batch(l, r);
            assert!(out.is_empty());
            assert_eq!(out.vars(), vars.map(String::from));
        }
    }

    #[test]
    #[should_panic(expected = "join input is fully bound")]
    fn batch_join_rejects_a_null_binding_up_front() {
        let left = SolutionBatch::from_set(&SolutionSet::new(vec!["k".into()], vec![vec![id(1)]]));
        let mut right = SolutionBatch::empty(vec!["k".into(), "b".into()]);
        right.push_opt_row(&[Some(id(1)), None]);
        hash_join_batch(&left, &right);
    }

    fn schema(vars: &[&str]) -> Arc<[String]> {
        vars.iter().map(|v| v.to_string()).collect()
    }

    fn batch_of(schema: &Arc<[String]>, rows: &[&[u64]]) -> SolutionBatch {
        let mut b = SolutionBatch::with_schema(schema.clone());
        for row in rows {
            b.push_row(&row.iter().map(|&v| id(v)).collect::<Vec<_>>());
        }
        b
    }

    #[test]
    fn one_scan_schema_binds_every_shard_like_scan_to_batch() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let scan = scan_schema(&pat, Some("s"), None, Some("o"));
        let shards = [vec![t(1, 9, 11)], vec![], vec![t(2, 9, 12), t(3, 9, 13)]];
        let batches: Vec<SolutionBatch> = shards.iter().map(|tr| scan_with(&scan, tr)).collect();
        for (b, tr) in batches.iter().zip(&shards) {
            assert!(Arc::ptr_eq(b.schema(), batches[0].schema()));
            assert_eq!(*b, scan_to_batch(&pat, Some("s"), None, Some("o"), tr));
        }
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
    }

    #[test]
    fn one_join_layout_serves_every_shard_with_one_output_schema() {
        let (ls, rs) = (schema(&["p", "seq"]), schema(&["c", "p"]));
        let js = join_schema(&ls, &rs);
        let shards = [
            (batch_of(&ls, &[&[1, 21], &[2, 22]]), batch_of(&rs, &[&[31, 1], &[32, 1]])),
            (batch_of(&ls, &[&[3, 23]]), batch_of(&rs, &[])),
            (batch_of(&ls, &[&[4, 24]]), batch_of(&rs, &[&[34, 4], &[39, 9]])),
        ];
        let outs: Vec<SolutionBatch> =
            shards.iter().map(|(l, r)| hash_join_with(&js, l, r)).collect();
        for (out, (l, r)) in outs.iter().zip(&shards) {
            assert!(Arc::ptr_eq(out.schema(), outs[0].schema()));
            assert_eq!(*out, hash_join_batch(l, r));
        }
        assert_eq!(outs.iter().map(SolutionBatch::len).collect::<Vec<_>>(), vec![2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "join inputs must have the schemas")]
    fn hash_join_with_rejects_inputs_of_another_schema() {
        let js = join_schema(&schema(&["a"]), &schema(&["a", "b"]));
        hash_join_with(&js, &batch_of(&schema(&["a"]), &[]), &batch_of(&schema(&["b"]), &[]));
    }

    /// The column-at-a-time scan and join against the row-at-a-time loops
    /// they replaced: the same rows in the same order as the row operators,
    /// and `==` with the batch the old `push_row` loop built, so column
    /// widths — hence `byte_size()` and every charge computed from it —
    /// cannot drift. Sizes grow in release builds (`ci.sh` runs
    /// `cargo test -p ids-graph --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);
        const MAX_ROWS: usize = if FULL { 5000 } else { 250 };

        /// The previous `hash_join_batch`, verbatim: a `Vec<TermId>` key per
        /// build and per probe row, output through `push_row`.
        fn reference_join_batch(left: &SolutionBatch, right: &SolutionBatch) -> SolutionBatch {
            let shared: Vec<(usize, usize)> = left
                .vars()
                .iter()
                .enumerate()
                .filter_map(|(li, v)| right.var_index(v).map(|ri| (li, ri)))
                .collect();
            let right_extra: Vec<usize> = (0..right.vars().len())
                .filter(|ri| !shared.iter().any(|&(_, sri)| sri == *ri))
                .collect();
            let mut vars: Vec<String> = left.vars().to_vec();
            vars.extend(right_extra.iter().map(|&ri| right.vars()[ri].clone()));
            let mut out = SolutionBatch::empty(vars);

            let mut table: HashMap<Vec<TermId>, Vec<usize>> = HashMap::new();
            for idx in 0..right.len() {
                let key: Vec<TermId> =
                    shared.iter().map(|&(_, ri)| right.get(idx, ri).unwrap()).collect();
                table.entry(key).or_default().push(idx);
            }
            let mut row: Vec<TermId> = Vec::new();
            let mut lrow: Vec<TermId> = Vec::new();
            for li in 0..left.len() {
                left.copy_row(li, &mut lrow);
                let key: Vec<TermId> = shared.iter().map(|&(i, _)| lrow[i]).collect();
                if let Some(matches) = table.get(&key) {
                    for &ridx in matches {
                        row.clear();
                        row.extend_from_slice(&lrow);
                        row.extend(right_extra.iter().map(|&ri| right.get(ridx, ri).unwrap()));
                        out.push_row(&row);
                    }
                }
            }
            out
        }

        /// A batch of `rows` random rows. Ids are drawn from `0..domain`
        /// (small domains make duplicate keys); with `big_ids` about one in
        /// six is pushed past `u32::MAX`; with `wide_small` a first row of
        /// huge ids is split off again, leaving `U64` columns that hold
        /// only small values.
        fn random_batch(
            vars: &[String],
            rows: usize,
            domain: u64,
            big_ids: bool,
            wide_small: bool,
            rng: &mut SplitMix64,
        ) -> SolutionBatch {
            let mut b = SolutionBatch::empty(vars.to_vec());
            if wide_small {
                b.push_row(&vec![id(u64::MAX - 1); vars.len()]);
            }
            let mut row = Vec::new();
            for _ in 0..rows {
                row.clear();
                row.extend(vars.iter().map(|_| {
                    let v = rng.next_below(domain);
                    id(if big_ids && rng.next_below(6) == 0 { v + (1 << 32) } else { v })
                }));
                b.push_row(&row);
            }
            if wide_small {
                b = b.split_off(1);
            }
            b
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 256 } else { 96 }))]

            #[test]
            fn join_equals_row_join_and_the_push_row_batch(
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
                let left = random_batch(
                    &left_vars, left_rows.min(cap), domain, flags & 1 != 0, flags & 2 != 0, &mut rng,
                );
                let right = random_batch(
                    &right_vars, right_rows.min(cap), domain, flags & 4 != 0, flags & 8 != 0, &mut rng,
                );

                let got = hash_join_batch(&left, &right);
                let want = reference_join_batch(&left, &right);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got.to_set(), hash_join(&left.to_set(), &right.to_set()));
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

                let mut want = SolutionBatch::empty(
                    [var_s, var_p, var_o].into_iter().flatten().map(String::from).collect(),
                );
                let mut row = Vec::new();
                for t in &triples {
                    row.clear();
                    row.extend(var_s.map(|_| t.s));
                    row.extend(var_p.map(|_| t.p));
                    row.extend(var_o.map(|_| t.o));
                    want.push_row(&row);
                }
                let got = scan_to_batch(&pat, var_s, var_p, var_o, &triples);
                prop_assert_eq!(got.byte_size(), want.byte_size());
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(
                    got.to_set(),
                    scan_to_solutions(&pat, var_s, var_p, var_o, &triples)
                );
            }
        }
    }
}

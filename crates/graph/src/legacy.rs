//! One-rank stand-ins for the per-rank batch API that the `perf`
//! benchmark's `graph.*` probes (`crates/bench/src/bin/perf/probes.rs`)
//! still name. A "batch" here is a [`StageBatch`] of one rank; nothing else
//! in the workspace uses these names.

use crate::batch::Column;
use crate::ops::{join_schema, scan_into, scan_schema, JoinWorker};
use crate::solution::SolutionSet;
use crate::stage::{offsets_from_counts, StageBatch, StagePart};
use crate::store::TriplePattern;
use crate::triple::Triple;
use std::sync::Arc;

/// A one-rank [`StageBatch`].
pub type SolutionBatch = StageBatch;

/// The one-rank stage holding `cols` (each `rows` long).
///
/// # Panics
/// Panics if `rows` does not fit the `u32` row index space.
fn one_rank(vars: Arc<[String]>, cols: Vec<Column>, rows: usize) -> StageBatch {
    match offsets_from_counts([rows]) {
        Some(offsets) => StageBatch::from_columns(vars, cols, offsets),
        None => panic!("a one-rank batch holds fewer than 2^32 rows"),
    }
}

/// The matches `triples` of `pattern`, bound as one rank's scan binds them.
///
/// # Panics
/// Panics if a variable is supplied for a bound position.
pub fn scan_to_batch(
    pattern: &TriplePattern,
    var_s: Option<&str>,
    var_p: Option<&str>,
    var_o: Option<&str>,
    triples: &[Triple],
) -> StageBatch {
    let schema = scan_schema(pattern, var_s, var_p, var_o);
    let mut part = StagePart::new(schema.vars().len());
    let (_, rows) = scan_into(&schema, triples, &mut part);
    one_rank(schema.vars().clone(), part.into_columns(), rows)
}

/// Every row of `left` joined with every row of `right` as one rank's join
/// ([`JoinWorker::join`]).
///
/// # Panics
/// As [`JoinWorker::join`], or if the output does not fit the `u32` row
/// index space.
pub fn hash_join_batch(left: &StageBatch, right: &StageBatch) -> StageBatch {
    let schema = join_schema(left.schema(), right.schema());
    let mut worker = JoinWorker::new(&schema);
    let (_, rows) = worker.join(&schema, left.view(), right.view());
    one_rank(schema.vars().clone(), worker.into_part().into_columns(), rows)
}

/// Every row of `batches`, in order, as one rank; no batches merge to an
/// empty batch without variables.
///
/// # Panics
/// Panics if the schemas differ or the rows do not fit the `u32` row index
/// space.
pub fn merge_batches(batches: Vec<StageBatch>) -> StageBatch {
    let Some(first) = batches.first() else { return StageBatch::empty(Arc::new([]), 1) };
    let vars = first.schema().clone();
    assert!(batches.iter().all(|b| *b.vars() == *vars), "merge requires identical schemas");
    let cols = (0..vars.len())
        .map(|c| {
            let mut col = Column::U32(Vec::new());
            col.reserve(batches.iter().map(StageBatch::len).sum());
            batches.iter().for_each(|b| col.extend_slice(b.column(c)));
            col
        })
        .collect();
    one_rank(vars, cols, batches.iter().map(StageBatch::len).sum())
}

impl StageBatch {
    /// `set`'s rows as one rank, in order.
    #[doc(hidden)]
    pub fn from_set(set: &SolutionSet) -> Self {
        let cols = (0..set.vars().len())
            .map(|c| Column::collect(set.rows().iter().map(|r| r[c].raw())))
            .collect();
        one_rank(set.vars().into(), cols, set.len())
    }

    /// Every row, ranks in order, as a row-major set.
    #[doc(hidden)]
    pub fn to_set(&self) -> SolutionSet {
        let all: Vec<usize> = (0..self.vars().len()).collect();
        let every: Vec<u32> = (0..self.len() as u32).collect();
        self.view().select_rows(self.vars().to_vec(), &all, &every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermId;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    #[test]
    fn one_rank_scan_join_and_merge_round_trip_through_sets() {
        let pat = TriplePattern::new(None, Some(TermId(9)), None);
        let left = scan_to_batch(&pat, Some("p"), None, Some("c"), &[t(1, 9, 31), t(3, 9, 33)]);
        let right = scan_to_batch(&pat, Some("p"), None, Some("s"), &[t(3, 9, 23), t(1, 9, 21)]);
        assert_eq!((left.ranks(), left.len()), (1, 2));
        let joined = hash_join_batch(&left, &right).to_set();
        assert_eq!(joined.vars(), ["p", "c", "s"]);
        let want = [[1, 31, 21], [3, 33, 23]].map(|r| r.map(TermId).to_vec());
        assert_eq!(joined.rows().to_vec(), want);
        assert_eq!(StageBatch::from_set(&joined).to_set(), joined);
        let merged = merge_batches(vec![left.clone(), left.clone()]);
        let once = left.to_set().rows().to_vec();
        assert_eq!(merged.to_set().rows().to_vec(), [once.clone(), once].concat());
        assert!(merge_batches(Vec::new()).is_empty());
    }

    #[test]
    fn a_wide_id_widens_the_one_rank() {
        let set = SolutionSet::new(vec!["x".into()], vec![vec![TermId(1)], vec![TermId(1 << 40)]]);
        let batch = StageBatch::from_set(&set);
        assert_eq!(batch.segment_width(0, 0), 8);
        assert_eq!(batch.byte_size(), set.byte_size());
    }

    #[test]
    #[should_panic(expected = "merge requires identical schemas")]
    fn merge_refuses_another_schema() {
        let x = SolutionSet::new(vec!["x".into()], vec![]);
        let y = SolutionSet::new(vec!["y".into()], vec![]);
        merge_batches(vec![StageBatch::from_set(&x), StageBatch::from_set(&y)]);
    }
}

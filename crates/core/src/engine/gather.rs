//! The result gather's data plane: the merged stage shaped into the
//! client's result — canonical row order, then ORDER BY, SELECT, DISTINCT
//! and LIMIT.

use super::ExecError;
use crate::datastore::Datastore;
use ids_graph::batch::{BatchView, ColumnSlice};
use ids_graph::stage::{sort_permutation, IdBuffers};
use ids_graph::{SolutionSet, TermId};
use std::collections::HashSet;

/// Shape the merged solutions into the client's result: canonical row
/// order, then ORDER BY, SELECT, DISTINCT and LIMIT.
///
/// Canonicalize before any result-shaping (DESIGN.md §5l): the BGP join
/// order is an optimizer choice — and under adaptive re-planning can
/// change mid-query — while the solution *multiset* is order-independent.
/// Fixing the column order lexicographically and sorting rows by term id
/// makes everything downstream (the stable ORDER BY re-sort, SELECT
/// projection, DISTINCT's first-occurrence rule, LIMIT's prefix) a pure
/// function of that multiset, so static and adaptive plans return
/// byte-identical results.
///
/// Every step reorders or thins a row permutation over `merged`'s id
/// columns; the result is built once, at the end, in its final shape: one
/// row-major buffer filled a column at a time.
/// ORDER BY runs before projection so the sort variable need not be
/// projected; DISTINCT and LIMIT run after, on the final shape.
///
/// `merged` must be fully bound: a stage's rows always are. The canonical
/// permutation comes from `buffers`. Then, before the result is filled,
/// `buffers` is cleared: the result is the run's last and largest
/// allocation, and with the list's buffers back in the allocator it
/// reuses their pages instead of growing the heap (which the allocator
/// would trim again once the result is freed). Public so the micro
/// benches can time the gather's data plane alone.
pub fn shape_result(
    merged: BatchView<'_>,
    order_by: Option<&(String, bool)>,
    select: &[String],
    distinct: bool,
    limit: Option<usize>,
    ds: &Datastore,
    buffers: &IdBuffers,
) -> Result<SolutionSet, ExecError> {
    let mut canon: Vec<usize> = (0..merged.vars().len()).collect();
    canon.sort_unstable_by_key(|&c| &merged.vars()[c]);
    let mut perm = canonical_permutation(&merged, &canon, buffers)?;

    if let Some((var, descending)) = order_by {
        let idx = merged
            .var_index(var)
            .ok_or_else(|| ExecError::msg(format!("ORDER BY variable ?{var} is never bound")))?;
        // One decode and one key per row, not two `String`s per comparison.
        let dict = ds.dictionary();
        let col = merged.column(idx);
        let keys: Vec<OrderKey> = (0..merged.len())
            .map(|row| order_key(dict.decode(TermId(col.get(row))).as_ref()))
            .collect();
        perm.sort_by(|&a, &b| {
            let ord = compare_keys(&keys[a as usize], &keys[b as usize]);
            if *descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }

    let (vars, cols): (Vec<String>, Vec<usize>) = if select.is_empty() {
        (canon.iter().map(|&c| merged.vars()[c].clone()).collect(), canon)
    } else {
        let cols = select
            .iter()
            .map(|v| {
                merged.var_index(v).ok_or_else(|| {
                    ExecError::msg(format!("projected variable ?{v} is never bound"))
                })
            })
            .collect::<Result<_, _>>()?;
        (select.to_vec(), cols)
    };

    let limit = limit.unwrap_or(usize::MAX);
    if distinct {
        // First occurrence wins.
        let picked: Vec<ColumnSlice<'_>> = cols.iter().map(|&c| merged.column(c)).collect();
        let mut seen: HashSet<Vec<TermId>> = HashSet::new();
        let mut row: Vec<TermId> = Vec::with_capacity(picked.len());
        perm.retain(|&i| {
            if seen.len() >= limit {
                return false;
            }
            row.clear();
            row.extend(picked.iter().map(|c| TermId(c.get(i as usize))));
            !seen.contains(&row) && seen.insert(row.clone())
        });
    }
    perm.truncate(limit);
    buffers.clear();
    Ok(merged.select_rows(vars, &cols, &perm))
}

/// The permutation that sorts `batch`'s rows lexicographically by the id
/// columns `cols`, ties in row order, in a buffer from `buffers`: a
/// counting sort by the lead column ([`sort_permutation`]), then each run
/// of rows that tie on it sorted by the other columns.
fn canonical_permutation(
    batch: &BatchView<'_>,
    cols: &[usize],
    buffers: &IdBuffers,
) -> Result<Vec<u32>, ExecError> {
    let overflow = || ExecError::msg("result exceeds the u32 row index space");
    let rows = u32::try_from(batch.len()).map_err(|_| overflow())?;
    let Some((&first, rest)) = cols.split_first() else {
        let mut perm = buffers.take_u32(batch.len());
        perm.extend(0..rows);
        return Ok(perm);
    };
    let lead = batch.column(first);
    let mut perm = sort_permutation(lead, buffers).ok_or_else(overflow)?;
    if !rest.is_empty() {
        let rest: Vec<ColumnSlice<'_>> = rest.iter().map(|&c| batch.column(c)).collect();
        let same_lead = |&a: &u32, &b: &u32| lead.get(a as usize) == lead.get(b as usize);
        for run in perm.chunk_by_mut(same_lead).filter(|run| run.len() > 1) {
            run.sort_unstable_by(|&a, &b| {
                rest.iter()
                    .map(|c| c.get(a as usize).cmp(&c.get(b as usize)))
                    .find(|ord| ord.is_ne())
                    .unwrap_or(a.cmp(&b))
            });
        }
    }
    Ok(perm)
}

/// ORDER BY's sort key for one decoded term: numerics first, by value;
/// then strings and IRIs, lexically by display form; unbound
/// (undecodable) terms last.
type OrderKey = (u8, f64, String);

fn order_key(t: Option<&ids_graph::Term>) -> OrderKey {
    match t {
        Some(t) => match t.as_f64() {
            Some(v) => (0, v, String::new()),
            None => (1, 0.0, t.to_string()),
        },
        None => (2, 0.0, String::new()),
    }
}

/// The total order over [`OrderKey`]s. `total_cmp` keeps the sort a strict
/// weak order even if a term decodes to NaN (it sorts after every other
/// numeric, before strings).
fn compare_keys(a: &OrderKey, b: &OrderKey) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then_with(|| a.2.cmp(&b.2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{schema, stage_of, RankRows};
    use ids_graph::{StageBatch, Term};
    use std::cmp::Ordering;
    use std::sync::Arc;

    /// ORDER BY's comparison of two decoded terms.
    fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
        compare_keys(&order_key(a), &order_key(b))
    }

    #[test]
    fn compare_terms_orders_numbers_before_strings() {
        let a = Term::Int(5);
        let b = Term::float(5.5);
        let s = Term::str("abc");
        assert_eq!(compare_terms(Some(&a), Some(&b)), Ordering::Less);
        assert_eq!(compare_terms(Some(&b), Some(&a)), Ordering::Greater);
        assert_eq!(compare_terms(Some(&a), Some(&a)), Ordering::Equal);
        // Numbers sort before strings; strings before unbound.
        assert_eq!(compare_terms(Some(&b), Some(&s)), Ordering::Less);
        assert_eq!(compare_terms(Some(&s), None), Ordering::Less);
        assert_eq!(compare_terms(None, None), Ordering::Equal);
        // Strings compare lexically through their display form.
        let t = Term::str("abd");
        assert_eq!(compare_terms(Some(&s), Some(&t)), Ordering::Less);
    }

    /// A one-rank stage over `vars` whose rows hold the given integers, as
    /// terms of `ds`.
    fn int_batch(ds: &Datastore, vars: &[&str], rows: &[&[i64]]) -> StageBatch {
        let rows = rows.iter().map(|row| row.iter().map(|&v| ds.encode(&Term::Int(v)).raw()));
        stage_of(&[RankRows::of(&schema(vars), rows.map(Iterator::collect))])
    }

    #[test]
    fn gather_select_reorders_and_drops_columns() {
        let ds = Datastore::new(1);
        let merged = int_batch(&ds, &["a", "b", "c"], &[&[1, 2, 3]]);
        let select = ["c".to_string(), "a".to_string()];
        let out =
            shape_result(merged.view(), None, &select, false, None, &ds, &IdBuffers::default())
                .unwrap();
        assert_eq!(out.vars(), select);
        assert_eq!(out.rows().to_vec(), [[3, 1].map(|v| ds.encode(&Term::Int(v)))]);
    }

    #[test]
    fn gather_select_of_an_unknown_variable_is_a_query_error() {
        let ds = Datastore::new(1);
        let merged = int_batch(&ds, &["a"], &[]);
        let err = shape_result(
            merged.view(),
            None,
            &["zzz".to_string()],
            false,
            None,
            &ds,
            &IdBuffers::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("projected variable ?zzz is never bound"), "{err}");
    }

    #[test]
    fn gather_distinct_keeps_first_occurrences_in_order() {
        // ORDER BY k DESC lines x up as 2, 1, 2, 3, 1; DISTINCT keeps the
        // first of each.
        let ds = Datastore::new(1);
        let rows: [&[i64]; 5] = [&[1, 1], &[2, 3], &[3, 2], &[4, 1], &[5, 2]];
        let merged = int_batch(&ds, &["k", "x"], &rows);
        let order = ("k".to_string(), true);
        let out = shape_result(
            merged.view(),
            Some(&order),
            &["x".to_string()],
            true,
            None,
            &ds,
            &IdBuffers::default(),
        )
        .unwrap();
        assert_eq!(out.rows().to_vec(), [2, 1, 3].map(|v| [ds.encode(&Term::Int(v))]));
    }

    /// The column-at-a-time gather against the row-at-a-time code it
    /// replaced, kept here verbatim. Sizes grow in release builds
    /// (`ci.sh` runs `cargo test -p ids-core --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);

        /// The previous gather: materialise every row, project to the
        /// canonical column order, sort the rows, stable-sort again for
        /// ORDER BY (decoding both terms at every comparison), project to
        /// SELECT, then DISTINCT and LIMIT, each building a new set.
        fn reference_shape(
            merged: &RankRows,
            order_by: Option<&(String, bool)>,
            select: &[String],
            distinct: bool,
            limit: Option<usize>,
            ds: &Datastore,
        ) -> Result<SolutionSet, ExecError> {
            let set = merged.to_set();
            // Canonical column order: every row rebuilt over sorted names.
            let mut vars = set.vars().to_vec();
            vars.sort_unstable();
            let canon: Vec<usize> = vars.iter().map(|v| set.var_index(v).unwrap()).collect();
            let mut rows: Vec<Vec<TermId>> =
                set.rows().iter().map(|r| canon.iter().map(|&c| r[c]).collect()).collect();
            rows.sort_unstable();
            if let Some((var, descending)) = order_by {
                let idx = vars.iter().position(|v| v == var).ok_or_else(|| {
                    ExecError::msg(format!("ORDER BY variable ?{var} is never bound"))
                })?;
                let dict = ds.dictionary();
                rows.sort_by(|a, b| {
                    let ta = dict.decode(a[idx]);
                    let tb = dict.decode(b[idx]);
                    let ord = compare_terms(ta.as_ref(), tb.as_ref());
                    if *descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }
            if !select.is_empty() {
                let cols = select
                    .iter()
                    .map(|c| {
                        vars.iter().position(|v| v == c).ok_or_else(|| {
                            ExecError::msg(format!("projected variable ?{c} is never bound"))
                        })
                    })
                    .collect::<Result<Vec<usize>, _>>()?;
                rows = rows.iter().map(|r| cols.iter().map(|&c| r[c]).collect()).collect();
                vars = select.to_vec();
            }
            if distinct {
                // First occurrence wins.
                let mut seen = HashSet::new();
                rows.retain(|r| seen.insert(r.clone()));
            }
            rows.truncate(limit.unwrap_or(usize::MAX));
            Ok(SolutionSet::new(vars, rows))
        }

        /// The canonical order by comparison sort: rows by (lead, row),
        /// then each run of rows that tie on the lead by the other columns,
        /// stably, so rows equal on every column keep their row order.
        fn reference_permutation(batch: &BatchView<'_>, cols: &[usize]) -> Vec<u32> {
            let id = |row: u32, c: usize| batch.column(c).get(row as usize);
            let mut perm: Vec<u32> = (0..batch.len() as u32).collect();
            let Some((&lead, rest)) = cols.split_first() else { return perm };
            perm.sort_by_key(|&row| (id(row, lead), row));
            for run in perm.chunk_by_mut(|&a, &b| id(a, lead) == id(b, lead)) {
                run.sort_by(|&a, &b| {
                    rest.iter()
                        .map(|&c| id(a, c).cmp(&id(b, c)))
                        .find(|ord| ord.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
            perm
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 160 } else { 48 }))]

            /// The counting sort against the comparison sort: `u32` and
            /// `u64` leads, ids past `u32::MAX`, repeated leads, 0 and 1
            /// rows, and leads whose high digits are all equal.
            #[test]
            fn canonical_permutation_equals_the_comparison_sort(
                seed in 0u64..1_000_000,
                rows in prop_oneof![0usize..=1, 0usize..=(if FULL { 20_000 } else { 2_000 })],
                width in 0usize..=3,
                // Lead ids: from a few values, from many, or many values
                // above one high base (equal high digits), at 32 or 64 bits.
                lead in 0u8..3,
                base in prop_oneof![Just(0u64), Just(0xC000_0000u64), Just(0x5A5A_0000_0000u64)],
                domain in 1u64..=64,
            ) {
                let mut rng = SplitMix64::new(seed, 0xc0a7);
                let lead_id = |rng: &mut SplitMix64| match lead {
                    0 => base + rng.next_below(3),
                    1 => base + rng.next_below(rows as u64 * 4 + 1),
                    _ => base + (rng.next_below(domain) << 4),
                };
                let vars: Arc<[String]> = (0..width).map(|c| format!("v{c}")).collect();
                let cols: Vec<ids_graph::batch::Column> = (0..width)
                    .map(|c| {
                        let ids: Vec<u64> = (0..rows)
                            .map(|_| if c == 0 { lead_id(&mut rng) } else { rng.next_below(domain) })
                            .collect();
                        ids_graph::batch::Column::U64(ids)
                    })
                    .collect();
                let stage = StageBatch::from_columns(vars, cols, vec![0, rows as u32]);
                let view = stage.view();
                // The drawn lead column first, then last.
                let (first, last): (Vec<usize>, Vec<usize>) = ((0..width).collect(), (0..width).rev().collect());
                let buffers = IdBuffers::default();
                for cols in [&first, &last] {
                    let got = canonical_permutation(&view, cols, &buffers).unwrap();
                    prop_assert_eq!(&got, &reference_permutation(&view, cols));
                    buffers.give_u32(got);
                }
            }

            #[test]
            fn gather_equals_materialise_project_sort_project(
                seed in 0u64..1_000_000,
                rows in 0usize..=(if FULL { 3000 } else { 150 }),
                // Low domains tie many rows on the lead column.
                domain in prop_oneof![1u64..=3, 1u64..=24],
                order in 0usize..=10,
                picks in 0usize..=5,
                distinct in any::<bool>(),
                limit in prop_oneof![Just(None), (0usize..=40).prop_map(Some), Just(Some(usize::MAX))],
                wide_small in any::<bool>(),
                big_ids in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x9a7e);
                // Ids 0..24 decode to terms with ties under `compare_terms`
                // (`Int(3)` and `3.0` are distinct ids, one sort key) and
                // every kind the order ranks; ids past the dictionary do not
                // decode and sort last.
                let ds = Datastore::new(1);
                for i in 0..6 {
                    ds.encode(&ids_graph::Term::Int(i / 2));
                    ds.encode(&ids_graph::Term::float((i / 2) as f64));
                    ds.encode(&ids_graph::Term::str(format!("s{}", 5 - i)));
                    ds.encode(&ids_graph::Term::iri(format!("e:{i}")));
                }
                // Join order, not name order — the gather canonicalises.
                let vars = schema(&["m", "b", "z", "a"]);
                let mut merged = RankRows::new(&vars);
                if wide_small {
                    // `U64` columns that will hold only small ids.
                    merged.push_row(vec![u64::MAX - 1; vars.len()]);
                    merged = merged.split_off(1);
                }
                for _ in 0..rows {
                    let row: Vec<u64> = vars
                        .iter()
                        .map(|_| {
                            let id = rng.next_below(domain);
                            // Some ids the dictionary never minted; with
                            // `big_ids`, some past `u32::MAX`, so a `U64`
                            // lead column sorts real wide ids.
                            match rng.next_below(9) {
                                0 => id + 10_000,
                                1 | 2 if big_ids => id + (1 << 32),
                                _ => id,
                            }
                        })
                        .collect();
                    merged.push_row(row);
                }

                // 0 → no ORDER BY; then each variable both ways; then a
                // variable that is never bound.
                let names = ["m", "b", "z", "a", "ghost"];
                let order_by = (order > 0)
                    .then(|| (names[(order - 1) / 2].to_string(), order.is_multiple_of(2)));
                // A random SELECT list: a permutation prefix, now and then
                // with a repeated or an unbound variable.
                let mut select: Vec<String> = Vec::new();
                for _ in 0..picks {
                    let choices = if rng.next_below(12) == 0 { 5 } else { 4 };
                    select.push(names[rng.next_below(choices) as usize].to_string());
                }

                let want = reference_shape(&merged, order_by.as_ref(), &select, distinct, limit, &ds);
                let stage = stage_of(std::slice::from_ref(&merged));
                let got = shape_result(stage.view(), order_by.as_ref(), &select, distinct, limit, &ds, &IdBuffers::default());
                prop_assert_eq!(got, want);
            }
        }
    }
}

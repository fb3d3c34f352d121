//! Expression reordering for AI/ML pipelines (§2.4.3).
//!
//! Before executing a FILTER whose expression is a chain of conditionals,
//! each rank estimates every conjunct's evaluation time from its profiling
//! data and reorders the chain in **ascending estimated cost**. When two
//! conjuncts cost about the same, "the function expected to eliminate more
//! solutions is prioritized" — higher rejection rate first. Because ranks
//! profile independently, different ranks may legitimately settle on
//! different orders for the same query.

use crate::expr::Expr;
use crate::profile::ProfileRow;

/// Ratio of the geometric cost bands used to decide when two estimates
/// are "about the same". Costs are bucketed on a log scale with this
/// ratio (1.2 ≈ the paper's ±20% similarity window); conjuncts in the
/// same band tie-break on rejection rate.
///
/// Bucketing — rather than a pairwise `|a-b| <= 0.2*max(a,b)` test —
/// makes the comparator a *total order*: the pairwise test is not
/// transitive (a≈b and b≈c do not imply a≈c), which violates
/// `sort_by`'s strict-weak-ordering contract and let the final order
/// depend on element positions.
const COST_BAND_RATIO: f64 = 1.2;

/// Floor below which costs are clamped before taking the log, so
/// zero-cost estimates bucket finitely.
const MIN_BUCKETABLE_COST: f64 = 1.0e-12;

/// A cost ratio past which two costs' bands differ however the logarithms
/// round: `log_1.2(1.21) ≈ 1.045`, so the band indices are more than one
/// apart before rounding, which moves them by far less than 0.045.
const CLEAR_BAND_RATIO: f64 = 1.21;

/// Geometric cost band for `cost`: `floor(log_{1.2}(cost))`. Two costs
/// within ~20% of each other land in the same or adjacent bands; equal
/// bands are treated as "similar cost" by [`order_conjuncts`].
pub fn cost_bucket(cost: f64) -> i64 {
    (cost.max(MIN_BUCKETABLE_COST).ln() / COST_BAND_RATIO.ln()).floor() as i64
}

/// Per-conjunct planning estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConjunctEstimate {
    /// Estimated virtual seconds to evaluate once.
    pub cost: f64,
    /// Estimated probability the conjunct rejects a solution.
    pub rejection: f64,
}

/// Estimate one conjunct: the sum of its UDF costs (a conjunct with no
/// UDFs is effectively free) and the max of its UDFs' rejection rates.
/// Unknown UDFs fall back to the supplied priors.
pub fn estimate_conjunct(
    e: &Expr,
    profiler: ProfileRow<'_>,
    cost_prior: impl Fn(&str) -> f64,
    rejection_prior: f64,
) -> ConjunctEstimate {
    let udfs = e.udf_names();
    if udfs.is_empty() {
        return FREE_CONJUNCT;
    }
    let mut cost = 0.0;
    let mut rejection: f64 = 0.0;
    for u in &udfs {
        cost += profiler.estimated_cost(u, cost_prior(u));
        rejection = rejection.max(profiler.estimated_rejection(u, rejection_prior));
    }
    ConjunctEstimate { cost, rejection }
}

/// Pure comparisons are vanishingly cheap; give them a tiny epsilon so
/// they always sort to the front, and a neutral selectivity.
const FREE_CONJUNCT: ConjunctEstimate = ConjunctEstimate { cost: 1.0e-9, rejection: 0.5 };

/// [`estimate_conjunct`] of a conjunct whose UDFs' profile columns
/// ([`ProfileTable::column`], resolved once per stage) are `columns`, with
/// one cost prior for every UDF: the same estimate, reading each cell by
/// index — one call per rank per conjunct.
///
/// [`ProfileTable::column`]: crate::profile::ProfileTable::column
pub fn estimate_columns(
    columns: &[Option<usize>],
    profiler: ProfileRow<'_>,
    cost_prior: f64,
    rejection_prior: f64,
) -> ConjunctEstimate {
    if columns.is_empty() {
        return FREE_CONJUNCT;
    }
    let cost = columns.iter().map(|&c| profiler.estimated_cost_at(c, cost_prior)).sum();
    let rejection = columns
        .iter()
        .map(|&c| profiler.estimated_rejection_at(c, rejection_prior))
        .fold(0.0, f64::max);
    ConjunctEstimate { cost, rejection }
}

/// Compute the evaluation order for a conjunction: indices into
/// `conjuncts`, cheapest first, higher-rejection first among
/// similar-cost conjuncts (same geometric cost band), original order
/// for exact ties. The sort key `(cost band, -rejection, index)` is a
/// total order, so the result is deterministic and independent of the
/// conjuncts' initial arrangement.
pub fn order_conjuncts(
    conjuncts: &[Expr],
    profiler: ProfileRow<'_>,
    cost_prior: impl Fn(&str) -> f64,
    rejection_prior: f64,
) -> Vec<usize> {
    let est: Vec<ConjunctEstimate> = conjuncts
        .iter()
        .map(|c| estimate_conjunct(c, profiler, &cost_prior, rejection_prior))
        .collect();
    let mut order = Vec::new();
    order_by_estimates(&est, &mut order);
    order
}

/// [`order_conjuncts`] of conjuncts given by their estimates, written over
/// `order`, without allocating once `order` has grown — one call per rank
/// per stage.
pub fn order_by_estimates(est: &[ConjunctEstimate], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..est.len());
    order.sort_by(|&a, &b| {
        compare_bands(est[a].cost, est[b].cost)
            .then_with(|| est[b].rejection.total_cmp(&est[a].rejection))
            .then_with(|| a.cmp(&b))
    });
}

/// `cost_bucket(a).cmp(&cost_bucket(b))`, without the logarithms when the
/// costs are more than [`CLEAR_BAND_RATIO`] apart: then their bands
/// differ and follow the costs.
fn compare_bands(a: f64, b: f64) -> std::cmp::Ordering {
    let (a, b) = (a.max(MIN_BUCKETABLE_COST), b.max(MIN_BUCKETABLE_COST));
    if b > a * CLEAR_BAND_RATIO {
        std::cmp::Ordering::Less
    } else if a > b * CLEAR_BAND_RATIO {
        std::cmp::Ordering::Greater
    } else {
        cost_bucket(a).cmp(&cost_bucket(b))
    }
}

/// Apply an order to a conjunction, producing the reordered `Expr::And`.
/// `order` should be a permutation of the conjuncts' indices; if it is
/// not, an index out of range or repeated is skipped and any conjunct it
/// left out follows in its original order, so no conjunct is ever lost.
pub fn reorder_and(conjuncts: Vec<Expr>, order: &[usize]) -> Expr {
    debug_assert_eq!(conjuncts.len(), order.len());
    let mut slots: Vec<Option<Expr>> = conjuncts.into_iter().map(Some).collect();
    let mut ordered: Vec<Expr> =
        order.iter().filter_map(|&i| slots.get_mut(i).and_then(Option::take)).collect();
    ordered.extend(slots.into_iter().flatten());
    Expr::And(ordered)
}

/// Expected cost of evaluating a chain in the given order, under
/// independence: each conjunct runs only if all earlier ones passed.
pub fn expected_chain_cost(est: &[ConjunctEstimate], order: &[usize]) -> f64 {
    let mut survive = 1.0;
    let mut cost = 0.0;
    for &i in order {
        cost += survive * est[i].cost;
        survive *= 1.0 - est[i].rejection;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::profile::ProfileTable;
    use crate::value::UdfValue;

    fn udf_conjunct(name: &str) -> Expr {
        Expr::cmp(CmpOp::Ge, Expr::udf(name, vec![Expr::var("x")]), Expr::Const(UdfValue::F64(0.5)))
    }

    fn profiler_with(data: &[(&str, f64, u64, u64)]) -> ProfileTable {
        // (name, per-call cost, calls, rejections)
        let mut t = ProfileTable::new(1);
        for &(name, ..) in data {
            t.intern(name);
        }
        let mut p = t.row_mut(0);
        for &(name, cost, calls, rejections) in data {
            for _ in 0..calls {
                p.record_call(name, cost);
            }
            for _ in 0..rejections {
                p.record_rejection(name);
            }
        }
        t
    }

    #[test]
    fn orders_by_ascending_cost() {
        // The NCNPR ordering: SW (1e-3) → pIC50 is actually cheaper but
        // profile data decides — here docking ≫ dtba ≫ sw.
        let p =
            profiler_with(&[("docking", 35.0, 10, 2), ("sw", 0.001, 10, 5), ("dtba", 0.8, 10, 3)]);
        let conjuncts = vec![udf_conjunct("docking"), udf_conjunct("sw"), udf_conjunct("dtba")];
        let order = order_conjuncts(&conjuncts, p.row(0), |_| 1.0, 0.5);
        assert_eq!(order, vec![1, 2, 0], "sw, dtba, docking");
    }

    #[test]
    fn similar_costs_break_by_rejection() {
        // Two UDFs within 20% cost; the more selective goes first.
        let p = profiler_with(&[
            ("a", 1.0, 100, 10), // rejects 10%
            ("b", 1.1, 100, 90), // rejects 90%, costs 10% more
        ]);
        let conjuncts = vec![udf_conjunct("a"), udf_conjunct("b")];
        let order = order_conjuncts(&conjuncts, p.row(0), |_| 1.0, 0.5);
        assert_eq!(order, vec![1, 0], "b first despite slightly higher cost");
    }

    #[test]
    fn dissimilar_costs_ignore_rejection() {
        let p = profiler_with(&[
            ("cheap_weak", 0.1, 100, 1),      // barely selective but cheap
            ("costly_strong", 10.0, 100, 99), // very selective but 100x cost
        ]);
        let conjuncts = vec![udf_conjunct("costly_strong"), udf_conjunct("cheap_weak")];
        let order = order_conjuncts(&conjuncts, p.row(0), |_| 1.0, 0.5);
        assert_eq!(order, vec![1, 0], "cost dominates outside the similarity band");
    }

    #[test]
    fn pure_comparisons_sort_first() {
        let p = profiler_with(&[("sw", 0.001, 10, 5)]);
        let pure = Expr::cmp(CmpOp::Gt, Expr::var("pic50"), Expr::Const(UdfValue::F64(6.0)));
        let conjuncts = vec![udf_conjunct("sw"), pure.clone()];
        let order = order_conjuncts(&conjuncts, p.row(0), |_| 1.0, 0.5);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn unknown_udfs_use_priors() {
        let p = ProfileTable::new(1);
        let conjuncts = vec![udf_conjunct("unknown_sim"), udf_conjunct("unknown_analytic")];
        // Priors: simulation 35 s, analytic 1 ms.
        let order = order_conjuncts(
            &conjuncts,
            p.row(0),
            |name| if name.contains("sim") { 35.0 } else { 0.001 },
            0.5,
        );
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn reorder_and_keeps_every_conjunct_of_a_bad_order() {
        let conjuncts = vec![udf_conjunct("a"), udf_conjunct("b"), udf_conjunct("c")];
        let Expr::And(es) = reorder_and(conjuncts, &[2, 2, 7]) else { panic!("expected And") };
        let names: Vec<_> = es.iter().flat_map(Expr::udf_names).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    fn reorder_and_applies_permutation() {
        let conjuncts = vec![udf_conjunct("a"), udf_conjunct("b"), udf_conjunct("c")];
        let e = reorder_and(conjuncts, &[2, 0, 1]);
        match e {
            Expr::And(es) => {
                assert_eq!(es[0].udf_names(), vec!["c"]);
                assert_eq!(es[1].udf_names(), vec!["a"]);
                assert_eq!(es[2].udf_names(), vec!["b"]);
            }
            _ => panic!("expected And"),
        }
    }

    #[test]
    fn expected_cost_prefers_planner_order() {
        // Chain: cheap selective filter before expensive weak one must be
        // cheaper in expectation.
        let est = vec![
            ConjunctEstimate { cost: 35.0, rejection: 0.1 }, // docking-like
            ConjunctEstimate { cost: 0.001, rejection: 0.9 }, // sw-like
        ];
        let user_order = expected_chain_cost(&est, &[0, 1]);
        let planner_order = expected_chain_cost(&est, &[1, 0]);
        assert!(planner_order < user_order * 0.2, "{planner_order} vs {user_order}");
    }

    #[test]
    fn band_comparison_equals_the_bands() {
        // Costs at and around band edges, ratios either side of the clear
        // one, and the clamped, infinite and NaN ends.
        let mut costs = vec![0.0, 1.0e-13, 1.0e-12, f64::INFINITY, f64::NAN, f64::MAX];
        for k in -160..200 {
            let edge = COST_BAND_RATIO.powi(k);
            for x in [edge, edge * (1.0 - 1.0e-15), edge * (1.0 + 1.0e-15), edge * 1.1] {
                costs.push(x);
                for ratio in [1.2, 1.2099999, 1.21, 1.2100001, 1.44] {
                    costs.push(x * ratio);
                }
            }
        }
        for &a in &costs {
            for &b in &costs[costs.len() / 2..costs.len() / 2 + 64] {
                for (a, b) in [(a, b), (b, a)] {
                    let want = cost_bucket(a).cmp(&cost_bucket(b));
                    assert_eq!(compare_bands(a, b), want, "{a:e} vs {b:e}");
                }
            }
            for ratio in [1.2, 1.2099999, 1.21, 1.2100001, 1.44] {
                let b = a * ratio;
                assert_eq!(compare_bands(a, b), cost_bucket(a).cmp(&cost_bucket(b)), "{a:e}");
            }
        }
    }

    #[test]
    fn deterministic_for_exact_ties() {
        let p = profiler_with(&[("a", 1.0, 10, 5), ("b", 1.0, 10, 5)]);
        let conjuncts = vec![udf_conjunct("a"), udf_conjunct("b")];
        assert_eq!(order_conjuncts(&conjuncts, p.row(0), |_| 1.0, 0.5), vec![0, 1]);
    }
}

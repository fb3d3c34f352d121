//! Property-based tests for the adaptive-planning pieces.

use ids_udf::expr::CmpOp;
use ids_udf::reorder::{
    cost_bucket, estimate_conjunct, expected_chain_cost, order_conjuncts, ConjunctEstimate,
};
use ids_udf::{plan_count_based, plan_throughput_based, Expr, ProfileTable, UdfValue};
use proptest::prelude::*;

fn udf_conjunct(name: String) -> Expr {
    Expr::cmp(CmpOp::Ge, Expr::udf(name, vec![Expr::var("x")]), Expr::Const(UdfValue::F64(0.5)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// order_conjuncts always returns a permutation of the input indices.
    #[test]
    fn reorder_is_a_permutation(
        costs in proptest::collection::vec(1.0e-6f64..100.0, 1..12),
    ) {
        let names: Vec<String> = (0..costs.len()).map(|i| format!("u{i}")).collect();
        let mut profiles = ProfileTable::new(1);
        names.iter().for_each(|n| profiles.intern(n));
        let mut row = profiles.row_mut(0);
        for (name, &c) in names.iter().zip(&costs) {
            row.record_call(name, c);
        }
        let conjuncts: Vec<Expr> = names.into_iter().map(udf_conjunct).collect();
        let order = order_conjuncts(&conjuncts, profiles.row(0), |_| 1.0, 0.5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..conjuncts.len()).collect::<Vec<_>>());
    }

    /// The comparator is a total order: the produced order is a
    /// permutation that exactly matches an independent sort by the key
    /// `(cost band, -rejection, original index)` — no strict-weak-ordering
    /// violations, no dependence on input arrangement.
    #[test]
    fn reorder_is_comparator_consistent(
        profile in proptest::collection::vec((1.0e-6f64..100.0, 0u8..=10), 1..12),
    ) {
        let names: Vec<String> = (0..profile.len()).map(|i| format!("u{i}")).collect();
        let mut profiles = ProfileTable::new(1);
        names.iter().for_each(|n| profiles.intern(n));
        let mut row = profiles.row_mut(0);
        for (name, &(cost, rejected_of_10)) in names.iter().zip(&profile) {
            for _ in 0..10 {
                row.record_call(name, cost);
            }
            for _ in 0..rejected_of_10 {
                row.record_rejection(name);
            }
        }
        let conjuncts: Vec<Expr> = names.into_iter().map(udf_conjunct).collect();
        let order = order_conjuncts(&conjuncts, profiles.row(0), |_| 1.0, 0.5);

        // Permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &(0..conjuncts.len()).collect::<Vec<_>>());

        // Consistent with the documented total-order key.
        let est: Vec<ConjunctEstimate> = conjuncts
            .iter()
            .map(|e| estimate_conjunct(e, profiles.row(0), |_| 1.0, 0.5))
            .collect();
        let mut expect: Vec<usize> = (0..est.len()).collect();
        expect.sort_by(|&a, &b| {
            cost_bucket(est[a].cost)
                .cmp(&cost_bucket(est[b].cost))
                .then_with(|| est[b].rejection.total_cmp(&est[a].rejection))
                .then_with(|| a.cmp(&b))
        });
        prop_assert_eq!(order, expect);
    }

    /// With equal rejection rates, the planner's order is optimal in
    /// expectation: no other permutation has lower expected chain cost.
    /// (Checked exhaustively for up to 5 conjuncts.)
    #[test]
    fn planner_order_is_cost_optimal_for_uniform_selectivity(
        costs in proptest::collection::vec(1.0e-3f64..100.0, 2..6),
    ) {
        let est: Vec<ConjunctEstimate> = costs
            .iter()
            .map(|&c| ConjunctEstimate { cost: c, rejection: 0.5 })
            .collect();
        // Planner order = ascending cost for uniform rejection.
        let mut planner: Vec<usize> = (0..est.len()).collect();
        planner.sort_by(|&a, &b| est[a].cost.total_cmp(&est[b].cost));
        let planner_cost = expected_chain_cost(&est, &planner);

        // Exhaustive check over all permutations.
        let mut idx: Vec<usize> = (0..est.len()).collect();
        let mut best = f64::INFINITY;
        permute(&mut idx, 0, &mut |perm| {
            let c = expected_chain_cost(&est, perm);
            if c < best {
                best = c;
            }
        });
        prop_assert!(planner_cost <= best + 1e-9, "planner {planner_cost} vs best {best}");
    }

    /// estimate_conjunct falls back to priors for unseen UDFs and to
    /// profiles once data exists.
    #[test]
    fn estimates_prefer_profiles(cost in 1.0e-4f64..10.0, prior in 1.0e-4f64..10.0) {
        let mut p = ProfileTable::new(1);
        p.intern("u");
        let e_prior = estimate_conjunct(&udf_conjunct("u".into()), p.row(0), |_| prior, 0.5);
        prop_assert!((e_prior.cost - prior).abs() < 1e-12);
        p.row_mut(0).record_call("u", cost);
        let e_prof = estimate_conjunct(&udf_conjunct("u".into()), p.row(0), |_| prior, 0.5);
        prop_assert!((e_prof.cost - cost).abs() < 1e-12);
    }

    /// Throughput plans dominate count plans: the estimated completion of
    /// the throughput plan is never worse (up to rounding slack).
    #[test]
    fn throughput_plan_never_loses(
        total in 1u64..500_000,
        rates in proptest::collection::vec(1.0f64..1000.0, 1..40),
    ) {
        let thr = plan_throughput_based(total, &rates);
        let cnt = plan_count_based(total, rates.len());
        let t_thr = ids_udf::estimate_completion(&thr, &rates);
        let t_cnt = ids_udf::estimate_completion(&cnt, &rates);
        // Rounding can cost at most one solution on the slowest rank.
        let slack = 1.0 / rates.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(t_thr <= t_cnt + slack, "throughput {t_thr} vs count {t_cnt}");
    }
}

fn permute(idx: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == idx.len() {
        f(idx);
        return;
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        permute(idx, k + 1, f);
        idx.swap(k, i);
    }
}

//! Solution re-balancing (§2.4.2).
//!
//! Before a FILTER with UDFs, IDS decides how many intermediate solutions
//! each rank should process. Vanilla re-balancing splits by count; but UDF
//! execution speed varies across ranks (hardware, data shard), so IDS uses
//! measured throughput:
//!
//! 1. each rank estimates solutions/second,
//! 2. compute each rank's ratio to the slowest,
//! 3. if all ranks are within ~20 % of the slowest, fall back to
//!    count-based splitting,
//! 4. otherwise give each rank `chunk_size × rank_ratio` solutions, where
//!    `chunk_size = total_solutions / Σ ratios`.
//!
//! The paper's worked example (1.4 M solutions, 900 ranks at 100/200/300
//! ops/s) appears verbatim in the tests; note its printed arithmetic has a
//! factor-of-10 slip (1.4 M / 1.4 K = 1 K, not 10 K) — we implement the
//! self-consistent version, which preserves the claimed ~1.4× speed-up of
//! throughput-based over count-based balancing.

/// Relative-throughput window treated as "similar" (paper: within ~20 % of
/// the slowest rank).
pub const SIMILAR_THROUGHPUT_TOLERANCE: f64 = 0.2;

/// Which strategy the planner chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceStrategy {
    CountBased,
    ThroughputBased,
}

/// A re-balancing decision: per-rank target solution counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan {
    pub strategy: RebalanceStrategy,
    /// Target number of solutions for each rank (sums to the input total).
    pub targets: Vec<u64>,
}

impl RebalancePlan {
    /// Total solutions assigned.
    pub fn total(&self) -> u64 {
        self.targets.iter().sum()
    }
}

/// Count-based split: as even as possible (largest-remainder).
pub fn plan_count_based(total: u64, ranks: usize) -> RebalancePlan {
    assert!(ranks > 0, "need at least one rank");
    let base = total / ranks as u64;
    let extra = (total % ranks as u64) as usize;
    let targets = (0..ranks).map(|i| base + u64::from(i < extra)).collect();
    RebalancePlan { strategy: RebalanceStrategy::CountBased, targets }
}

/// Throughput-based split per the paper's algorithm. `rates[r]` is rank
/// r's estimated solutions/second. Falls back to count-based when all
/// ranks are within [`SIMILAR_THROUGHPUT_TOLERANCE`] of the slowest.
///
/// # Panics
/// Panics if `rates` is empty or any rate is non-positive/non-finite.
pub fn plan_throughput_based(total: u64, rates: &[f64]) -> RebalancePlan {
    assert!(!rates.is_empty(), "need at least one rank");
    assert!(rates.iter().all(|r| r.is_finite() && *r > 0.0), "rates must be positive and finite");
    let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let fastest = rates.iter().copied().fold(0.0, f64::max);

    // Similar throughput everywhere → count-based is as good and cheaper
    // to compute/communicate.
    if fastest <= slowest * (1.0 + SIMILAR_THROUGHPUT_TOLERANCE) {
        return plan_count_based(total, rates.len());
    }

    // chunk_size = total / Σ ratios; rank r gets chunk_size * ratio_r.
    let ratio = |r: f64| r / slowest;
    let ratio_sum: f64 = rates.iter().map(|&r| ratio(r)).sum();
    let chunk = total as f64 / ratio_sum;

    // Largest-remainder rounding so targets sum exactly to `total`: the
    // `k` largest fractional parts get one more each. `total_cmp`, then
    // the rank index, is a strict total order, so the top-`k` set is
    // unique and a selection finds the same set a full sort would.
    let mut targets: Vec<u64> = Vec::with_capacity(rates.len());
    let mut remainder: Vec<(usize, f64)> = Vec::with_capacity(rates.len());
    for (i, &r) in rates.iter().enumerate() {
        let ideal = chunk * ratio(r);
        targets.push(ideal.floor() as u64);
        remainder.push((i, ideal - ideal.floor()));
    }
    let assigned: u64 = targets.iter().sum();
    let larger = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    // Float error can leave `k` at the rank count or past it: every rank
    // then takes whole rounds, and the largest `k mod ranks` one more.
    let k = total - assigned;
    let (rounds, extra) = (k / rates.len() as u64, (k % rates.len() as u64) as usize);
    if extra > 0 {
        remainder.select_nth_unstable_by(extra - 1, larger);
    }
    for (i, _) in &remainder[..extra] {
        targets[*i] += 1;
    }
    if rounds > 0 {
        targets.iter_mut().for_each(|t| *t += rounds);
    }

    RebalancePlan { strategy: RebalanceStrategy::ThroughputBased, targets }
}

/// Estimated completion time of a plan: the slowest rank's
/// `assigned / rate` — UDF evaluations are rank-independent, so the phase
/// is bounded by its slowest participant.
pub fn estimate_completion(plan: &RebalancePlan, rates: &[f64]) -> f64 {
    plan.targets.iter().zip(rates).map(|(&n, &r)| n as f64 / r).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's §2.4.2 worked example: 1.4 M solutions over 900 ranks —
    /// 500 ranks at 100 ops/s, 300 at 200, 100 at 300.
    fn paper_example() -> (u64, Vec<f64>) {
        let mut rates = vec![100.0; 500];
        rates.extend(vec![200.0; 300]);
        rates.extend(vec![300.0; 100]);
        (1_400_000, rates)
    }

    #[test]
    fn paper_example_allocates_by_ratio() {
        let (total, rates) = paper_example();
        let plan = plan_throughput_based(total, &rates);
        assert_eq!(plan.strategy, RebalanceStrategy::ThroughputBased);
        assert_eq!(plan.total(), total);
        // Σ ratios = 500·1 + 300·2 + 100·3 = 1400 → chunk = 1000.
        assert_eq!(plan.targets[0], 1000, "slowest ranks get chunk_size");
        assert_eq!(plan.targets[500], 2000, "2x ranks get 2·chunk_size");
        assert_eq!(plan.targets[800], 3000, "3x ranks get 3·chunk_size");
    }

    #[test]
    fn paper_example_speedup_over_count_based() {
        let (total, rates) = paper_example();
        let thr = plan_throughput_based(total, &rates);
        let cnt = plan_count_based(total, rates.len());
        let t_thr = estimate_completion(&thr, &rates);
        let t_cnt = estimate_completion(&cnt, &rates);
        // Balanced: every rank finishes in chunk/rate = 1000/100 = 10 s.
        assert!((t_thr - 10.0).abs() < 0.02, "throughput-based {t_thr}");
        // Count-based: slowest rank gets ~1556 solutions at 100 ops/s.
        assert!((t_cnt - 15.56).abs() < 0.05, "count-based {t_cnt}");
        // The paper's claimed shape: throughput-based is ~1.4x faster.
        let speedup = t_cnt / t_thr;
        assert!((1.3..1.7).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn similar_throughput_short_circuits_to_count_based() {
        // All ranks within 20% of the slowest.
        let rates = vec![100.0, 105.0, 110.0, 119.9];
        let plan = plan_throughput_based(1000, &rates);
        assert_eq!(plan.strategy, RebalanceStrategy::CountBased);
        assert_eq!(plan.targets, vec![250, 250, 250, 250]);
    }

    #[test]
    fn just_over_tolerance_triggers_throughput_plan() {
        let rates = vec![100.0, 121.0];
        let plan = plan_throughput_based(1000, &rates);
        assert_eq!(plan.strategy, RebalanceStrategy::ThroughputBased);
        assert!(plan.targets[1] > plan.targets[0]);
        assert_eq!(plan.total(), 1000);
    }

    #[test]
    fn count_based_distributes_remainder() {
        let plan = plan_count_based(10, 3);
        assert_eq!(plan.targets, vec![4, 3, 3]);
        assert_eq!(plan.total(), 10);
    }

    #[test]
    fn totals_are_exact_under_awkward_ratios() {
        // Rates that produce non-integer ideals.
        let rates = vec![100.0, 137.0, 211.0, 999.0];
        for total in [1u64, 7, 1000, 999_983] {
            let plan = plan_throughput_based(total, &rates);
            assert_eq!(plan.total(), total, "total {total}");
        }
    }

    #[test]
    fn faster_ranks_never_get_less() {
        let rates = vec![100.0, 150.0, 300.0, 1000.0];
        let plan = plan_throughput_based(100_000, &rates);
        for w in plan.targets.windows(2) {
            assert!(w[0] <= w[1], "monotone in rate: {:?}", plan.targets);
        }
    }

    #[test]
    fn zero_solutions_is_fine() {
        let plan = plan_throughput_based(0, &[100.0, 300.0]);
        assert_eq!(plan.total(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_rate_rejected() {
        plan_throughput_based(10, &[100.0, 0.0]);
    }

    #[test]
    fn single_rank_gets_everything() {
        let plan = plan_throughput_based(42, &[123.0]);
        assert_eq!(plan.targets, vec![42]);
    }

    /// The largest-remainder rounding as a full sort: every fractional
    /// part ordered by (`total_cmp` descending, rank index), then one more
    /// solution each to the first `total − assigned`, wrapping round.
    /// [`plan_throughput_based`]'s selection must give the same targets.
    fn sorted_targets(total: u64, rates: &[f64]) -> Vec<u64> {
        let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let fastest = rates.iter().copied().fold(0.0, f64::max);
        if fastest <= slowest * (1.0 + SIMILAR_THROUGHPUT_TOLERANCE) {
            return plan_count_based(total, rates.len()).targets;
        }
        let ratios: Vec<f64> = rates.iter().map(|r| r / slowest).collect();
        let ratio_sum: f64 = ratios.iter().sum();
        let chunk = total as f64 / ratio_sum;
        let ideal: Vec<f64> = ratios.iter().map(|r| chunk * r).collect();
        let mut targets: Vec<u64> = ideal.iter().map(|x| x.floor() as u64).collect();
        let assigned: u64 = targets.iter().sum();
        let mut remainder: Vec<(usize, f64)> =
            ideal.iter().enumerate().map(|(i, x)| (i, x - x.floor())).collect();
        remainder.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in 0..(total - assigned) as usize {
            targets[remainder[k % remainder.len()].0] += 1;
        }
        targets
    }

    /// The solutions the rounding hands out one by one: `total` less the
    /// sum of the floored ideals.
    fn handed_out(total: u64, rates: &[f64]) -> u64 {
        let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio_sum: f64 = rates.iter().map(|r| r / slowest).sum();
        let chunk = total as f64 / ratio_sum;
        total - rates.iter().map(|r| (chunk * (r / slowest)).floor() as u64).sum::<u64>()
    }

    #[test]
    fn selection_equals_the_sort_at_its_edges() {
        // k = 0: every ideal is whole (ratios 1 and 2, chunk 100).
        let rates = [100.0, 200.0];
        assert_eq!(handed_out(300, &rates), 0);
        assert_eq!(plan_throughput_based(300, &rates).targets, [100, 200]);
        // k = ranks − 1: ratios 1, 3, 3, 3 and chunk 1.3 leave 1.3, 3.9,
        // 3.9, 3.9, three of whose fractional parts take one more.
        let rates = [100.0, 300.0, 300.0, 300.0];
        assert_eq!(handed_out(13, &rates), 3);
        assert_eq!(plan_throughput_based(13, &rates).targets, [1, 4, 4, 4]);
        // Ties: 900 equal fractional parts go to the lowest ranks first.
        let (total, rates) = (1_400_001, paper_example().1);
        let plan = plan_throughput_based(total, &rates);
        assert_eq!(plan.targets, sorted_targets(total, &rates));
        // The count-based fallback, with its own remainder.
        let rates = [100.0, 110.0, 119.0];
        assert_eq!(plan_throughput_based(1001, &rates).targets, [334, 334, 333]);
        for (total, rates) in [
            (300, &[100.0, 200.0][..]),
            (13, &[100.0, 300.0, 300.0, 300.0]),
            (1001, &[100.0, 110.0, 119.0]),
            (0, &[100.0, 300.0]),
        ] {
            assert_eq!(plan_throughput_based(total, rates).targets, sorted_targets(total, rates));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On random rates — drawn often from three values, so fractional
        /// parts tie, and over up to 2 048 ranks — the selection gives
        /// the sort's targets, whatever `total − assigned` is.
        #[test]
        fn selection_gives_the_sorted_targets(
            total in 0u64..3_000_000,
            rates in proptest::collection::vec(
                prop_oneof![Just(100.0), Just(200.0), Just(300.0), 1.0f64..1000.0],
                1..2049,
            ),
            similar in 0u8..4,
        ) {
            // One case in four keeps every rank within the tolerance.
            let rates: Vec<f64> = if similar == 0 {
                rates.iter().map(|r| 100.0 + r / 100.0).collect()
            } else {
                rates
            };
            let plan = plan_throughput_based(total, &rates);
            prop_assert_eq!(plan.targets, sorted_targets(total, &rates));
        }
    }
}

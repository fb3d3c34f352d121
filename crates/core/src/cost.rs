//! The join-order cost model (DESIGN.md §5l).
//!
//! Scores *full join orders* instead of the static planner's cheapest-first
//! heuristic. The model is classic System-R-style arithmetic over the
//! statistics embedded in each [`PhysicalPattern`] at lowering time:
//!
//! * A pattern scans `est_cardinality` rows.
//! * Joining an accumulated intermediate `R` with pattern `S` on shared
//!   variables `V` estimates `|R ⋈ S| = |R|·|S| / Π_{v∈V} max(ndv_R(v),
//!   ndv_S(v))` — the textbook containment-of-values assumption, with the
//!   per-variable NDVs coming from the KMV sketches in the statistics
//!   catalog (or defaulting to the pattern cardinality when no catalog
//!   was supplied, i.e. the all-distinct worst case).
//! * The cost of an order is the sum of intermediate result sizes
//!   (`C_out`), the usual proxy for total join work.
//!
//! Because the accumulated NDV of a variable is the *minimum* across the
//! patterns joined so far, the estimated size of a pattern subset is
//! independent of the order it was joined in — which is what makes the
//! bitmask DP below well-posed (cost of a subset = rows of its prefixes,
//! each a pure function of the prefix *set*).
//!
//! Orders are constrained to be *connected-first*, mirroring the static
//! planner: a disconnected (cross-product) extension is only legal when no
//! remaining pattern shares a variable with the bound set. ≤
//! [`DP_MAX_PATTERNS`] patterns get an exact DP over that order space;
//! larger queries (and mid-query suffix re-planning, which seeds the
//! estimate with *observed* rows) use the greedy cost-based variant. All
//! tie-breaks are deterministic and documented on each function.

use crate::planner::PhysicalPattern;
use ids_udf::reorder::estimate_conjunct;
use ids_udf::{Expr, ProfileRow};
use std::collections::BTreeMap;

/// Largest pattern count planned with the exact bitmask DP; beyond this
/// the greedy cost-based order is used (2^n subsets get expensive, and
/// queries this wide are join-order-robust anyway).
pub const DP_MAX_PATTERNS: usize = 8;

/// Ceiling applied to row estimates so pathological chains of cross
/// products saturate instead of overflowing to infinity.
const MAX_ROWS: f64 = 1.0e30;

/// Variables of a pattern with duplicates removed (a variable can occupy
/// two positions of one pattern, e.g. `?x <p> ?x`).
fn distinct_vars(p: &PhysicalPattern) -> Vec<&str> {
    let mut vars = p.variables();
    vars.dedup(); // positions are adjacent in the returned order
    let mut out = Vec::with_capacity(vars.len());
    for v in vars {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// NDV of `var` within pattern `p`: the minimum across the positions
/// binding it, clamped to `[1, est_cardinality]` (a column cannot have
/// more distinct values than rows, nor fewer than one in a non-empty
/// relation).
pub fn pattern_ndv(p: &PhysicalPattern, var: &str) -> f64 {
    let card = (p.est_cardinality as f64).max(1.0);
    let mut ndv = f64::INFINITY;
    if p.var_s.as_deref() == Some(var) {
        ndv = ndv.min(p.ndv_s);
    }
    if p.var_p.as_deref() == Some(var) {
        ndv = ndv.min(p.ndv_p);
    }
    if p.var_o.as_deref() == Some(var) {
        ndv = ndv.min(p.ndv_o);
    }
    if !ndv.is_finite() {
        return 1.0;
    }
    ndv.clamp(1.0, card)
}

/// The running estimate for a join prefix: output rows plus per-variable
/// NDVs of the accumulated intermediate.
#[derive(Debug, Clone, Default)]
pub struct JoinEstimate {
    /// Estimated rows of the intermediate (meaningless until `started`).
    pub rows: f64,
    /// Accumulated NDV per bound variable (minimum across joined
    /// patterns — the containment assumption's surviving-values count).
    pub ndv: BTreeMap<String, f64>,
    started: bool,
}

impl JoinEstimate {
    /// An empty prefix (nothing joined yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed from an *observed* intermediate: `rows` actual rows with the
    /// given per-variable NDV bounds (each clamped to `[1, rows]`). This
    /// is how mid-query re-planning replaces the estimate for the
    /// already-executed prefix with ground truth.
    pub fn observed(rows: f64, ndv: BTreeMap<String, f64>) -> Self {
        let rows = rows.clamp(0.0, MAX_ROWS);
        let cap = rows.max(1.0);
        let ndv = ndv.into_iter().map(|(k, v)| (k, v.clamp(1.0, cap))).collect();
        Self { rows, ndv, started: true }
    }

    /// Does `p` share a variable with the prefix?
    pub fn connected_to(&self, p: &PhysicalPattern) -> bool {
        p.variables().iter().any(|v| self.ndv.contains_key(*v))
    }

    /// Join one more pattern into the prefix; returns the estimated output
    /// rows. NDVs are deliberately *not* re-capped against the shrinking
    /// row estimate — keeping the fold order-independent (see module docs)
    /// matters more than the tighter bound.
    pub fn push(&mut self, p: &PhysicalPattern) -> f64 {
        let card = (p.est_cardinality as f64).min(MAX_ROWS);
        if !self.started {
            self.started = true;
            self.rows = card;
            for v in distinct_vars(p) {
                self.ndv.insert(v.to_string(), pattern_ndv(p, v));
            }
            return self.rows;
        }
        let mut denom = 1.0f64;
        for v in distinct_vars(p) {
            if let Some(&acc) = self.ndv.get(v) {
                denom *= acc.max(pattern_ndv(p, v));
            }
        }
        self.rows = (self.rows * card / denom.max(1.0)).min(MAX_ROWS);
        for v in distinct_vars(p) {
            let nv = pattern_ndv(p, v);
            self.ndv.entry(v.to_string()).and_modify(|acc| *acc = acc.min(nv)).or_insert(nv);
        }
        self.rows
    }
}

/// Cost of executing `order` (indices into `patterns`) from the optional
/// `seed` prefix: returns `(total cost, rows after each step)`. Cost is
/// the sum of intermediate sizes including the first scan.
pub fn order_cost(
    patterns: &[PhysicalPattern],
    order: &[usize],
    seed: Option<&JoinEstimate>,
) -> (f64, Vec<f64>) {
    let mut est = seed.cloned().unwrap_or_default();
    let mut cost = 0.0f64;
    let mut rows_after = Vec::with_capacity(order.len());
    for &i in order {
        let r = est.push(&patterns[i]);
        cost = (cost + r).min(MAX_ROWS);
        rows_after.push(r);
    }
    (cost, rows_after)
}

/// Exact join-order DP over all connected-first orders; `None` when the
/// query is wider than [`DP_MAX_PATTERNS`]. Ties on cost break toward the
/// lexicographically smaller index sequence, so the chosen order is a
/// deterministic function of the pattern list alone.
pub fn order_patterns_dp(patterns: &[PhysicalPattern]) -> Option<Vec<usize>> {
    let n = patterns.len();
    if n > DP_MAX_PATTERNS {
        return None;
    }
    if n <= 1 {
        return Some((0..n).collect());
    }
    // Intern variables into a bitmask per pattern.
    let mut var_ids: BTreeMap<&str, usize> = BTreeMap::new();
    for p in patterns {
        for v in distinct_vars(p) {
            let next = var_ids.len();
            var_ids.entry(v).or_insert(next);
        }
    }
    let vmask: Vec<u64> = patterns
        .iter()
        .map(|p| distinct_vars(p).iter().fold(0u64, |m, v| m | (1u64 << var_ids[v])))
        .collect();

    let full = (1usize << n) - 1;
    let mut best: Vec<Option<(f64, Vec<usize>)>> = vec![None; 1 << n];
    best[0] = Some((0.0, Vec::new()));
    for mask in 0..full {
        let Some((cost, order)) = best[mask].clone() else { continue };
        let bound: u64 = order.iter().fold(0u64, |m, &i| m | vmask[i]);
        // Connected-first: an extension disconnected from the bound set is
        // only legal when *no* remaining pattern connects to it.
        let any_connected =
            mask != 0 && (0..n).any(|j| mask & (1 << j) == 0 && vmask[j] & bound != 0);
        for j in 0..n {
            if mask & (1 << j) != 0 {
                continue;
            }
            let connected = vmask[j] & bound != 0;
            if any_connected && !connected {
                continue;
            }
            // Rows of a subset are order-independent (module docs), so
            // folding the recorded order then `j` prices mask|1<<j exactly.
            let mut est = JoinEstimate::new();
            for &i in &order {
                est.push(&patterns[i]);
            }
            let r = est.push(&patterns[j]);
            let cand_cost = (cost + r).min(MAX_ROWS);
            let next = mask | (1 << j);
            let mut cand = order.clone();
            cand.push(j);
            let better = match &best[next] {
                None => true,
                Some((c, o)) => cand_cost < *c || (cand_cost == *c && cand < *o),
            };
            if better {
                best[next] = Some((cand_cost, cand));
            }
        }
    }
    best[full].take().map(|(_, o)| o)
}

/// Greedy cost-based order over `candidates` (indices into `patterns`),
/// optionally seeded with an executed prefix. At each step the legal
/// (connected-first) extension with the smallest estimated output is
/// taken; ties break on `(est_cardinality, index)` — the same explicit
/// tie-break the static planner documents, so equal-cost plans do not
/// depend on floating-point noise.
pub fn order_patterns_greedy_cost(
    patterns: &[PhysicalPattern],
    candidates: &[usize],
    seed: Option<&JoinEstimate>,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = candidates.to_vec();
    let mut est = seed.cloned().unwrap_or_default();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let any_connected = remaining.iter().any(|&i| est.connected_to(&patterns[i]));
        let mut chosen: Option<(f64, usize, usize, usize)> = None; // (rows, card, idx, pos)
        for (pos, &i) in remaining.iter().enumerate() {
            if any_connected && !est.connected_to(&patterns[i]) {
                continue;
            }
            let mut probe = est.clone();
            let r = probe.push(&patterns[i]);
            let better = match chosen {
                None => true,
                Some((br, bc, bi, _)) => {
                    r < br || (r == br && (patterns[i].est_cardinality, i) < (bc, bi))
                }
            };
            if better {
                chosen = Some((r, patterns[i].est_cardinality, i, pos));
            }
        }
        let Some((_, _, idx, pos)) = chosen else { break };
        remaining.remove(pos);
        est.push(&patterns[idx]);
        order.push(idx);
    }
    order
}

/// Choose a full join order: exact DP up to [`DP_MAX_PATTERNS`], greedy
/// cost-based beyond.
pub fn choose_order(patterns: &[PhysicalPattern]) -> Vec<usize> {
    match order_patterns_dp(patterns) {
        Some(order) => order,
        None => {
            let all: Vec<usize> = (0..patterns.len()).collect();
            order_patterns_greedy_cost(patterns, &all, None)
        }
    }
}

/// Re-plan the suffix after `prefix_len` patterns have executed and
/// produced `observed_rows` rows: seeds the estimate with the observed
/// count (NDVs of bound variables capped by it) and greedily orders the
/// remaining patterns. Returns `(suffix order — indices into `patterns`,
/// estimated rows after each remaining step)`.
pub fn replan_suffix(
    patterns: &[PhysicalPattern],
    prefix_len: usize,
    observed_rows: u64,
) -> (Vec<usize>, Vec<f64>) {
    let mut prefix = JoinEstimate::new();
    for p in patterns.iter().take(prefix_len) {
        prefix.push(p);
    }
    let seed = JoinEstimate::observed(observed_rows as f64, prefix.ndv);
    let rest: Vec<usize> = (prefix_len..patterns.len()).collect();
    let order = order_patterns_greedy_cost(patterns, &rest, Some(&seed));
    let (_, rows_after) = order_cost(patterns, &order, Some(&seed));
    (order, rows_after)
}

/// Estimated rows surviving the WHERE filter, priced from historical UDF
/// selectivity profiles (unknown UDFs and pure comparisons fall back to a
/// neutral 0.5 rejection prior, matching `ids_udf::reorder`).
pub fn estimate_where_rows(bgp_rows: f64, filter: Option<&Expr>, udf: ProfileRow<'_>) -> f64 {
    let Some(filter) = filter else { return bgp_rows };
    let conjuncts: Vec<Expr> = match filter {
        Expr::And(cs) => cs.clone(),
        other => vec![other.clone()],
    };
    let mut rows = bgp_rows;
    for c in &conjuncts {
        let est = estimate_conjunct(c, udf, |_| 0.0, 0.5);
        rows *= 1.0 - est.rejection.clamp(0.0, 1.0);
    }
    rows.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_graph::TriplePattern;

    fn pat(card: usize, vars: [Option<&str>; 3], ndv: [f64; 3]) -> PhysicalPattern {
        PhysicalPattern {
            pattern: TriplePattern::new(None, None, None),
            var_s: vars[0].map(str::to_string),
            var_p: vars[1].map(str::to_string),
            var_o: vars[2].map(str::to_string),
            impossible: card == 0,
            est_cardinality: card,
            ndv_s: ndv[0],
            ndv_p: ndv[1],
            ndv_o: ndv[2],
        }
    }

    #[test]
    fn subset_rows_are_order_independent() {
        let ps = vec![
            pat(100, [Some("a"), None, Some("b")], [40.0, 1.0, 25.0]),
            pat(500, [Some("b"), None, Some("c")], [25.0, 1.0, 400.0]),
            pat(30, [Some("c"), None, Some("a")], [30.0, 1.0, 10.0]),
        ];
        let orders = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0], [0, 2, 1], [1, 0, 2]];
        let mut finals = Vec::new();
        for o in orders {
            let (_, rows) = order_cost(&ps, &o, None);
            finals.push(rows[2]);
        }
        for w in finals.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-6 * w[0].abs().max(1.0),
                "final size depends on order: {finals:?}"
            );
        }
    }

    #[test]
    fn dp_prefers_low_ndv_aware_order() {
        // p0 and p1 share `b` with NDV 2 on *both* sides — their join
        // explodes (50·60/2 = 1500 rows). Cardinality-greedy seeds with
        // p0 (cheapest) and must then take connected p1, paying the
        // explosion mid-plan; the cost model defers it to the end.
        let ps = vec![
            pat(50, [Some("a"), None, Some("b")], [50.0, 1.0, 2.0]),
            pat(60, [Some("b"), None, Some("c")], [2.0, 1.0, 60.0]),
            pat(70, [Some("c"), None, Some("d")], [70.0, 1.0, 70.0]),
        ];
        let dp = order_patterns_dp(&ps).expect("≤8 patterns");
        let (dp_cost, _) = order_cost(&ps, &dp, None);
        // The static heuristic's order: cheapest seed, cheapest connected.
        let (naive_cost, _) = order_cost(&ps, &[0, 1, 2], None);
        assert!(dp_cost < naive_cost, "dp {dp_cost} vs naive {naive_cost} ({dp:?})");
        assert_ne!(dp[1], 1, "the exploding join must not run second: {dp:?}");
    }

    #[test]
    fn dp_and_greedy_never_cross_product_when_connected() {
        let ps = vec![
            pat(10, [Some("a"), None, Some("b")], [10.0, 1.0, 10.0]),
            pat(10, [Some("c"), None, Some("d")], [10.0, 1.0, 10.0]),
            pat(10, [Some("b"), None, Some("c")], [10.0, 1.0, 10.0]),
        ];
        for order in [
            order_patterns_dp(&ps).expect("≤8 patterns"),
            order_patterns_greedy_cost(&ps, &[0, 1, 2], None),
        ] {
            let mut bound: Vec<&str> = ps[order[0]].variables();
            for &i in &order[1..] {
                let vars = ps[i].variables();
                assert!(vars.iter().any(|v| bound.contains(v)), "disconnected step in {order:?}");
                bound.extend(vars);
            }
        }
    }

    #[test]
    fn dp_at_most_greedy_cost() {
        let ps = vec![
            pat(500, [Some("a"), None, Some("b")], [100.0, 1.0, 500.0]),
            pat(300, [Some("b"), None, Some("c")], [3.0, 1.0, 300.0]),
            pat(200, [Some("c"), None, Some("d")], [200.0, 1.0, 10.0]),
            pat(100, [Some("d"), None, Some("a")], [100.0, 1.0, 100.0]),
        ];
        let dp = order_patterns_dp(&ps).expect("≤8 patterns");
        let greedy = order_patterns_greedy_cost(&ps, &[0, 1, 2, 3], None);
        let (cd, _) = order_cost(&ps, &dp, None);
        let (cg, _) = order_cost(&ps, &greedy, None);
        assert!(cd <= cg + 1e-9, "dp {cd} must not exceed greedy {cg}");
    }

    #[test]
    fn replan_seeds_with_observed_rows() {
        let ps = vec![
            pat(10, [Some("a"), None, Some("b")], [10.0, 1.0, 10.0]),
            pat(100, [Some("b"), None, Some("c")], [10.0, 1.0, 100.0]),
            pat(40, [Some("c"), None, Some("d")], [40.0, 1.0, 5.0]),
        ];
        // Pretend pattern 0 executed and produced 10_000 rows (estimate
        // said 10): the suffix re-plan must price joins off 10_000.
        let (order, rows_after) = replan_suffix(&ps, 1, 10_000);
        assert_eq!(order.len(), 2);
        assert!(order.contains(&1) && order.contains(&2));
        assert!(rows_after[0] >= 10_000.0 * 100.0 / 100.0 - 1.0 || rows_after[0] > 0.0);
        let (_, static_rows) = order_cost(&ps, &[1, 2], None);
        assert!(
            rows_after[0] > static_rows[0],
            "observed seed must raise the estimate: {rows_after:?} vs {static_rows:?}"
        );
    }

    #[test]
    fn where_estimate_uses_profiled_rejection_rates() {
        let mut profiles = ids_udf::ProfileTable::new(1);
        profiles.intern("sw");
        let mut prof = profiles.row_mut(0);
        for _ in 0..9 {
            prof.record_call("sw", 0.001);
            prof.record_rejection("sw");
        }
        prof.record_call("sw", 0.001); // 90% rejection
        let filter = Expr::And(vec![Expr::udf("sw", vec![])]);
        let est = estimate_where_rows(1000.0, Some(&filter), profiles.row(0));
        assert!((est - 100.0).abs() < 1.0, "90% rejection → ~100 of 1000, got {est}");
        assert_eq!(estimate_where_rows(1000.0, None, profiles.row(0)), 1000.0);
    }
}

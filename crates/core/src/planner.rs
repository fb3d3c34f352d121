//! Query lowering and planning.
//!
//! Lowers a parsed IQL [`Query`] into a physical plan: ground terms are
//! resolved against the dictionary, triple patterns are ordered greedily by
//! estimated cardinality (cheapest first, preferring patterns connected to
//! already-bound variables, so joins stay selective and cross products are
//! avoided), and filter expressions become `ids_udf::Expr` trees. The
//! *adaptive* parts — per-rank conjunct reordering and throughput
//! re-balancing — happen at execution time in [`crate::engine`], because
//! they depend on each rank's live profiling data (§2.4).

use crate::cost;
use crate::datastore::Datastore;
use crate::iql::ast::{CmpOpAst, ExprAst, Query, StageAst, TermAst, TriplePatternAst};
use crate::stats::StatsCatalog;
use ids_graph::{Term, TriplePattern};
use ids_obs::{Counter, MetricsRegistry};
use ids_udf::expr::CmpOp;
use ids_udf::{Expr, UdfValue};
use std::sync::OnceLock;

/// Planning failure.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    pub message: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

/// A lowered triple pattern, ready for shard scans.
#[derive(Debug, Clone)]
pub struct PhysicalPattern {
    /// The encoded pattern (bound positions resolved to ids).
    pub pattern: TriplePattern,
    /// Variable names for unbound positions.
    pub var_s: Option<String>,
    pub var_p: Option<String>,
    pub var_o: Option<String>,
    /// True when a ground term is absent from the dictionary — the pattern
    /// can match nothing.
    pub impossible: bool,
    /// Estimated global cardinality (used for join ordering):
    /// [`Datastore::pattern_count`], summed over shards with saturating
    /// arithmetic so huge synthetic datasets cannot overflow into a tiny
    /// (wrongly "cheap") estimate.
    pub est_cardinality: usize,
    /// Estimated distinct values per position (subject / predicate /
    /// object), read by the [`crate::cost`] model for join-size
    /// estimates. Populated from the statistics catalog's KMV sketches
    /// when one is supplied; otherwise defaults to `est_cardinality`
    /// (the all-distinct worst case, under which the cost model degrades
    /// to the cardinality heuristic). Only meaningful for positions
    /// holding a variable.
    pub ndv_s: f64,
    pub ndv_p: f64,
    pub ndv_o: f64,
}

impl PhysicalPattern {
    /// Variables this pattern binds.
    pub fn variables(&self) -> Vec<&str> {
        [&self.var_s, &self.var_p, &self.var_o].into_iter().flatten().map(String::as_str).collect()
    }
}

/// A post-WHERE stage in the physical plan.
#[derive(Debug, Clone)]
pub enum PhysicalStage {
    /// Invoke a UDF per solution, binding its output as a new column.
    Apply { udf: String, args: Vec<Expr>, bind_as: String },
    /// Filter the (possibly APPLY-extended) solutions.
    Filter(Expr),
}

/// The executable plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Deduplicate final rows.
    pub distinct: bool,
    /// Patterns in join order.
    pub patterns: Vec<PhysicalPattern>,
    /// The WHERE block's filters, folded into one conjunction (`None` when
    /// there are no filters).
    pub where_filter: Option<Expr>,
    /// Post-WHERE stages in source order.
    pub stages: Vec<PhysicalStage>,
    /// Projection (empty = all variables).
    pub select: Vec<String>,
    /// Ordering: (variable, descending), applied before LIMIT.
    pub order_by: Option<(String, bool)>,
    /// Row limit.
    pub limit: Option<usize>,
    /// Cost-model prediction of the intermediate size after joining
    /// patterns `0..=i` (entry `i`), saturated to `u64`. The engine
    /// compares these against observed counts at each stage boundary —
    /// feeding both the EXPLAIN `estimated vs actual` block and the
    /// adaptive re-planning trigger.
    pub est_rows_after: Vec<u64>,
    /// Predicted rows surviving the WHERE filter, priced from historical
    /// UDF selectivity profiles (equals the final BGP estimate when the
    /// query has no filter).
    pub est_where_rows: u64,
}

fn lower_term(t: &TermAst, ds: &Datastore) -> (Option<ids_graph::TermId>, Option<String>, bool) {
    // Returns (bound id, variable name, impossible).
    match t {
        TermAst::Var(v) => (None, Some(v.clone()), false),
        TermAst::Iri(s) => match ds.dictionary().lookup(&Term::iri(s.clone())) {
            Some(id) => (Some(id), None, false),
            None => (None, None, true),
        },
        TermAst::Str(s) => match ds.dictionary().lookup(&Term::str(s.clone())) {
            Some(id) => (Some(id), None, false),
            None => (None, None, true),
        },
        TermAst::Int(i) => match ds.dictionary().lookup(&Term::Int(*i)) {
            Some(id) => (Some(id), None, false),
            None => (None, None, true),
        },
        TermAst::Float(x) => match ds.dictionary().lookup(&Term::float(*x)) {
            Some(id) => (Some(id), None, false),
            None => (None, None, true),
        },
    }
}

fn lower_pattern(
    p: &TriplePatternAst,
    ds: &Datastore,
    stats: Option<&StatsCatalog>,
) -> PhysicalPattern {
    let (s_id, var_s, imp_s) = lower_term(&p.s, ds);
    let (p_id, var_p, imp_p) = lower_term(&p.p, ds);
    let (o_id, var_o, imp_o) = lower_term(&p.o, ds);
    let impossible = imp_s || imp_p || imp_o;
    let pattern = TriplePattern::new(s_id, p_id, o_id);
    let est_cardinality = if impossible { 0 } else { ds.pattern_count(&pattern) };
    // NDV per position: catalog sketches when available (zero-NDV — an
    // unseen predicate — falls back to the cardinality default), else
    // the all-distinct worst case. The cost model clamps these to
    // `[1, est_cardinality]`, so an over-wide per-predicate sketch on a
    // narrowed pattern stays sane.
    let default_ndv = est_cardinality as f64;
    let (mut ndv_s, mut ndv_p, mut ndv_o) = (default_ndv, default_ndv, default_ndv);
    if let Some(cat) = stats {
        if !impossible {
            let s = cat.subject_ndv(pattern.p);
            let o = cat.object_ndv(pattern.p);
            let pr = cat.predicate_ndv();
            if s > 0.0 {
                ndv_s = s;
            }
            if o > 0.0 {
                ndv_o = o;
            }
            if pr > 0.0 {
                ndv_p = pr;
            }
        }
    }
    PhysicalPattern {
        pattern,
        var_s,
        var_p,
        var_o,
        impossible,
        est_cardinality,
        ndv_s,
        ndv_p,
        ndv_o,
    }
}

fn lower_cmp(op: CmpOpAst) -> CmpOp {
    match op {
        CmpOpAst::Lt => CmpOp::Lt,
        CmpOpAst::Le => CmpOp::Le,
        CmpOpAst::Gt => CmpOp::Gt,
        CmpOpAst::Ge => CmpOp::Ge,
        CmpOpAst::Eq => CmpOp::Eq,
        CmpOpAst::Ne => CmpOp::Ne,
    }
}

/// Lower a filter expression. Ground IRIs become `Id` constants (resolved
/// against the dictionary; unknown IRIs error), literals become typed
/// constants.
pub fn lower_expr(e: &ExprAst, ds: &Datastore) -> Result<Expr, PlanError> {
    Ok(match e {
        ExprAst::Term(TermAst::Var(v)) => Expr::var(v.clone()),
        ExprAst::Term(TermAst::Str(s)) => Expr::Const(UdfValue::Str(s.clone())),
        ExprAst::Term(TermAst::Int(i)) => Expr::Const(UdfValue::I64(*i)),
        ExprAst::Term(TermAst::Float(x)) => Expr::Const(UdfValue::F64(*x)),
        ExprAst::Term(TermAst::Iri(s)) => {
            let id = ds
                .dictionary()
                .lookup(&Term::iri(s.clone()))
                .ok_or_else(|| PlanError { message: format!("unknown IRI <{s}> in filter") })?;
            Expr::Const(UdfValue::Id(id.raw()))
        }
        ExprAst::Cmp(op, a, b) => Expr::cmp(lower_cmp(*op), lower_expr(a, ds)?, lower_expr(b, ds)?),
        ExprAst::And(es) => {
            Expr::And(es.iter().map(|x| lower_expr(x, ds)).collect::<Result<_, _>>()?)
        }
        ExprAst::Or(es) => {
            Expr::Or(es.iter().map(|x| lower_expr(x, ds)).collect::<Result<_, _>>()?)
        }
        ExprAst::Not(inner) => Expr::Not(Box::new(lower_expr(inner, ds)?)),
        ExprAst::Call { name, args } => Expr::udf(
            name.clone(),
            args.iter().map(|x| lower_expr(x, ds)).collect::<Result<_, _>>()?,
        ),
    })
}

/// Greedy connected join order: start from the lowest-cardinality pattern,
/// then repeatedly take the cheapest pattern sharing a variable with the
/// bound set (falling back to the global cheapest when the query graph is
/// disconnected).
///
/// **Tie-breaking is part of the planner contract**: equal-cardinality
/// patterns order by their *source position* — `(est_cardinality, index)`
/// ascending — made explicit in the sort key below rather than relying on
/// sort stability. Downstream identities hang off the chosen order (reuse
/// fingerprint salts, exchange partition keys, checkpoint ordinals), so
/// the tie-break must be deterministic and documented: two textually
/// identical queries must produce byte-identical plans, and a future
/// switch to an unstable sort must not silently reshuffle equal-cost
/// patterns.
pub fn order_patterns(patterns: &[PhysicalPattern]) -> Vec<usize> {
    let n = patterns.len();
    if n == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut bound: Vec<String> = Vec::new();

    // Seed: globally cheapest; ties break on source index (explicitly —
    // see the doc comment).
    remaining.sort_by_key(|&i| (patterns[i].est_cardinality, i));
    let first = remaining.remove(0);
    for v in patterns[first].variables() {
        bound.push(v.to_string());
    }
    order.push(first);

    while !remaining.is_empty() {
        let connected_pos = remaining
            .iter()
            .position(|&i| patterns[i].variables().iter().any(|v| bound.iter().any(|b| b == v)));
        // `remaining` stays sorted by cardinality, so the first connected
        // entry is the cheapest connected one.
        let pos = connected_pos.unwrap_or(0);
        let chosen = remaining.remove(pos);
        for v in patterns[chosen].variables() {
            if !bound.iter().any(|b| b == v) {
                bound.push(v.to_string());
            }
        }
        order.push(chosen);
    }
    order
}

/// The `ids_planner_*` counters of one instance, each looked up in its
/// registry once, by the first lowering that adds to it: an idle instance
/// exports none of them, `ids_planner_filter_conjuncts_total` appears with
/// the first filtered query and `ids_planner_cost_based_plans_total` with
/// the first cost-based plan, as when every lowering looked them up by
/// name.
pub struct PlannerCounters {
    metrics: MetricsRegistry,
    plans: OnceLock<Counter>,
    patterns: OnceLock<Counter>,
    impossible_patterns: OnceLock<Counter>,
    filter_conjuncts: OnceLock<Counter>,
    stages: OnceLock<Counter>,
    cost_based_plans: OnceLock<Counter>,
}

impl PlannerCounters {
    /// Counters that will record into `metrics`; none is registered yet.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            metrics: metrics.clone(),
            plans: OnceLock::new(),
            patterns: OnceLock::new(),
            impossible_patterns: OnceLock::new(),
            filter_conjuncts: OnceLock::new(),
            stages: OnceLock::new(),
            cost_based_plans: OnceLock::new(),
        }
    }

    fn add(&self, cell: &OnceLock<Counter>, name: &'static str, n: u64) {
        cell.get_or_init(|| self.metrics.counter(name)).add(n);
    }

    /// Count one lowering into `plan`.
    fn record(&self, plan: &PhysicalPlan, cost_based: bool) {
        self.add(&self.plans, "ids_planner_plans_total", 1);
        self.add(&self.patterns, "ids_planner_patterns_total", plan.patterns.len() as u64);
        let impossible = plan.patterns.iter().filter(|p| p.impossible).count();
        self.add(
            &self.impossible_patterns,
            "ids_planner_impossible_patterns_total",
            impossible as u64,
        );
        if let Some(Expr::And(cs)) = &plan.where_filter {
            self.add(&self.filter_conjuncts, "ids_planner_filter_conjuncts_total", cs.len() as u64);
        }
        self.add(&self.stages, "ids_planner_stages_total", plan.stages.len() as u64);
        if cost_based {
            self.add(&self.cost_based_plans, "ids_planner_cost_based_plans_total", 1);
        }
    }
}

/// Lower a full query, optionally consulting a statistics catalog. The
/// `ids_planner_*` counters recorded into `counters` count *lowerings
/// performed*: behind `IdsInstance::prepare_run` that is one per
/// prepared-query cache miss (plus one per hit under `exec.adaptive`),
/// not one per query served — `ids_prepared_{hits,misses}_total` carry
/// the per-query view. With a
/// catalog, join ordering switches from the cardinality-greedy heuristic
/// to the [`crate::cost`] model (exact DP up to
/// [`cost::DP_MAX_PATTERNS`] patterns, greedy cost-based beyond) and
/// per-pattern NDVs come from the catalog's KMV sketches; without one the
/// static heuristic is used unchanged. Either way the plan carries the
/// cost model's per-operator row predictions (`est_rows_after`,
/// `est_where_rows`) for the engine's estimate-vs-actual accounting.
pub fn lower_with_stats(
    query: &Query,
    ds: &Datastore,
    stats: Option<&StatsCatalog>,
    counters: Option<&PlannerCounters>,
) -> Result<PhysicalPlan, PlanError> {
    let plan = lower_impl(query, ds, stats)?;
    if let Some(c) = counters {
        c.record(&plan, stats.is_some());
    }
    Ok(plan)
}

/// Lower a full query to a physical plan (static heuristic ordering).
pub fn lower(query: &Query, ds: &Datastore) -> Result<PhysicalPlan, PlanError> {
    lower_impl(query, ds, None)
}

fn lower_impl(
    query: &Query,
    ds: &Datastore,
    stats: Option<&StatsCatalog>,
) -> Result<PhysicalPlan, PlanError> {
    if query.patterns.is_empty() && !query.filters.is_empty() {
        // FILTER with no bindings is legal (constant filters) but useless;
        // allow it — the engine evaluates against an empty row.
    }
    let lowered: Vec<PhysicalPattern> =
        query.patterns.iter().map(|p| lower_pattern(p, ds, stats)).collect();
    let order =
        if stats.is_some() { cost::choose_order(&lowered) } else { order_patterns(&lowered) };
    let mut patterns = Vec::with_capacity(lowered.len());
    let mut slots: Vec<Option<PhysicalPattern>> = lowered.into_iter().map(Some).collect();
    for i in order {
        // `order_patterns` returns a permutation of 0..n; degrade to a
        // typed plan error instead of panicking the planner if that
        // invariant ever breaks (an out-of-range or repeated index).
        let Some(p) = slots.get_mut(i).and_then(Option::take) else {
            return Err(PlanError {
                message: format!(
                    "pattern ordering is not a permutation: index {i} invalid or repeated"
                ),
            });
        };
        patterns.push(p);
    }

    let where_filter = if query.filters.is_empty() {
        None
    } else {
        // Fold every FILTER into one conjunction, flattening nested ANDs
        // (`FILTER(a && b)` and `FILTER(a) FILTER(b)` are equivalent) so
        // the §2.4.3 reorderer sees individual conjuncts.
        let mut conjuncts = Vec::new();
        for f in &query.filters {
            match lower_expr(f, ds)? {
                Expr::And(cs) => conjuncts.extend(cs),
                e => conjuncts.push(e),
            }
        }
        Some(Expr::And(conjuncts))
    };

    let stages = query
        .stages
        .iter()
        .map(|s| {
            Ok(match s {
                StageAst::Apply(a) => PhysicalStage::Apply {
                    udf: a.udf.clone(),
                    args: a.args.iter().map(|x| lower_expr(x, ds)).collect::<Result<_, _>>()?,
                    bind_as: a.bind_as.clone(),
                },
                StageAst::Filter(e) => PhysicalStage::Filter(lower_expr(e, ds)?),
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;

    // Per-operator row predictions over the *final* order (saturating
    // f64 → u64 casts).
    let identity: Vec<usize> = (0..patterns.len()).collect();
    let (_, rows_after) = cost::order_cost(&patterns, &identity, None);
    let est_rows_after: Vec<u64> = rows_after.iter().map(|&r| r.max(0.0) as u64).collect();
    let bgp_rows = match rows_after.last() {
        Some(&r) => r,
        None => 1.0, // pattern-less query: filters run once against the empty row
    };
    let udf_profiles = stats.map(StatsCatalog::udf_profiles).unwrap_or_default();
    let est_where_rows =
        cost::estimate_where_rows(bgp_rows, where_filter.as_ref(), udf_profiles).max(0.0) as u64;

    Ok(PhysicalPlan {
        distinct: query.distinct,
        patterns,
        where_filter,
        stages,
        select: query.select.clone(),
        order_by: query.order_by.as_ref().map(|o| (o.var.clone(), o.descending)),
        limit: query.limit,
        est_rows_after,
        est_where_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iql::parse_query;

    fn demo_ds() -> Datastore {
        let ds = Datastore::new(4);
        // 50 proteins, 10 reviewed; 200 inhibits-edges.
        for i in 0..50 {
            ds.add_fact(
                &Term::iri(format!("p:{i}")),
                &Term::iri("rdf:type"),
                &Term::iri("up:Protein"),
            );
            if i < 10 {
                ds.add_fact(&Term::iri(format!("p:{i}")), &Term::iri("up:reviewed"), &Term::Int(1));
            }
        }
        for c in 0..200 {
            ds.add_fact(
                &Term::iri(format!("c:{c}")),
                &Term::iri("chembl:inhibits"),
                &Term::iri(format!("p:{}", c % 50)),
            );
        }
        ds.build_indexes();
        ds
    }

    #[test]
    fn lowering_resolves_ground_terms() {
        let ds = demo_ds();
        let q = parse_query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        let plan = lower(&q, &ds).unwrap();
        assert_eq!(plan.patterns.len(), 1);
        let p = &plan.patterns[0];
        assert!(!p.impossible);
        assert!(p.pattern.p.is_some());
        assert!(p.pattern.o.is_some());
        assert_eq!(p.var_s.as_deref(), Some("p"));
        assert_eq!(p.est_cardinality, 50);
    }

    #[test]
    fn unknown_ground_term_marks_impossible() {
        let ds = demo_ds();
        let q = parse_query("SELECT ?p WHERE { ?p <rdf:type> <up:Martian> . }").unwrap();
        let plan = lower(&q, &ds).unwrap();
        assert!(plan.patterns[0].impossible);
        assert_eq!(plan.patterns[0].est_cardinality, 0);
    }

    #[test]
    fn selective_pattern_ordered_first() {
        let ds = demo_ds();
        let q = parse_query(
            "SELECT ?p ?c WHERE { ?p <rdf:type> <up:Protein> . ?p <up:reviewed> 1 . ?c <chembl:inhibits> ?p . }",
        )
        .unwrap();
        let plan = lower(&q, &ds).unwrap();
        // reviewed (10) < type (50) < inhibits (200).
        assert_eq!(plan.patterns[0].est_cardinality, 10);
        assert_eq!(plan.patterns[1].est_cardinality, 50);
        assert_eq!(plan.patterns[2].est_cardinality, 200);
    }

    #[test]
    fn join_order_stays_connected() {
        let ds = demo_ds();
        // The cheapest pattern binds ?p; the disconnected ?x pattern is
        // more selective than inhibits but must not split the join graph.
        ds.add_fact(&Term::iri("x:1"), &Term::iri("rare:pred"), &Term::iri("x:2"));
        ds.build_indexes();
        let q = parse_query(
            "SELECT ?p WHERE { ?c <chembl:inhibits> ?p . ?p <up:reviewed> 1 . ?x <rare:pred> ?y . }",
        )
        .unwrap();
        let plan = lower(&q, &ds).unwrap();
        // The cheapest pattern (rare:pred, cardinality 1) seeds the order;
        // after the disconnected fallback picks `reviewed`, the final
        // pattern must connect to it on ?p rather than interleaving another
        // cross product.
        assert!(plan.patterns[0].variables().contains(&"x"));
        let v1 = plan.patterns[1].variables();
        let v2 = plan.patterns[2].variables();
        assert!(v1.iter().any(|v| v2.contains(v)), "{v1:?} vs {v2:?}");
        assert_eq!(plan.patterns[1].est_cardinality, 10, "cheapest connected continuation");
    }

    #[test]
    fn equal_cardinality_ties_break_by_source_index() {
        let ds = demo_ds();
        // Two independent predicates with identical cardinality (10 each).
        for i in 0..10 {
            ds.add_fact(&Term::iri(format!("a:{i}")), &Term::iri("eq:one"), &Term::Int(i));
            ds.add_fact(&Term::iri(format!("b:{i}")), &Term::iri("eq:two"), &Term::Int(i));
        }
        ds.build_indexes();
        // Both source orders: the tie must break on source position, so
        // whichever pattern is written first is planned first.
        let fwd = lower(
            &parse_query("SELECT ?a WHERE { ?a <eq:one> ?x . ?b <eq:two> ?y . }").unwrap(),
            &ds,
        )
        .unwrap();
        assert!(fwd.patterns[0].variables().contains(&"a"), "first-written pattern leads");
        let rev = lower(
            &parse_query("SELECT ?a WHERE { ?b <eq:two> ?y . ?a <eq:one> ?x . }").unwrap(),
            &ds,
        )
        .unwrap();
        assert!(rev.patterns[0].variables().contains(&"b"), "first-written pattern leads");
        // And the same query twice produces the same order (determinism).
        let again = lower(
            &parse_query("SELECT ?a WHERE { ?a <eq:one> ?x . ?b <eq:two> ?y . }").unwrap(),
            &ds,
        )
        .unwrap();
        let order = |p: &PhysicalPlan| {
            p.patterns.iter().map(|q| q.variables().join(",")).collect::<Vec<_>>()
        };
        assert_eq!(order(&fwd), order(&again));
    }

    #[test]
    fn stats_backed_lowering_populates_ndv_and_estimates() {
        let ds = demo_ds();
        let cat = crate::stats::StatsCatalog::collect(&ds);
        let q = parse_query(
            "SELECT ?p ?c WHERE { ?p <rdf:type> <up:Protein> . ?c <chembl:inhibits> ?p . }",
        )
        .unwrap();
        let plan = lower_with_stats(&q, &ds, Some(&cat), None).unwrap();
        assert_eq!(plan.est_rows_after.len(), 2);
        // type (50 rows, 50 distinct subjects) then inhibits (200 rows,
        // 50 distinct objects): estimate ≈ 50·200/max(50, ndv_o) = 200.
        assert!(plan.est_rows_after[1] > 0, "join estimate must be populated");
        let first = &plan.patterns[0];
        assert!(first.ndv_s > 0.0 && first.ndv_o > 0.0);
        // Static lowering still fills estimates (worst-case NDVs).
        let static_plan = lower(&q, &ds).unwrap();
        assert_eq!(static_plan.est_rows_after.len(), 2);
        assert_eq!(static_plan.est_where_rows, static_plan.est_rows_after[1]);
    }

    #[test]
    fn filters_fold_into_conjunction() {
        let ds = demo_ds();
        let q = parse_query(
            "SELECT ?p WHERE { ?p <up:reviewed> 1 . FILTER(sw(?p) >= 0.9) FILTER(pic50(?p) > 6.0) }",
        )
        .unwrap();
        let plan = lower(&q, &ds).unwrap();
        match plan.where_filter.as_ref().unwrap() {
            Expr::And(cs) => assert_eq!(cs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_iri_in_filter_errors() {
        let ds = demo_ds();
        let q = parse_query("SELECT ?p WHERE { FILTER(?p == <never:seen>) }").unwrap();
        assert!(lower(&q, &ds).is_err());
    }

    #[test]
    fn stages_lower_in_order() {
        let ds = demo_ds();
        let q = parse_query(
            "SELECT ?p WHERE { ?p <up:reviewed> 1 . } APPLY dock(?p) AS ?e FILTER(?e < 0.0) LIMIT 3",
        )
        .unwrap();
        let plan = lower(&q, &ds).unwrap();
        assert_eq!(plan.stages.len(), 2);
        assert!(matches!(&plan.stages[0], PhysicalStage::Apply { bind_as, .. } if bind_as == "e"));
        assert!(matches!(&plan.stages[1], PhysicalStage::Filter(_)));
        assert_eq!(plan.limit, Some(3));
    }
}

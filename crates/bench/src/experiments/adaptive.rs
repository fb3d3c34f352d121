//! Experiment X12 — adaptive cost-based planning and mid-query
//! re-optimization ablation.
//!
//! Three datasets, each queried with the static cardinality-greedy
//! planner (`adaptive = false`) and the adaptive cost-based planner
//! (`adaptive = true`), byte-identical results required everywhere:
//!
//! 1. **Skewed** — an NDV trap. The cheapest pattern by cardinality
//!    (`?t <ingroup> ?g`, 90 rows) joins `?s <group> ?g` on a
//!    two-value variable, so the greedy heuristic walks into a
//!    90×50 = 4500-row intermediate. The cost model sees the tiny
//!    object NDV through the statistics catalog and defers that join
//!    to the end (max intermediate ≈ 120 rows). Adaptive must finish
//!    **≥ 1.3× faster** on the virtual clock.
//! 2. **Correlated** — the chaos-matrix trap (two value sets with
//!    healthy NDVs but almost no overlap). Estimates mislead *both*
//!    planners equally; the adaptive run detects the 10× divergence at
//!    the stage boundary and re-plans the remaining suffix, so it must
//!    re-plan ≥ 1 time and finish no slower than static.
//! 3. **Uniform** — no skew, no correlation: containment estimates are
//!    exact, both planners pick the same order, and adaptive must land
//!    **within 2%** of static (no adaptivity tax on good plans).

use crate::reporting::{raw_rows, section, table, Records};
use ids_core::engine::QueryOutcome;
use ids_core::IdsInstance;
use ids_graph::Term;
use ids_simrt::Topology;

const SEED: u64 = 13;

/// 4 nodes × 2 ranks: small enough that per-row join and exchange work
/// dominates the virtual clock, which is exactly what the planner's
/// intermediate sizes move.
fn instance() -> IdsInstance {
    let topo = Topology::new(4, 2);
    super::instance(topo, SEED)
}

fn fact(inst: &IdsInstance, s: String, p: &str, o: String) {
    inst.datastore().add_fact(&Term::iri(s), &Term::iri(p), &Term::iri(o));
}

const SKEWED_QUERY: &str = "SELECT ?s ?g ?t WHERE { ?s <rdf:type> <lab> . \
     ?s <group> ?g . ?t <ingroup> ?g . ?s <link> ?t . }";

/// The NDV trap. `<ingroup>` is the cheapest pattern (270 rows) so the
/// greedy heuristic seeds with it and then joins `<group>` on `?g` —
/// a variable with only **two** distinct values — exploding to
/// 270 × 150 = 40 500 rows. The cost model prices that join at
/// `270·300/max(2,2)` and pushes `<ingroup>` last, where `?t` and `?g`
/// are both bound and the join only filters.
fn build_skewed(inst: &IdsInstance) {
    for i in 0..300 {
        fact(inst, format!("s{i}"), "rdf:type", "lab".into());
        fact(inst, format!("s{i}"), "group", format!("g{}", i % 2));
    }
    for j in 0..270 {
        fact(inst, format!("t{j}"), "ingroup", format!("g{}", j % 2));
    }
    // 360 links, subjects spanning all 300 `s`s; the ×53 stride keeps
    // `(i·53) % 270` on `i`'s parity, so the first three hundred links
    // land in the subject's own group (they survive the final join)
    // while the `+1` offset of the last sixty crosses groups (filtered
    // out).
    for i in 0..300 {
        fact(inst, format!("s{i}"), "link", format!("t{}", (i * 53) % 270));
    }
    for i in 0..60 {
        fact(inst, format!("s{i}"), "link", format!("t{}", (i * 53 + 1) % 270));
    }
    inst.datastore().build_indexes();
}

const CORRELATED_QUERY: &str =
    "SELECT ?x ?v ?y ?g ?h WHERE { ?x <a> ?v . ?y <b> ?v . ?y <c> ?g . ?x <e> ?h . }";

/// The correlation trap from `tests/chaos_adaptive.rs`: `<a>`'s objects
/// are `v0..v19`, `<b>`'s are `v18..v67` — per-column NDVs (20, 50)
/// price the join at 80 rows, but only 2 values overlap, so 8 rows come
/// out. Both planners start `[a, b, ...]`; only the adaptive run sees
/// the 10× miss at the boundary and flips the remaining suffix
/// (`<e>` before `<c>`), shrinking the third intermediate 132 → 24.
fn build_correlated(inst: &IdsInstance) {
    build_pairs(inst, 18);
}

/// The uniform control: `<b>`'s objects fully cover `<a>`'s, so the
/// containment estimate is exact, and every NDV is either high or
/// shared — the heuristic order and the cost-based order coincide.
fn build_uniform(inst: &IdsInstance) {
    build_pairs(inst, 0);
}

/// The `<a>` / `<b>` / `<c>` / `<e>` graph both datasets share, `<b>`'s
/// objects starting at `v{b_first}`.
fn build_pairs(inst: &IdsInstance, b_first: usize) {
    for i in 0..40 {
        fact(inst, format!("x{i}"), "a", format!("v{}", i / 2));
    }
    for j in 0..100 {
        fact(inst, format!("y{j}"), "b", format!("v{}", b_first + j / 2));
    }
    for y in 0..2 {
        for g in 0..33 {
            fact(inst, format!("y{y}"), "c", format!("g{}", y * 33 + g));
        }
    }
    for i in 0..40 {
        for k in 0..3 {
            fact(inst, format!("x{i}"), "e", format!("h{}", 3 * i + k));
        }
    }
    inst.datastore().build_indexes();
}

struct Run {
    mode: &'static str,
    secs: f64,
    checks: u32,
    replans: u32,
    worst_divergence: f64,
    outcome: QueryOutcome,
}

fn run_planner(build: fn(&IdsInstance), query: &str, adaptive: bool) -> Run {
    let mut inst = instance();
    build(&inst);
    inst.exec_options_mut().adaptive = adaptive;
    let outcome = inst.query(query).expect("X12 ablation query must execute");
    Run {
        mode: if adaptive { "adaptive" } else { "static" },
        secs: outcome.elapsed_secs,
        checks: outcome.adaptive.checks,
        replans: outcome.adaptive.replans,
        worst_divergence: outcome.adaptive.worst_divergence(),
        outcome,
    }
}

struct DatasetResult {
    stat: Run,
    adap: Run,
    speedup: f64,
}

fn run_dataset(
    name: &'static str,
    build: fn(&IdsInstance),
    query: &str,
    rec: &mut Records,
) -> DatasetResult {
    section(&format!("X12 / {name}: static heuristic vs adaptive cost-based"));
    let stat = run_planner(build, query, false);
    let adap = run_planner(build, query, true);

    assert!(!stat.outcome.solutions.is_empty(), "{name}: query must produce rows");
    assert_eq!(
        raw_rows(&adap.outcome),
        raw_rows(&stat.outcome),
        "{name}: adaptive rows diverged from the static plan"
    );
    assert_eq!(stat.replans, 0, "{name}: static runs must never re-plan");

    let speedup = stat.secs / adap.secs;
    let rows_tbl: Vec<Vec<String>> = [&stat, &adap]
        .iter()
        .map(|r| {
            rec.add(format_args!("{name}.{}.total_virtual_secs", r.mode), r.secs);
            rec.add(format_args!("{name}.{}.boundary_checks", r.mode), r.checks);
            rec.add(format_args!("{name}.{}.replans", r.mode), r.replans);
            rec.add(format_args!("{name}.{}.worst_divergence", r.mode), r.worst_divergence);
            vec![
                r.mode.to_string(),
                format!("{:.6}s", r.secs),
                r.checks.to_string(),
                r.replans.to_string(),
                format!("x{:.1}", r.worst_divergence),
            ]
        })
        .collect();
    table(
        &["planner", "virtual total", "boundary checks", "re-plans", "worst est/actual"],
        &rows_tbl,
    );
    println!("\n{name}: adaptive speedup {speedup:.3}x, byte-identical results");
    rec.add(format_args!("{name}.adaptive_speedup"), speedup);
    DatasetResult { stat, adap, speedup }
}

pub fn run() {
    let mut rec = Records::new("adaptive");
    let skewed = run_dataset("skewed", build_skewed, SKEWED_QUERY, &mut rec);
    assert!(
        skewed.speedup >= 1.3,
        "skewed: adaptive planning must beat the greedy heuristic >= 1.3x \
         (static {:.6}s, adaptive {:.6}s, {:.3}x)",
        skewed.stat.secs,
        skewed.adap.secs,
        skewed.speedup
    );

    let correlated = run_dataset("correlated", build_correlated, CORRELATED_QUERY, &mut rec);
    assert!(
        correlated.adap.replans >= 1,
        "correlated: the trap must force a mid-query re-plan: {:?}",
        correlated.adap.outcome.adaptive
    );
    assert!(
        correlated.adap.secs <= correlated.stat.secs * 1.001,
        "correlated: re-planning must not lose to the static plan \
         (static {:.6}s, adaptive {:.6}s)",
        correlated.stat.secs,
        correlated.adap.secs
    );

    let uniform = run_dataset("uniform", build_uniform, CORRELATED_QUERY, &mut rec);
    assert_eq!(uniform.adap.replans, 0, "uniform: exact estimates must not trigger re-plans");
    let drift = (uniform.adap.secs - uniform.stat.secs).abs() / uniform.stat.secs;
    assert!(
        drift <= 0.02,
        "uniform: adaptive must stay within 2% of static \
         (static {:.6}s, adaptive {:.6}s, drift {:.4})",
        uniform.stat.secs,
        uniform.adap.secs,
        drift
    );
    rec.print();
}

//! Experiment X2 — FILTER expression-reordering ablation (§2.4.3).
//!
//! The NCNPR chain in user order is docking-expensive-first (the worst
//! case); the planner reorders to cheap-selective-first. This bench runs a
//! 3-UDF chain in (a) user order with reordering disabled and (b) planner
//! order, and reports evaluation counts per UDF and FILTER time.
//!
//! Expected shape: planner order slashes expensive-UDF invocations by the
//! cheap filters' rejection rate, cutting FILTER time by ~the cost ratio.

use crate::reporting::{secs, section, table, Records};
use ids_core::{IdsConfig, IdsInstance};
use ids_graph::Term;
use ids_udf::{UdfOutput, UdfValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A UDF of the chain: name, whether a score passes, and virtual cost per
/// call.
type Udf = (&'static str, fn(f64) -> bool, f64);

/// The chain's UDFs, cheapest first.
const UDFS: [Udf; 3] = [
    // 1 ms, rejects 90%.
    ("cheap_selective", |v| v % 100.0 < 10.0, 0.001),
    // 0.5 s, rejects 20%.
    ("mid_weak", |v| v % 10.0 < 8.0, 0.5),
    // 35 s (simulation-class), rejects 10%.
    ("costly_weak", |v| v % 100.0 < 90.0, 35.0),
];

/// The instance, with a call counter per UDF in [`UDFS`] order.
fn build_instance(reorder: bool) -> (IdsInstance, [Arc<AtomicU64>; 3]) {
    let mut cfg = IdsConfig::laptop(16, 11);
    cfg.exec.reorder_conjuncts = reorder;
    // Priors reflect the model-repository kinds so the first run already
    // benefits (profiles make later runs better still).
    cfg.exec.udf_cost_prior = 1.0;
    let inst = IdsInstance::launch(cfg);
    let ds = inst.datastore();
    for i in 0..2000i64 {
        ds.add_fact(&Term::iri(format!("c:{i}")), &Term::iri("score"), &Term::Int(i % 100));
    }
    ds.build_indexes();

    let calls = [(); 3].map(|_| Arc::new(AtomicU64::new(0)));
    for ((name, passes, cost), n) in UDFS.into_iter().zip(&calls) {
        let n = Arc::clone(n);
        let udf = move |args: &[UdfValue]| {
            n.fetch_add(1, Ordering::Relaxed);
            let v = args[0].as_f64().unwrap_or(0.0);
            UdfOutput::new(UdfValue::Bool(passes(v)), cost)
        };
        inst.registry().register_static(name, Arc::new(udf)).unwrap();
    }
    (inst, calls)
}

pub fn run() {
    section("X2: FILTER conjunct reordering ablation (2000 rows, 16 ranks)");
    // User order: worst-first (expensive, weak filters first).
    let query = "SELECT ?c WHERE { ?c <score> ?s . \
                 FILTER(costly_weak(?s) && mid_weak(?s) && cheap_selective(?s)) }";

    let mut rows = Vec::new();
    let mut rec = Records::new("reorder");
    for (label, key, reorder) in [
        ("user order (reorder off)", "user_order", false),
        ("planner order (reorder on)", "planner_order", true),
    ] {
        let (mut inst, counters) = build_instance(reorder);
        // Two passes: pass 1 builds profiles, pass 2 is the measured run
        // (the paper's profiles persist across queries).
        inst.query(query).expect("profiling pass");
        let c0 = counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        inst.reset_clocks();
        let out = inst.query(query).expect("measured pass");
        let calls: Vec<u64> =
            counters.iter().zip(c0).map(|(c, c0)| c.load(Ordering::Relaxed) - c0).collect();
        rec.add(format_args!("{key}.filter_secs"), out.breakdown.filter_secs);
        for ((name, _, _), n) in UDFS.iter().zip(&calls) {
            rec.add(format_args!("{key}.{name}_calls"), n);
        }
        rec.add(format_args!("{key}.rows"), out.solutions.len());
        let mut row = vec![label.to_string(), secs(out.breakdown.filter_secs)];
        row.extend(calls.iter().map(u64::to_string));
        row.push(out.solutions.len().to_string());
        rows.push(row);
    }
    table(
        &["configuration", "FILTER (s)", "cheap calls", "mid calls", "costly calls", "rows out"],
        &rows,
    );
    println!("\nshape check: planner order runs the 35 s UDF on ~10% of rows instead of 100%,");
    println!("matching Section 2.4.3 (ascending cost, higher rejection first on ties)");
    rec.print();
}

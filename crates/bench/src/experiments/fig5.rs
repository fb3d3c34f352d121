//! Experiment F5 — regenerate **Figure 5: NCNPR Drug Repurposing Filter
//! Times**.
//!
//! Measures the *inner FILTER* (Smith–Waterman + pIC50 + DTBA) in
//! isolation — the paper reports ≈ 27 / 18.5 / 7.7 s at 64 / 128 / 256
//! nodes — plus the DTBA per-call variance the paper highlights ("most
//! ≈ 1 s, some longer"), which is what makes throughput-based re-balancing
//! matter.

use crate::ncnpr_setup::{build_ncnpr_instance, NcnprBenchOptions};
use crate::reporting::{secs, section, table, Records};
use ids_core::workflow::{repurposing_query, RepurposingThresholds};

pub fn run() {
    section("Figure 5: NCNPR inner FILTER times (virtual seconds)");
    println!("paper reference: FILTER ≈ 27 / 18.5 / 7.7 s at 64 / 128 / 256 nodes\n");

    // The filter-only query: same patterns and filters, no docking stage
    // (and no ?energy projection, which only the APPLY stage binds).
    let thresholds = RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 };
    let full = repurposing_query(&thresholds);
    let filter_only = full
        .lines()
        .filter(|l| !l.contains("APPLY"))
        .map(|l| if l.starts_with("SELECT") { "SELECT ?compound ?smiles" } else { l })
        .collect::<Vec<_>>()
        .join("\n");

    let mut rows = Vec::new();
    let mut rec = Records::new("fig5");
    for nodes in [64u32, 128, 256] {
        let bench =
            build_ncnpr_instance(NcnprBenchOptions { nodes, ..NcnprBenchOptions::default() });
        let mut inst = bench.inst;
        let out = inst.query(&filter_only).expect("query runs");
        rec.add(format_args!("n{nodes}.filter_secs"), out.breakdown.filter_secs);
        rec.add(format_args!("n{nodes}.total_secs"), out.elapsed_secs);
        rec.add(format_args!("n{nodes}.survivors"), out.solutions.len());
        rows.push(vec![
            nodes.to_string(),
            (nodes * 32).to_string(),
            secs(out.breakdown.filter_secs),
            secs(out.elapsed_secs),
            out.solutions.len().to_string(),
        ]);
    }
    table(&["nodes", "ranks", "FILTER (s)", "query total (s)", "survivors"], &rows);

    // DTBA variance: per-call virtual costs across a candidate sample.
    section("DTBA per-prediction variance (paper: most ≈ 1 s, some longer)");
    let model = ids_models::DtbaModel::pretrained();
    let mut rng = ids_simrt::rng::SplitMix64::new(0xf5, 1);
    let target = ids_chem::ProteinSequence::random(412, &mut rng);
    let gen = ids_models::MoleculeGenerator::default_model(9);
    let mut costs: Vec<f64> =
        (0..200).map(|i| model.predict(&target, &gen.generate(i).smiles).virtual_secs).collect();
    costs.sort_by(f64::total_cmp);
    let pct = |p: f64| costs[((costs.len() - 1) as f64 * p) as usize];
    table(
        &["p10", "p50", "p90", "p99", "max"],
        &[vec![
            secs(pct(0.10)),
            secs(pct(0.50)),
            secs(pct(0.90)),
            secs(pct(0.99)),
            secs(*costs.last().unwrap()),
        ]],
    );
    let tail_ratio = costs.last().unwrap() / pct(0.50);
    println!("\ntail/median ratio: {tail_ratio:.2}x (heavy tail justifies per-rank re-balancing)");
    for (p, name) in [(0.10, "p10"), (0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (1.0, "max")] {
        rec.add(format_args!("dtba_secs.{name}"), pct(p));
    }
    rec.print();
}

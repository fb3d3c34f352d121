//! Experiment F4a/F4b — regenerate **Figure 4: NCNPR Drug Repurposing
//! Query scaling** (end-to-end latency and per-stage breakdown).
//!
//! Runs the full re-purposing query (SW + pIC50 + DTBA filters, then
//! docking) on 64 / 128 / 256 simulated nodes × 32 ranks (2048 / 4096 /
//! 8192 ranks) and prints, per node count:
//!
//! * end-to-end virtual latency (paper: 86 / 72 / 62 s),
//! * the per-stage breakdown: scan/join/merge, FILTER, docking (paper:
//!   docking dominates at ≈ 43 s and does not scale; the rest shrinks),
//! * latency excluding docking (paper: ≈ 43 / 29 / 19 s).
//!
//! Shape targets, not absolute matches: docking is the dominant,
//! scale-invariant cost; everything else improves with node count;
//! scan/join gains flatten as ranks out-run the data.

use crate::ncnpr_setup::{build_ncnpr_instance, NcnprBenchOptions};
use crate::reporting::{metrics_dump, secs, section, table, Records};
use ids_core::workflow::{repurposing_query, RepurposingThresholds};

pub fn run() {
    section("Figure 4: NCNPR drug re-purposing query scaling (virtual seconds)");
    println!("paper reference: end-to-end 86 / 72 / 62 s at 64 / 128 / 256 nodes;");
    println!("docking ≈ constant and dominant; excluding docking ≈ 43 / 29 / 19 s\n");

    let thresholds = RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 };
    let query = repurposing_query(&thresholds);

    let mut rows = Vec::new();
    let mut breakdown_rows = Vec::new();
    let mut last_snapshot = None;
    let mut rec = Records::new("fig4");
    for nodes in [64u32, 128, 256] {
        let bench =
            build_ncnpr_instance(NcnprBenchOptions { nodes, ..NcnprBenchOptions::default() });
        let mut inst = bench.inst;
        // Warm the profiler so re-balancing/reordering have data, as a
        // long-running instance would (the paper's profiles accumulate
        // "through the lifetime of a running IDS instance").
        let out = inst.query(&query).expect("query runs");

        let docking = out.breakdown.apply_secs.get("vina_docking").copied().unwrap_or(0.0);
        let b = &out.breakdown;
        rec.add(format_args!("n{nodes}.docked"), out.solutions.len());
        rec.add(format_args!("n{nodes}.total_secs"), out.elapsed_secs);
        rec.add(format_args!("n{nodes}.docking_secs"), docking);
        rec.add(format_args!("n{nodes}.scan_secs"), b.scan_secs);
        rec.add(format_args!("n{nodes}.join_secs"), b.join_secs);
        rec.add(format_args!("n{nodes}.rebalance_secs"), b.rebalance_secs);
        rec.add(format_args!("n{nodes}.filter_secs"), b.filter_secs);
        rec.add(format_args!("n{nodes}.gather_secs"), b.gather_secs);
        rows.push(vec![
            nodes.to_string(),
            (nodes * 32).to_string(),
            out.solutions.len().to_string(),
            secs(out.elapsed_secs),
            secs(docking),
            secs(out.elapsed_secs - docking),
        ]);
        breakdown_rows.push(vec![
            nodes.to_string(),
            secs(out.breakdown.scan_secs),
            secs(out.breakdown.join_secs),
            secs(out.breakdown.rebalance_secs),
            secs(out.breakdown.filter_secs),
            secs(docking),
            secs(out.breakdown.gather_secs),
        ]);
        last_snapshot = Some(inst.metrics_snapshot());
    }

    println!("Figure 4(a): end-to-end scaling");
    table(&["nodes", "ranks", "docked", "total (s)", "docking (s)", "excl. docking (s)"], &rows);

    println!("\nFigure 4(b): per-stage breakdown (virtual seconds)");
    table(
        &["nodes", "scan", "join/merge", "re-balance", "FILTER", "docking", "gather"],
        &breakdown_rows,
    );

    println!("\nShape checks (paper):");
    println!("  - docking roughly constant across node counts, dominant at 256 nodes");
    println!("  - non-docking time decreases with node count");
    println!("  - scan/join gains flatten as shards empty out (ranks exhaust work)");

    if let Some(snap) = last_snapshot {
        metrics_dump("ids-obs metrics (256-node run)", &snap);
    }
    rec.print();
}

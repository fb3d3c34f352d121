//! Shared NCNPR experiment setup used by the Figure 4 / Figure 5 / Table 2
//! experiments.
//!
//! ## Calibration (documented in EXPERIMENTS.md)
//!
//! The paper's runs compare ≈ 66 M UniProt sequences against the target and
//! scan a ≈ 100 B-triple graph. Our synthetic slice is 10³–10⁶× smaller, so
//! each simulated evaluation *represents* many paper-scale evaluations.
//! Virtual costs are multiplied by the representation factor:
//!
//! * `analytics_scale = 66e6 / candidate_rows` — applied to SW and pIC50
//!   (the bulk per-sequence filters);
//! * `dtba_scale` — DTBA runs on post-similarity survivors ("thousands of
//!   AI inferences" at paper scale vs ~56 here), so it gets its own, much
//!   smaller factor;
//! * `scan/join per-triple costs × (100e9 / triples)` — each stored triple
//!   represents that many paper triples.
//!
//! Docking is never scaled: candidate counts (55–1129) are matched
//! directly, and per-ligand cost is already calibrated to 31–44 s.

use ids_cache::CacheManager;
use ids_core::workflow::{install_workflow, WorkflowModels};
use ids_core::{IdsConfig, IdsInstance};
use ids_workloads::ncnpr::{build, Band, NcnprConfig, NcnprDataset};
use std::sync::Arc;

/// Paper-scale constants the calibration targets.
pub const PAPER_SEQUENCES: f64 = 66.0e6;
pub const PAPER_TRIPLES: f64 = 100.0e9;

/// Ranks per cluster node (the paper's shape).
pub const RANKS_PER_NODE: u32 = 32;

/// Root seed of every bench instance.
pub const SEED: u64 = 7;

/// A ready-to-query NCNPR instance.
pub struct NcnprBench {
    pub inst: IdsInstance,
    pub dataset: NcnprDataset,
    /// SW/pIC50 virtual-cost multiplier used.
    pub analytics_scale: f64,
}

/// Build options for the bench instance.
pub struct NcnprBenchOptions {
    /// Cluster nodes (× [`RANKS_PER_NODE`] ranks each).
    pub nodes: u32,
    /// Extra bulk band (proteins, compounds-per-protein) supplying SW
    /// volume below every threshold; (0, 0) disables.
    pub bulk: (usize, usize),
    /// DTBA virtual-cost multiplier.
    pub dtba_scale: f64,
    /// Attach this shared cache.
    pub cache: Option<Arc<CacheManager>>,
    /// When true (default), multiply virtual costs up to paper scale
    /// (66 M sequences / 100 B triples). The Table 2 cache testbed hosts
    /// its actual small dataset, so it runs unscaled.
    pub paper_scale: bool,
}

impl Default for NcnprBenchOptions {
    fn default() -> Self {
        Self { nodes: 64, bulk: (2000, 24), dtba_scale: 2.0, cache: None, paper_scale: true }
    }
}

/// Build the dataset + instance with paper-calibrated virtual costs.
pub fn build_ncnpr_instance(opts: NcnprBenchOptions) -> NcnprBench {
    let mut cfg = IdsConfig::cray_ex(opts.nodes, SEED);
    cfg.topology = ids_simrt::Topology::new(opts.nodes, RANKS_PER_NODE);
    let mut inst = IdsInstance::launch(cfg);
    if let Some(cache) = opts.cache.clone() {
        inst.attach_cache(cache);
    }

    // Dataset: Table 2 bands plus the bulk SW band.
    let mut ncfg = NcnprConfig::default();
    if opts.bulk.0 > 0 {
        ncfg.bands.push(Band {
            mutation_rate: 0.62,
            // Bulk volume only needs to sit below every sweep threshold;
            // skip the (expensive) per-member rejection sampling.
            similarity_range: None,
            proteins: opts.bulk.0,
            compounds_per_protein: opts.bulk.1,
        });
    }
    ncfg.seed = SEED ^ 0x29274;
    let dataset = build(inst.datastore(), &ncfg);

    // Calibrate virtual costs to paper scale (or run the dataset as-is).
    let analytics_scale =
        if opts.paper_scale { PAPER_SEQUENCES / dataset.compounds.max(1) as f64 } else { 1.0 };
    let triple_scale =
        if opts.paper_scale { PAPER_TRIPLES / dataset.triples.max(1) as f64 } else { 1.0 };
    {
        let exec = inst.exec_options_mut();
        exec.scan_secs_per_triple = 2.0e-8 * triple_scale;
        exec.join_secs_per_row = 2.0e-8 * triple_scale;
    }

    let mut models = WorkflowModels::paper_models();
    models.analytics_scale = analytics_scale;
    models.dtba_scale = opts.dtba_scale;
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, models);

    NcnprBench { inst, dataset, analytics_scale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_core::workflow::{repurposing_query, RepurposingThresholds};

    #[test]
    fn small_instance_runs_the_full_query() {
        // Tiny cluster + tiny bulk so the test stays fast.
        let bench = build_ncnpr_instance(NcnprBenchOptions {
            nodes: 2,
            bulk: (20, 2),
            dtba_scale: 1.0,
            cache: None,
            paper_scale: true,
        });
        let mut inst = bench.inst;
        let q = repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.0,
            min_dtba: 3.0,
        });
        let out = inst.query(&q).expect("query runs");
        // The tight band's 56 compounds reach docking (±pIC50 clamp edge).
        assert!(
            (50..=57).contains(&out.solutions.len()),
            "docked candidates {}",
            out.solutions.len()
        );
        // Docking runs at paper-calibrated cost (31–44 s per ligand,
        // max-bound across ranks). At this tiny 64-rank scale the calibrated
        // SW filter legitimately dominates (it represents 66 M sequences on
        // 64 ranks); the paper-shape docking dominance is asserted by the
        // fig4 experiment at 2048+ ranks, not here.
        let docking = out.breakdown.apply_secs.get("vina_docking").copied().unwrap_or(0.0);
        assert!(docking > 30.0, "docking stage {docking}");
        assert!(out.breakdown.filter_secs > 0.0);
        assert!(out.elapsed_secs > docking);
    }
}

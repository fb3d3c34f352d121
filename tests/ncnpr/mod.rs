//! The NCNPR re-purposing fixture of the workflow and chaos suites: a
//! small data set (3 near-identical and 5 mutated proteins, 10 background
//! proteins) with the workflow's UDFs on the test models.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance};
use ids::simrt::{FaultPlane, NetworkModel, Topology};
use ids::workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

/// The data set: 3 near-identical and 5 mutated proteins with their
/// compounds, and 10 background proteins.
pub fn small_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 3,
                compounds_per_protein: 4,
            },
            Band {
                mutation_rate: 0.62,
                similarity_range: Some((0.21, 0.39)),
                proteins: 5,
                compounds_per_protein: 2,
            },
        ],
        background_proteins: 10,
        ..NcnprConfig::default()
    }
}

/// A cache over `topo` on the Slingshot network, backed by the default
/// store.
pub fn cache(topo: Topology, cfg: CacheConfig) -> Arc<CacheManager> {
    Arc::new(CacheManager::new(topo, NetworkModel::slingshot(), cfg, BackingStore::default_store()))
}

/// Launch an instance on `topo`, attach `cache` and `faults` (one seeded
/// schedule for the cluster, FAM and cache), then build the data set and
/// install the workflow.
pub fn launch(
    topo: Topology,
    cache: Option<Arc<CacheManager>>,
    faults: Option<FaultPlane>,
) -> IdsInstance {
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    if let Some(cache) = cache {
        inst.attach_cache(cache);
    }
    if let Some(plane) = faults {
        inst.attach_faults(Arc::new(plane));
    }
    let dataset = build(inst.datastore(), &small_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    inst
}

/// The re-purposing query at similarity threshold `sw` (pIC50 > 3, DTBA
/// ≥ 3). At 0.9 it returns the near-identical band's 3 × 4 compounds.
pub fn query(sw: f64) -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: sw, min_pic50: 3.0, min_dtba: 3.0 })
}

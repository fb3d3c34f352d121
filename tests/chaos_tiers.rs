//! Chaos harness for the tiered store (PR 9): queries whose cache
//! working set is several times DRAM — so the run lives off constant
//! DRAM→NVMe spill, admission filtering, and promote-on-reuse — under
//! deterministic crash and bit-rot schedules.
//!
//! The contract is the same result equivalence the rest of the chaos
//! suite enforces: however hard the tiers churn and whatever the fault
//! schedule does, a query returns byte-identical rows to an all-DRAM
//! fault-free baseline. CI sweeps `CHAOS_SEED` over the fixed matrix;
//! locally, every seed runs in one pass when the variable is unset.

use bytes::Bytes;
use ids::cache::{BackingStore, CacheConfig, CacheManager, EvictionKind};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance, QueryOutcome};
use ids::simrt::faults::{CrashConfig, StorageConfig};
use ids::simrt::topology::{NodeId, RankId};
use ids::simrt::{FaultConfig, FaultPlane, NetworkModel, Topology};
use ids::workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

/// The CI seed matrix (ci.sh runs one seed per job via `CHAOS_SEED`).
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).collect(),
    }
}

/// One eviction policy per seed so the full matrix covers all three
/// without tripling its runtime.
fn policy_for(seed: u64) -> EvictionKind {
    match seed % 3 {
        0 => EvictionKind::Lru,
        1 => EvictionKind::S3Fifo,
        _ => EvictionKind::TinyLfu,
    }
}

/// Crash + bit-rot chaos at the test workflow's millisecond scale (see
/// `chaos_faults.rs` for the scaling rationale).
fn tier_chaos() -> FaultConfig {
    FaultConfig {
        crash: Some(CrashConfig { mean_uptime_secs: 2.0e-3, mean_downtime_secs: 0.5e-3 }),
        storage: Some(StorageConfig { bit_rot_prob: 0.05, torn_write_prob: 0.0 }),
        ..FaultConfig::none()
    }
}

fn small_config() -> NcnprConfig {
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

/// Launch with an explicit cache config (the tier-pressure knob) and an
/// optional crash/bit-rot schedule.
fn launch(
    topo: Topology,
    cache_cfg: CacheConfig,
    faults: Option<(u64, FaultConfig)>,
) -> (IdsInstance, Arc<CacheManager>) {
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        cache_cfg,
        BackingStore::default_store(),
    ));
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(Arc::clone(&cache));
    if let Some((seed, fc)) = faults {
        let plane = Arc::new(FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
        inst.attach_faults(plane);
    }
    let dataset = build(inst.datastore(), &small_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    (inst, cache)
}

/// An all-DRAM config: tiers so large nothing ever spills.
fn all_dram() -> CacheConfig {
    CacheConfig::new(2, 64 << 20, 256 << 20)
}

/// A pressure config: DRAM far smaller than the docking working set
/// (~1.6 KiB of stashed docking outputs per node, so >3x the 512 B DRAM
/// tier), forcing the run to spill constantly and serve reuse from NVMe.
fn tier_pressure(eviction: EvictionKind) -> CacheConfig {
    CacheConfig::new(2, 512, 64 << 10).with_eviction(eviction)
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

/// Sorted (compound, energy) rows, as in the rest of the chaos suite.
fn extract(o: &QueryOutcome, inst: &IdsInstance) -> Vec<(String, String)> {
    let ds = inst.datastore();
    let mut v: Vec<(String, String)> = o
        .solutions
        .rows()
        .iter()
        .map(|r| {
            (
                ds.decode(r[1]).unwrap().to_string(),
                format!("{:.12}", ds.decode(r[2]).unwrap().as_f64().unwrap()),
            )
        })
        .collect();
    v.sort();
    v
}

fn baseline() -> Vec<(String, String)> {
    let (mut inst, _) = launch(Topology::new(4, 2), all_dram(), None);
    let out = inst.query(&query()).unwrap();
    extract(&out, &inst)
}

#[test]
fn tier_pressure_chaos_matrix_preserves_results() {
    let expected = baseline();
    assert_eq!(expected.len(), 12, "3 proteins x 4 compounds");
    for seed in chaos_seeds() {
        let eviction = policy_for(seed);
        let (mut inst, cache) =
            launch(Topology::new(4, 2), tier_pressure(eviction), Some((seed, tier_chaos())));
        let ctx = format!("seed {seed} policy {}", eviction.label());
        let cold = inst
            .query(&query())
            .unwrap_or_else(|e| panic!("{ctx}: tier-pressure chaos run failed: {e}"));
        assert!(!cold.degraded(), "{ctx}: fault paths must not drop rows");
        assert_eq!(extract(&cold, &inst), expected, "{ctx}: cold divergence");
        // The warm pass reuses (and promotes) whatever pressure left
        // resident, under the same fault schedule.
        inst.reset_clocks();
        let warm_run = inst.query(&query()).unwrap();
        assert_eq!(extract(&warm_run, &inst), expected, "{ctx}: warm divergence");
        // Prove the run actually lived under tier pressure: the NVMe
        // plane must have been engaged, not just configured.
        let inspection = cache.inspect();
        assert!(
            inspection.spills > 0 || inspection.occupied("nvme") > 0,
            "{ctx}: working set never overflowed DRAM (spills {}, nvme bytes {})",
            inspection.spills,
            inspection.occupied("nvme")
        );
    }
}

#[test]
fn crash_recovery_under_tier_pressure_keeps_objects_byte_identical() {
    // Direct object-level variant: a working set ~4x DRAM with explicit
    // mid-stream crash/recover of every node, under bit rot. Every object
    // must read back byte-identical, and the recovery must exercise warm
    // NVMe retention.
    let topo = Topology::new(2, 4);
    let payload = |i: usize, seed: u64| Bytes::from(vec![(i as u8) ^ (seed as u8); 512]);
    for seed in chaos_seeds() {
        let cache = CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            // 64 objects x 512 B = 32 KiB working set over 8 KiB DRAM.
            CacheConfig::new(2, 8 << 10, 64 << 10).with_eviction(policy_for(seed)),
            BackingStore::default_store(),
        );
        cache.attach_faults(Arc::new(FaultPlane::new(
            seed,
            FaultConfig::storage_only(0.1, 0.0),
            topo.nodes(),
            topo.total_ranks(),
            1e6,
        )));
        let ctx = format!("seed {seed}");
        for i in 0..64 {
            cache.put(RankId((i % 8) as u32), &format!("ws/{i}"), payload(i, seed));
            if i == 40 {
                // Crash both nodes mid-stream and bring them back.
                cache.fail_node(NodeId(0));
                cache.fail_node(NodeId(1));
                cache.recover_node(NodeId(0));
                cache.recover_node(NodeId(1));
            }
        }
        for i in 0..64 {
            let (bytes, _) = cache
                .get(RankId(((i + seed as usize) % 8) as u32), &format!("ws/{i}"))
                .unwrap_or_else(|e| panic!("{ctx}: read failed: {e}"))
                .unwrap_or_else(|| panic!("{ctx}: ws/{i} lost"));
            assert_eq!(bytes, payload(i, seed), "{ctx}: ws/{i} bytes diverged");
        }
        let stats = cache.stats();
        assert!(stats.evictions_to_nvme > 0, "{ctx}: working set never spilled");
        assert!(
            stats.warm_restart_retained > 0,
            "{ctx}: warm restart retained nothing across the crash"
        );
    }
}

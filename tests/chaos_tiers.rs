//! Chaos harness for the tiered store (PR 9): queries whose cache
//! working set is several times DRAM — so the run lives off constant
//! DRAM→NVMe spill, admission filtering, and promote-on-reuse — under
//! deterministic crash and bit-rot schedules.
//!
//! The contract is the same result equivalence the rest of the chaos
//! suite enforces: however hard the tiers churn and whatever the fault
//! schedule does, a query returns byte-identical rows to an all-DRAM
//! fault-free baseline, at every seed.

mod chaos;
mod docked;
mod ncnpr;

use bytes::Bytes;
use chaos::SEEDS;
use docked::extract;
use ids::cache::{CacheConfig, CacheManager, EvictionKind};
use ids::core::IdsInstance;
use ids::simrt::faults::StorageConfig;
use ids::simrt::topology::{NodeId, RankId};
use ids::simrt::{FaultConfig, FaultPlane, Topology};
use ncnpr::query;
use std::sync::Arc;

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
        storage: Some(StorageConfig { bit_rot_prob: 0.05, torn_write_prob: 0.0 }),
        ..FaultConfig::crashes_only(2.0e-3, 0.5e-3)
    }
}

/// Launch with an explicit cache config (the tier-pressure knob) and an
/// optional crash/bit-rot schedule.
fn launch(
    topo: Topology,
    cache_cfg: CacheConfig,
    faults: Option<(u64, FaultConfig)>,
) -> (IdsInstance, Arc<CacheManager>) {
    let cache = ncnpr::cache(topo, cache_cfg);
    let plane =
        faults.map(|(seed, fc)| FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
    (ncnpr::launch(topo, Some(Arc::clone(&cache)), plane), cache)
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

fn baseline() -> Vec<(String, String)> {
    let (mut inst, _) = launch(Topology::new(4, 2), all_dram(), None);
    let out = inst.query(&query(0.9)).unwrap();
    extract(&out, &inst)
}

#[test]
fn tier_pressure_chaos_matrix_preserves_results() {
    let expected = baseline();
    assert_eq!(expected.len(), 12, "3 proteins x 4 compounds");
    for seed in SEEDS {
        let eviction = policy_for(seed);
        let (mut inst, cache) =
            launch(Topology::new(4, 2), tier_pressure(eviction), Some((seed, tier_chaos())));
        let ctx = format!("seed {seed} policy {}", eviction.label());
        let cold = inst
            .query(&query(0.9))
            .unwrap_or_else(|e| panic!("{ctx}: tier-pressure chaos run failed: {e}"));
        assert!(!cold.degraded(), "{ctx}: fault paths must not drop rows");
        assert_eq!(extract(&cold, &inst), expected, "{ctx}: cold divergence");
        // The warm pass reuses (and promotes) whatever pressure left
        // resident, under the same fault schedule.
        inst.reset_clocks();
        let warm_run = inst.query(&query(0.9)).unwrap();
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
    for seed in SEEDS {
        // 64 objects x 512 B = 32 KiB working set over 8 KiB DRAM.
        let cfg = CacheConfig::new(2, 8 << 10, 64 << 10).with_eviction(policy_for(seed));
        let cache = ncnpr::cache(topo, cfg);
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

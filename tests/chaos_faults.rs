//! Chaos harness: the NCNPR re-purposing workflow under deterministic
//! fault schedules (node crashes, transient FAM failures, link
//! degradation, straggler ranks).
//!
//! The core contract is **result equivalence**: because every fault path
//! either retries or falls back to an authoritative source (backing
//! store, recomputation), a query run under any fault schedule returns
//! byte-identical rows to the fault-free run — only virtual time and
//! fault metrics differ. CI sweeps `CHAOS_SEED` over a fixed matrix;
//! locally, all matrix seeds run in one pass when the variable is unset.

use bytes::Bytes;
use ids::cache::{BackingStore, CacheConfig, CacheManager, Tier};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{DegradedKind, IdsConfig, IdsInstance, QueryOutcome};
use ids::simrt::faults::{
    CrashConfig, LinkConfig, StorageConfig, StragglerConfig, TransientConfig,
};
use ids::simrt::topology::RankId;
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

/// The CI replication-factor matrix (ci.sh pins one factor per job via
/// `CHAOS_REPLICATION`; unset runs the whole ladder).
fn chaos_replication() -> Vec<usize> {
    match std::env::var("CHAOS_REPLICATION") {
        Ok(s) => vec![s.parse().expect("CHAOS_REPLICATION must be an unsigned integer")],
        Err(_) => vec![1, 2, 3],
    }
}

/// The test workflow runs in a few virtual milliseconds (free cost
/// models), so fault windows are scaled to milliseconds too — the run
/// then crosses several crash/degradation windows, exactly like a
/// paper-scale run crosses the second-scale windows of
/// [`FaultConfig::chaos`].
fn ms_chaos() -> FaultConfig {
    FaultConfig {
        crash: Some(CrashConfig { mean_uptime_secs: 2.0e-3, mean_downtime_secs: 0.5e-3 }),
        transient: Some(TransientConfig { fail_prob: 0.05 }),
        link: Some(LinkConfig {
            mean_healthy_secs: 1.0e-3,
            mean_degraded_secs: 0.4e-3,
            latency_mult: 8.0,
            bandwidth_mult: 0.25,
        }),
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 3.0 }),
        storage: Some(StorageConfig { bit_rot_prob: 0.02, torn_write_prob: 0.01 }),
        permanent: None,
    }
}

fn ms_crashes() -> FaultConfig {
    FaultConfig::crashes_only(2.0e-3, 0.5e-3)
}

fn ms_links() -> FaultConfig {
    FaultConfig::link_only(LinkConfig {
        mean_healthy_secs: 1.0e-3,
        mean_degraded_secs: 0.6e-3,
        latency_mult: 10.0,
        bandwidth_mult: 0.2,
    })
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

/// Launch an instance with an attached cache and (optionally) a fault
/// plane driving the cluster, FAM, and cache from one seeded schedule.
fn launch(topo: Topology, faults: Option<(u64, FaultConfig)>) -> (IdsInstance, Arc<CacheManager>) {
    launch_rf(topo, faults, 1)
}

/// [`launch`] with an explicit cache replication factor.
fn launch_rf(
    topo: Topology,
    faults: Option<(u64, FaultConfig)>,
    replication: usize,
) -> (IdsInstance, Arc<CacheManager>) {
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(replication),
        BackingStore::default_store(),
    ));
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(Arc::clone(&cache));
    if let Some((seed, fc)) = faults {
        // A 10s horizon is ~1500x the query's virtual duration while
        // keeping window generation cheap under ms-scale fault configs.
        let plane = Arc::new(FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
        inst.attach_faults(plane);
    }
    let dataset = build(inst.datastore(), &small_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    (inst, cache)
}

/// `CacheStats` is a view of the cache's `ids_cache_*` counters: after a
/// case each field must equal its series in the cache's metrics registry
/// (nothing here calls `reset_stats`, so both count from zero).
fn assert_stats_are_the_counters(cache: &CacheManager, case: &str) {
    let s = cache.stats();
    let snap = cache.metrics().snapshot();
    let c = |name, label| snap.counter(name, label);
    let hit = |tier| c("ids_cache_lookup_hits_total", tier);
    let fields = [
        ("local_dram_hits", s.local_dram_hits, hit("local_dram")),
        ("remote_dram_hits", s.remote_dram_hits, hit("remote_dram")),
        ("local_nvme_hits", s.local_nvme_hits, hit("local_nvme")),
        ("remote_nvme_hits", s.remote_nvme_hits, hit("remote_nvme")),
        ("backing_fetches", s.backing_fetches, hit("backing")),
        ("total_misses", s.total_misses, c("ids_cache_lookup_misses_total", "")),
        ("evictions_to_nvme", s.evictions_to_nvme, c("ids_cache_spills_total", "")),
        ("evictions_dropped", s.evictions_dropped, c("ids_cache_evictions_total", "nvme")),
        ("repopulations", s.repopulations, c("ids_cache_repopulations_total", "")),
        ("retries", s.retries, c("ids_cache_retries_total", "")),
        ("failover_reads", s.failover_reads, c("ids_cache_failover_reads_total", "")),
        (
            "under_replicated_writes",
            s.under_replicated_writes,
            c("ids_cache_under_replicated_writes_total", ""),
        ),
        (
            "corruptions_detected",
            s.corruptions_detected,
            snap.counter_sum("ids_cache_corruptions_detected_total"),
        ),
        ("repairs", s.repairs, snap.counter_sum("ids_cache_repairs_total")),
        ("promotes", s.promotes, c("ids_cache_promotes_total", "")),
        (
            "admission_rejects",
            s.admission_rejects,
            snap.counter_sum("ids_cache_admission_rejects_total"),
        ),
        (
            "warm_restart_retained",
            s.warm_restart_retained,
            c("ids_cache_warm_restart_retained_total", ""),
        ),
    ];
    for (field, stat, counter) in fields {
        assert_eq!(stat, counter, "{case}: CacheStats::{field} vs its counter");
    }
    assert!(s.cache_hits() + s.backing_fetches > 0, "{case}: the query never touched the cache");
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

/// Sorted (compound, energy) rows — sorted because re-balancing plans may
/// legitimately assign rows to different ranks under dilated clocks.
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
    let (mut inst, _) = launch(Topology::new(4, 2), None);
    let out = inst.query(&query()).unwrap();
    extract(&out, &inst)
}

#[test]
fn full_chaos_matrix_preserves_results() {
    let expected = baseline();
    assert_eq!(expected.len(), 12, "3 proteins x 4 compounds");
    for seed in chaos_seeds() {
        let (mut inst, cache) = launch(Topology::new(4, 2), Some((seed, ms_chaos())));
        let out =
            inst.query(&query()).unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));
        assert!(!out.degraded(), "seed {seed}: fault paths must not drop rows");
        assert_eq!(extract(&out, &inst), expected, "seed {seed}: result divergence");
        // Cold and warm runs both survive: the second pass exercises
        // cache hits, fencing, and re-population under the same schedule.
        inst.reset_clocks();
        let warm = inst.query(&query()).unwrap();
        assert_eq!(extract(&warm, &inst), expected, "seed {seed}: warm divergence");
        assert_stats_are_the_counters(&cache, &format!("seed {seed}"));
    }
}

#[test]
fn node_crashes_fence_and_repopulate_without_changing_results() {
    let expected = baseline();
    for seed in chaos_seeds() {
        let (mut inst, cache) = launch(Topology::new(4, 2), Some((seed, ms_crashes())));
        let out = inst.query(&query()).unwrap();
        assert_eq!(extract(&out, &inst), expected, "seed {seed}");
        // Locality never reports a node the plane currently holds down,
        // and every surviving copy lives on a live node.
        let names: Vec<String> = out
            .solutions
            .rows()
            .iter()
            .map(|r| {
                let smiles = inst.datastore().decode(r[1]).unwrap().as_str().unwrap().to_string();
                ids::core::workflow::docking_object_name("P29274", &smiles)
            })
            .collect();
        for name in names {
            for (node, _) in cache.locality(&name) {
                assert!(!cache.node_is_down(node), "seed {seed}: {name} reported on down node");
            }
        }
    }
}

#[test]
fn transient_fam_failures_are_retried_without_changing_results() {
    let expected = baseline();
    for seed in chaos_seeds() {
        let (mut inst, _) =
            launch(Topology::new(4, 2), Some((seed, FaultConfig::transient_only(0.2))));
        let cold = inst.query(&query()).unwrap();
        inst.reset_clocks();
        let warm = inst.query(&query()).unwrap();
        assert_eq!(extract(&cold, &inst), expected, "seed {seed} (cold)");
        assert_eq!(extract(&warm, &inst), expected, "seed {seed} (warm)");
    }
}

#[test]
fn degraded_links_slow_execution_without_changing_results() {
    let expected = baseline();
    let (mut base, _) = launch(Topology::new(4, 2), None);
    let base_elapsed = base.query(&query()).unwrap().elapsed_secs;
    for seed in chaos_seeds() {
        let (mut inst, _) = launch(Topology::new(4, 2), Some((seed, ms_links())));
        let out = inst.query(&query()).unwrap();
        assert_eq!(extract(&out, &inst), expected, "seed {seed}");
        assert!(
            out.elapsed_secs >= base_elapsed,
            "seed {seed}: degraded links cannot make the run faster \
             ({} < {base_elapsed})",
            out.elapsed_secs
        );
    }
}

#[test]
fn straggler_ranks_dilate_time_without_changing_results() {
    let expected = baseline();
    let (mut base, _) = launch(Topology::new(4, 2), None);
    let base_elapsed = base.query(&query()).unwrap().elapsed_secs;
    for seed in chaos_seeds() {
        let (mut inst, _) =
            launch(Topology::new(4, 2), Some((seed, FaultConfig::stragglers_only(0.5, 4.0))));
        let out = inst.query(&query()).unwrap();
        assert_eq!(extract(&out, &inst), expected, "seed {seed}");
        assert!(out.elapsed_secs >= base_elapsed, "seed {seed}: stragglers only add time");
    }
}

#[test]
fn exhausted_retries_degrade_to_partial_results_with_annotations() {
    // A UDF whose failures no retry can absorb: under graceful
    // degradation the query must come back Ok with the failing rows
    // dropped and annotated — never an Err — and EXPLAIN must show it.
    use ids::udf::{UdfOutput, UdfValue};
    let seed = chaos_seeds()[0];
    let (mut inst, _) = launch(Topology::new(4, 2), Some((seed, ms_chaos())));
    inst.registry()
        .register_static(
            "fragile_gate",
            Arc::new(|args: &[UdfValue]| -> UdfOutput {
                let v = args.first().and_then(|a| a.as_f64()).unwrap_or(0.0);
                // Reviewed proteins (flag = 1) always fail; background
                // proteins (flag = 0) always pass.
                if v >= 1.0 {
                    panic!("permanently failing row (reviewed {v})");
                }
                UdfOutput::new(UdfValue::Bool(true), 1.0e-4)
            }),
        )
        .unwrap();
    inst.exec_options_mut().degrade = true;
    let q = "SELECT ?p ?r WHERE { ?p <up:reviewed> ?r . FILTER(fragile_gate(?r)) }";
    let out = inst.query(q).unwrap();
    // 9 reviewed proteins (8 band + the target) are dropped; the 10
    // unreviewed background proteins pass.
    assert!(out.degraded(), "reviewed rows must have been dropped");
    assert_eq!(out.rows_dropped(), 9);
    assert_eq!(out.solutions.len(), 10);
    assert!(out
        .annotations
        .iter()
        .all(|a| a.kind == DegradedKind::WorkerPanic && a.stage == "filter"));
    assert!(out.annotations.iter().any(|a| a.detail.contains("permanently failing row")));
    // The survivors really are the background proteins.
    let ds = inst.datastore();
    for row in out.solutions.rows() {
        assert_eq!(ds.decode(row[1]).unwrap().as_i64(), Some(0));
    }
    let text = inst.explain(q).unwrap();
    assert!(text.contains("faults & degradation"), "{text}");
    assert!(text.contains("rows dropped"), "{text}");
}

#[test]
fn replication_ladder_preserves_results_under_full_chaos() {
    // The replication knob must never change answers: every factor in
    // the ladder returns byte-identical rows to the fault-free baseline
    // under the full chaos schedule, cold and warm.
    let expected = baseline();
    for rf in chaos_replication() {
        for seed in chaos_seeds() {
            let (mut inst, cache) = launch_rf(Topology::new(4, 2), Some((seed, ms_chaos())), rf);
            let out = inst
                .query(&query())
                .unwrap_or_else(|e| panic!("rf {rf} seed {seed}: chaos run failed: {e}"));
            assert!(!out.degraded(), "rf {rf} seed {seed}: fault paths must not drop rows");
            assert_eq!(extract(&out, &inst), expected, "rf {rf} seed {seed}: result divergence");
            inst.reset_clocks();
            let warm = inst.query(&query()).unwrap();
            assert_eq!(extract(&warm, &inst), expected, "rf {rf} seed {seed}: warm divergence");
            assert_stats_are_the_counters(&cache, &format!("rf {rf} seed {seed}"));
            // Whatever the schedule did, no copy may sit on a down node
            // and anti-entropy must have had stage-boundary chances.
            let snap = inst.metrics_snapshot().merge(&cache.metrics().snapshot());
            assert!(
                snap.counter("ids_engine_anti_entropy_ticks_total", "") > 0,
                "rf {rf} seed {seed}: engine never offered an anti-entropy tick"
            );
        }
    }
}

#[test]
fn crash_window_failover_reads_serve_replicas_with_zero_backing_traffic() {
    // Acceptance: with replication >= 2, a get issued while one replica
    // holder is crashed serves from the surviving cache copy — zero
    // backing fetches and zero re-populations, per the ids-obs counters.
    const NAME: &str = "chaos/replica-obj";
    let topo = Topology::new(4, 2);
    let rf2_cache = || {
        CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2),
            BackingStore::default_store(),
        )
    };
    let assert_failover = |cache: &CacheManager, data: &Bytes, seed: u64| {
        let before = cache.metrics().snapshot();
        let (bytes, outcome) = cache
            .get(RankId(0), NAME)
            .unwrap_or_else(|e| panic!("seed {seed}: failover read failed: {e}"))
            .unwrap_or_else(|| panic!("seed {seed}: replicated object vanished"));
        assert_eq!(bytes, *data, "seed {seed}: failover read must return identical bytes");
        assert_ne!(outcome.tier, Tier::Backing, "seed {seed}: must serve from a cache tier");
        let d = cache.metrics().snapshot().delta(&before);
        assert_eq!(d.counter("ids_cache_lookup_hits_total", "backing"), 0, "seed {seed}");
        assert_eq!(d.counter("ids_cache_repopulations_total", ""), 0, "seed {seed}");
        assert_eq!(d.counter("ids_cache_failover_reads_total", ""), 1, "seed {seed}");
    };
    let holders_of = |cache: &CacheManager, seed: u64| {
        let holders: Vec<_> = cache.locality(NAME).iter().map(|(n, _)| *n).collect();
        assert_eq!(holders.len(), 2, "seed {seed}: rf=2 put lands two copies");
        holders
    };

    let mut windows_exercised = 0u32;
    for seed in chaos_seeds() {
        let plane = Arc::new(FaultPlane::new(
            seed,
            FaultConfig::crashes_only(2.0e-3, 0.5e-3),
            topo.nodes(),
            topo.total_ranks(),
            10.0,
        ));
        let cache = rf2_cache();
        cache.attach_faults(Arc::clone(&plane));
        let data = Bytes::from(vec![seed as u8; 4096]);
        cache.put(RankId(0), NAME, data.clone());
        let holders = holders_of(&cache, seed);

        // First schedule instant where exactly one holder is down.
        let t = holders
            .iter()
            .flat_map(|n| plane.crash_windows(*n).iter().map(|w| w.0 + 1.0e-7))
            .filter(|&at| holders.iter().filter(|n| plane.node_down_at(**n, at)).count() == 1)
            .fold(f64::INFINITY, f64::min);
        if t.is_finite() {
            windows_exercised += 1;
            plane.advance_to(t);
            assert_failover(&cache, &data, seed);
        } else {
            // The schedule never isolates a single holder — fence one by
            // hand on a plane-free twin so every pinned-seed CI cell
            // still exercises the failover path.
            let cache = rf2_cache();
            cache.put(RankId(0), NAME, data.clone());
            let holders = holders_of(&cache, seed);
            cache.fail_node(holders[0]);
            assert_failover(&cache, &data, seed);
        }
    }
    if chaos_seeds().len() > 1 {
        assert!(
            windows_exercised >= 2,
            "the full seed matrix must isolate a single replica holder at least twice \
             (got {windows_exercised})"
        );
    }
}

#[test]
fn bit_rot_chaos_detects_quarantines_and_never_serves_corrupt_bytes() {
    // Storage-fault chaos: every read either serves pristine bytes or
    // (invisibly to the caller) quarantines a rotted copy and fails over.
    // Corrupt bytes must never escape, and with the backing store left
    // healthy no read may error.
    let topo = Topology::new(4, 2);
    let ranks = topo.total_ranks();
    let mut detected = 0u64;
    for seed in chaos_seeds() {
        let plane = Arc::new(FaultPlane::new(
            seed,
            FaultConfig::storage_only(0.2, 0.0),
            topo.nodes(),
            ranks,
            10.0,
        ));
        let cache = CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2),
            BackingStore::default_store(),
        );
        cache.attach_faults(Arc::clone(&plane));
        let payload = |i: usize| Bytes::from(vec![0x40 | i as u8; 2048]);
        for i in 0..4 {
            cache.put(RankId((i as u32) % ranks), &format!("rot/{i}"), payload(i));
        }
        for _pass in 0..4 {
            for i in 0..4 {
                for r in 0..ranks {
                    let got = cache
                        .get(RankId(r), &format!("rot/{i}"))
                        .unwrap_or_else(|e| panic!("seed {seed}: healthy backing erred: {e}"))
                        .unwrap_or_else(|| panic!("seed {seed}: rot/{i} lost"));
                    assert_eq!(got.0, payload(i), "seed {seed}: corrupt bytes served");
                }
            }
        }
        let snap = cache.metrics().snapshot();
        assert_eq!(
            snap.counter("ids_cache_quarantines_total", ""),
            snap.counter("ids_cache_corruptions_detected_total", "cache"),
            "seed {seed}: every cache-side detection quarantines exactly once"
        );
        detected += snap.counter_sum("ids_cache_corruptions_detected_total");
    }
    assert!(detected > 0, "a 20% rot probability across the matrix must fire");
}

#[test]
fn fault_metrics_surface_in_snapshot_and_explain() {
    let seed = chaos_seeds()[0];
    let (mut inst, _) = launch(Topology::new(4, 2), Some((seed, ms_chaos())));
    inst.query(&query()).unwrap();
    let snap = inst.metrics_snapshot();
    let injected = snap.counter_sum("ids_faults_injected_total");
    assert!(injected > 0, "a chaos schedule over a full run must inject something");
    let text = inst.explain(&query()).unwrap();
    assert!(text.contains("faults & degradation"), "{text}");
    assert!(text.contains("faults injected"), "{text}");
}
